"""streamcolor: streaming graph coloring algorithms and hard instances.

The package is organized around six areas:

* `graph` / `exact`: the data model and an exact chromatic-number engine;
* `clusterpack`: (r, t, k)-cluster packing graph constructions and checks;
* `instances`: hard-instance generators with constructive witnesses;
* `streams`: edge-stream model, builders, and serialization;
* `algorithms`: the random-order, multi-pass, and dynamic distinguishers;
* `harness`: Monte Carlo experiments; `cli`: the command-line surface.

`clusterpack` and `instances` load on first use (PEP 562): no stream, run or
experiment needs them, and a process without a bytecode cache compiles them.
"""

from .graph import (
    Coloring,
    Graph,
    induced_subgraph,
    is_proper_coloring,
    missing_clique_pair,
    product_coloring,
    read_coloring,
    read_graph,
    write_coloring,
    write_graph,
)
from .exact import chromatic_number, color_with_cap, dsatur_coloring, find_k_coloring
from .streams import (
    Stream,
    StreamSource,
    read_stream,
    to_dynamic_stream,
    to_insertion_stream,
    write_stream,
)
from .algorithms import (
    Verdict,
    default_budget,
    offline_iterative_coloring,
    run_dynamic,
    run_multipass,
    run_random_order,
)
from .harness import (
    ExperimentResult,
    GraphSpec,
    experiment_distinguisher,
    experiment_edge_shrinkage,
    experiment_vertex_sampling,
    wilson_interval,
)

__version__ = "0.1.0"

# each lazily loaded name -> the submodule that defines it; a submodule names itself
_LAZY = dict.fromkeys("""clusterpack ClusterPackingGraph DenseParams SetFamily canonical_coloring
    construct_dense construct_lines_basic construct_lines_grouped fano_family read_cpg write_cpg
    gen_intersection_family lift_to_k_colorable verify_cluster_packing""".split(), "clusterpack")
_LAZY |= dict.fromkeys("""instances LevelPlan LevelSpec RecursiveInstance SimultaneousInstance
    TwoPlayerInstance default_level_plan gen_recursive gen_simultaneous gen_two_player
    read_instance verify_instance witness_coloring write_instance""".split(), "instances")
__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    globals()[name] = value = module if name == _LAZY[name] else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
