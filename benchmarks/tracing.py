"""Spans around calls into each streamcolor module, recorded from outside.

`Tracer.install` replaces every binding of each traced public function,
in every loaded ``streamcolor`` module, with a wrapper that records a span
(name, start, end, parent) in memory. Methods are wrapped on their class.
Per-edge helpers such as ``normalize_edge`` and ``StreamEvent.pair`` are
never wrapped: their call counts would swamp the spans. `Tracer.uninstall`
puts every original back.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute path). The span name is "<layer>.<name>".
TARGETS = [
    ("graph.Graph", "streamcolor.graph", "Graph.__init__"),
    ("graph.adjacency", "streamcolor.graph", "Graph.adjacency"),
    ("graph.product_coloring", "streamcolor.graph", "product_coloring"),
    ("graph.read_graph", "streamcolor.graph", "read_graph"),
    ("graph.write_graph", "streamcolor.graph", "write_graph"),
    ("streams.Stream", "streamcolor.streams", "Stream.__init__"),
    ("streams.to_insertion_stream", "streamcolor.streams", "to_insertion_stream"),
    ("streams.to_dynamic_stream", "streamcolor.streams", "to_dynamic_stream"),
    ("streams.read_stream", "streamcolor.streams", "read_stream"),
    ("streams.write_stream", "streamcolor.streams", "write_stream"),
    ("exact.color_with_cap", "streamcolor.exact", "color_with_cap"),
    ("exact.chromatic_number", "streamcolor.exact", "chromatic_number"),
    ("exact.find_k_coloring", "streamcolor.exact", "find_k_coloring"),
    ("exact.dsatur_coloring", "streamcolor.exact", "dsatur_coloring"),
    ("algorithms.run_random_order", "streamcolor.algorithms", "run_random_order"),
    ("algorithms.run_multipass", "streamcolor.algorithms", "run_multipass"),
    ("algorithms.run_dynamic", "streamcolor.algorithms", "run_dynamic"),
    ("algorithms.offline_iterative_coloring", "streamcolor.algorithms",
     "offline_iterative_coloring"),
    ("harness.GraphSpec.build", "streamcolor.harness", "GraphSpec.build"),
    ("harness.experiment_edge_shrinkage", "streamcolor.harness", "experiment_edge_shrinkage"),
    ("harness.experiment_vertex_sampling", "streamcolor.harness", "experiment_vertex_sampling"),
    ("cli.main", "streamcolor.cli", "main"),
]
LAYERS = ("graph", "streams", "exact", "algorithms", "harness", "cli")
COUNTS = (
    "graph.Graph.edges_out",
    "streams.events",
    "algorithms.events_read",
    "algorithms.rounds",
    "algorithms.peak_stored",
    "algorithms.budget",
)
# Searches that color_with_cap runs per call; more than one is waste.
SOLVES = ("exact.chromatic_number", "exact.find_k_coloring")
# Counts kept as a maximum over calls rather than a sum.
MAX_COUNTS = {"algorithms.peak_stored", "algorithms.budget"}

# Per-layer metric -> (the workload it must be non-zero on, what it should move).
PREDICTIONS = {
    "graph.Graph": ("offline-dense", "trial_ref_p50 on offline-dense (~43%) and insertion-q2 (~18%)"),
    "graph.adjacency": ("offline-dense", "trial_ref_p50 on offline-dense, with dsatur (~23%)"),
    "graph.product_coloring": ("insertion-q2", "trial_ref_p50 on insertion-q2"),
    "graph.read_graph": ("cli-roundtrip", "trial_ref_p50 on cli-roundtrip (text I/O ~36%)"),
    "graph.write_graph": ("cli-roundtrip", "trial_ref_p50 on cli-roundtrip (text I/O ~36%)"),
    "graph.Graph.edges_out": ("offline-dense", "count; moves with Graph() work on every workload"),
    "streams.Stream": ("insertion-q2", "trial_ref_p50 on insertion-q2 (~27%), dynamic-churn; 0 on offline-dense"),
    "streams.to_insertion_stream": ("insertion-q2", "trial_ref_p50 on insertion-q2"),
    "streams.to_dynamic_stream": ("dynamic-churn", "trial_ref_p50 on dynamic-churn (15-26%)"),
    "streams.read_stream": ("cli-roundtrip", "trial_ref_p50 on cli-roundtrip only"),
    "streams.write_stream": ("cli-roundtrip", "trial_ref_p50 on cli-roundtrip only"),
    "streams.events": ("insertion-q2", "count; 0 on offline-dense"),
    "exact.color_with_cap": ("insertion-q2", "trial_ref_p50 on insertion-q2 and dynamic-churn small side"),
    "exact.chromatic_number": ("insertion-q2", "trial_ref_p50 on insertion-q2; k>=3 path on cli-roundtrip"),
    "exact.find_k_coloring": ("insertion-q2", "trial_ref_p50 on insertion-q2"),
    "exact.dsatur_coloring": ("offline-dense", "trial_ref_p50 on offline-dense only"),
    "exact.solves_per_call": ("insertion-q2", "ratio; 2.0 at q=2 while each round solves twice"),
    "algorithms.run_random_order": ("insertion-q2", "trial_ref_p50 on insertion-q2 (~26% with multipass)"),
    "algorithms.run_multipass": ("insertion-q2", "trial_ref_p50 on insertion-q2 (~26% with random-order)"),
    "algorithms.run_dynamic": ("dynamic-churn", "trial_ref_p50 on dynamic-churn only (41-66%)"),
    "algorithms.offline_iterative_coloring": ("offline-dense", "trial_ref_p50 on offline-dense only"),
    "algorithms.events_read": ("insertion-q2", "count; early stopping lowers it"),
    "algorithms.rounds": ("insertion-q2", "count"),
    "algorithms.peak_stored": ("insertion-q2", "count; peak_stored end to end"),
    "algorithms.budget": ("insertion-q2", "count; n^(1+1/t) ln n"),
    "harness.GraphSpec.build": ("offline-dense", "trial_ref_p50 on offline-dense (~13%)"),
    "harness.experiment_edge_shrinkage": ("offline-dense", "trial_ref_p50 on offline-dense"),
    "harness.experiment_vertex_sampling": ("cli-roundtrip", "trial_ref_p50 on cli-roundtrip"),
    "cli.main": ("cli-roundtrip", "trial_ref_p50 on cli-roundtrip only"),
}
# The layer predicted to take the largest share of each workload's trial.
DOMINANT = {
    "insertion-q2": "streams",
    "dynamic-churn": "algorithms",
    "offline-dense": "graph",
    "cli-roundtrip": "streams",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory spans and counts for calls into the traced functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, trial]
        self.stack: list[int] = []
        self.trial = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent, self.trial]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer._close(record)
            if after is not None:
                after(tracer.counts, args, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its definition and at every re-binding."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "streamcolor" or k.startswith("streamcolor."))]
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[idx]
        return {k: (c, s) for k, (c, s) in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, trial in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "trial": trial}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.record)
        return False


# -- counts read from what a traced call returned ---------------------------


def _after_graph(counts, args, _):
    counts["graph.Graph.edges_out"] += len(args[0].edges)


def _after_stream(counts, args, _):
    counts["streams.events"] += len(args[0].events)


def _peak(counts, value):
    counts["algorithms.peak_stored"] = max(counts["algorithms.peak_stored"], value)


def _budget(counts, value):
    counts["algorithms.budget"] = max(counts["algorithms.budget"], value)


def _after_random_order(counts, args, verdict):
    meta = verdict.metadata
    counts["algorithms.events_read"] += meta["events_read"]
    counts["algorithms.rounds"] += meta["rounds_used"]
    _peak(counts, meta["peak_stored_edges"])
    _budget(counts, meta["budget"])


def _after_multipass(counts, args, verdict):
    meta = verdict.metadata
    source = args[0]
    stream = getattr(source, "stream", source)
    # every opened pass reads the whole stream
    counts["algorithms.events_read"] += meta["passes_used"] * len(stream)
    counts["algorithms.rounds"] += meta["passes_used"]
    _peak(counts, meta["peak_stored_edges"])
    _budget(counts, meta["budget"])


def _after_dynamic(counts, args, verdict):
    counts["algorithms.events_read"] += len(args[0])
    _peak(counts, verdict.metadata.get("counters", 0))


def _after_offline(counts, args, run):
    rounds = len(run.round_colors)
    counts["algorithms.rounds"] += rounds
    _peak(counts, max((min(m, run.budget) for m in run.m_sizes[:rounds]), default=0))
    _budget(counts, run.budget)


_AFTER = {
    "graph.Graph": _after_graph,
    "streams.Stream": _after_stream,
    "algorithms.run_random_order": _after_random_order,
    "algorithms.run_multipass": _after_multipass,
    "algorithms.run_dynamic": _after_dynamic,
    "algorithms.offline_iterative_coloring": _after_offline,
}


def layer_metrics(tracer: Tracer, trials: int, trial_span: str) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per trial where it is a rate."""
    per = max(trials, 1)
    selfs = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in TARGETS:
        calls, self_s = selfs.get(name, (0, 0.0))
        out[f"{name}.calls"] = (calls / per, "count/trial")
        out[f"{name}.self_s"] = (self_s / per, "s/trial")
        out[f"{name}.errors"] = (tracer.errors.get(name, 0), "count")
    for name in COUNTS:
        value = tracer.counts.get(name, 0)
        out[name] = (value if name in MAX_COUNTS else value / per,
                     "count" if name in MAX_COUNTS else "count/trial")
    capped = selfs.get("exact.color_with_cap", (0, 0.0))[0]
    solves = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name in SOLVES and parent >= 0 and tracer.spans[parent][0] == "exact.color_with_cap"
    )
    out["exact.solves_per_call"] = (solves / capped if capped else 0.0, "ratio")
    total = sum(end - start for name, start, end, _, _ in tracer.spans if name == trial_span)
    for layer in LAYERS:
        share = sum(s for name, (_, s) in selfs.items() if name.split(".")[0] == layer)
        out[f"share.{layer}"] = (share / total if total else 0.0, "fraction")
    return out
