"""The package surface: which submodules load on first use, and the seed
discipline's refusal of a negative seed."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import streamcolor
from streamcolor import clusterpack, instances
from streamcolor.errors import ArgumentError
from streamcolor.seeds import child_seed, rng_for

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY_NAMES = {
    clusterpack: (
        "ClusterPackingGraph", "DenseParams", "SetFamily", "canonical_coloring",
        "construct_dense", "construct_lines_basic", "construct_lines_grouped",
        "fano_family", "gen_intersection_family", "lift_to_k_colorable", "read_cpg",
        "verify_cluster_packing", "write_cpg",
    ),
    instances: (
        "LevelPlan", "LevelSpec", "RecursiveInstance", "SimultaneousInstance",
        "TwoPlayerInstance", "default_level_plan", "gen_recursive", "gen_simultaneous",
        "gen_two_player", "read_instance", "verify_instance", "witness_coloring",
        "write_instance",
    ),
}
ALL_LAZY = [(module, name) for module, names in LAZY_NAMES.items() for name in names]


class TestLazySubmodules:
    def test_stream_run_and_experiment_load_neither(self, tmp_path):
        # a fresh process: this suite itself has imported every submodule
        script = textwrap.dedent("""
            import json, sys
            import streamcolor, streamcolor.cli
            from streamcolor.cli import main

            codes = [
                main(["gen", "graph", "--spec", "gnm:n=40,m=120", "--seed", "1", "-o", "g"]),
                main(["stream", "shuffle", "--graph", "g", "--seed", "2", "-o", "s"]),
                main(["run", "random-order", "--stream", "s", "--q", "2", "--t", "2",
                      "-o", "v"]),
                main(["experiment", "vertex-sampling", "--graph-spec",
                      "planted:n=30,clique=8", "--p", "0.5", "--trials", "2",
                      "--seed", "3", "-o", "e"]),
            ]
            loaded = [m for m in ("streamcolor.clusterpack", "streamcolor.instances")
                      if m in sys.modules]
            print(json.dumps({"codes": codes, "loaded": loaded}))
        """)
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"codes": [0, 0, 0, 0], "loaded": []}

    @pytest.mark.parametrize("module, name", ALL_LAZY, ids=lambda x: getattr(x, "__name__", x))
    def test_name_is_the_submodule_object_and_listed(self, module, name):
        assert getattr(streamcolor, name) is getattr(module, name)
        assert name in dir(streamcolor)
        assert name in streamcolor.__all__

    def test_submodule_attributes_resolve(self):
        assert streamcolor.clusterpack is clusterpack
        assert streamcolor.instances is instances
        assert {"clusterpack", "instances"} <= set(dir(streamcolor))

    def test_from_import_and_star_import(self):
        from streamcolor import gen_two_player

        assert gen_two_player is instances.gen_two_player
        namespace: dict = {}
        exec("from streamcolor import *", namespace)
        assert all(namespace[name] is getattr(module, name) for module, name in ALL_LAZY)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            streamcolor.no_such_name  # noqa: B018
        assert not hasattr(streamcolor, "no_such_name")


class TestNegativeSeed:
    @pytest.mark.parametrize("draw", [rng_for, child_seed])
    def test_refused_with_argument_error(self, draw):
        with pytest.raises(ArgumentError, match="seed must be >= 0"):
            draw(-1, 0)

    @pytest.mark.parametrize("draw", [rng_for, child_seed])
    def test_zero_still_draws(self, draw):
        assert draw(0, 0) is not None
