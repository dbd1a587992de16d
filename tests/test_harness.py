from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamcolor import (
    GraphSpec,
    experiment_distinguisher,
    experiment_edge_shrinkage,
    experiment_vertex_sampling,
    wilson_interval,
)
from streamcolor.cli import main as cli_main
from streamcolor.errors import ArgumentError
from streamcolor.seeds import rng_for

from oracles import peak_bytes, reference_bipartite, reference_gnm, reference_planted


@st.composite
def bipartite_fields(draw) -> tuple[int, int, int]:
    """(n, m, left) of a valid bipartite spec, `left` often at 1 or n - 1."""
    n = draw(st.integers(2, 60))
    left = draw(st.sampled_from((1, n - 1)) | st.integers(1, n - 1))
    return n, draw(st.integers(0, left * (n - left))), left


class TestGraphSpec:
    def test_parse_and_describe(self):
        spec = GraphSpec.parse("gnm:n=300,m=20000")
        assert (spec.kind, spec.n, spec.m) == ("gnm", 300, 20000)
        assert spec.describe() == "gnm:n=300,m=20000"

    def test_gnm_edge_count(self):
        g = GraphSpec.parse("gnm:n=50,m=400").build(rng_for(0, 0))
        assert g.num_edges == 400

    def test_planted_known_chi(self):
        spec = GraphSpec.parse("planted:n=100,clique=40")
        assert spec.known_chi == 40
        g = spec.build(rng_for(1, 0))
        assert g.num_edges == 40 * 39 // 2

    def test_bipartite_structure(self):
        spec = GraphSpec.parse("bipartite:n=20,m=30")
        g = spec.build(rng_for(2, 0))
        assert g.num_edges == 30
        assert all(u < 10 <= v for u, v in g.edges)
        assert spec.known_chi == 2

    def test_empty(self):
        spec = GraphSpec.parse("empty:n=5")
        assert spec.build(rng_for(0, 0)).num_edges == 0
        assert spec.known_chi == 1

    @pytest.mark.parametrize("fields, message", [
        (dict(kind="gnm", n=5, m=100), "m exceeds the pair count"),
        (dict(kind="bogus", n=5), "unknown graph-spec kind 'bogus'"),
        (dict(kind="gnm", n=5, clique=2), "gnm spec has no field 'clique'"),
        (dict(kind="empty", n=5, left=2), "empty spec has no field 'left'"),
        (dict(kind="planted", n=3, clique=4), "clique size exceeds n"),
        (dict(kind="bipartite", n=1), "bipartite spec needs 0 < left < n"),
        (dict(kind="bipartite", n=4, m=5), "m exceeds the bipartite pair count"),
        (dict(kind="planted", n=4, clique=-1), "graph-spec field 'clique' must be >= 0"),
    ])
    def test_constructor_checks_its_fields(self, fields, message):
        with pytest.raises(ArgumentError, match=f"^{message}$"):
            GraphSpec(**fields)

    def test_bipartite_left_defaults_to_half_of_n(self):
        spec = GraphSpec("bipartite", n=9, m=4)
        assert spec.left == 4 and spec == GraphSpec.parse("bipartite:n=9,m=4")
        assert spec.describe() == "bipartite:n=9,m=4,left=4"

    def test_bad_specs(self):
        for text in ("gnm", "what:n=3", "gnm:n=3,m=99", "bipartite:n=4,m=9",
                     "planted:n=3,clique=7", "gnm:n=3,m=x"):
            with pytest.raises(ArgumentError):
                GraphSpec.parse(text)

    @pytest.mark.parametrize("text, field", [
        ("gnm:n=10,mm=5", "mm"),
        ("gnm:n=10,clique=3", "clique"),
        ("planted:n=10,m=3", "m"),
        ("empty:n=5,left=2", "left"),
        ("gnm:kind=3,n=4", "kind"),
        ("gnm:n=10,n=20,m=3", "n"),
        ("bipartite:n=10,m=3,m=4", "m"),
        ("gnm:n=10,m=-1", "m"),
        ("planted:n=10,clique=-2", "clique"),
        ("bipartite:n=10,m=-3", "m"),
        ("empty:n=-1", "n"),
        ("gnm:n=1_0,m=3", "n"),
        ("gnm:n=10,m=\u0663", "m"),
    ])
    def test_bad_fields_named(self, tmp_path, capsys, text, field):
        with pytest.raises(ArgumentError, match=f"'{field}'"):
            GraphSpec.parse(text)
        out = tmp_path / "g.graph"
        assert cli_main(["gen", "graph", "--spec", text, "-o", str(out)]) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_describe_text(self):
        # experiment params carry this text, so it is part of their bytes
        for text, want in [
            ("gnm:n=30,m=5", "gnm:n=30,m=5"),
            ("planted: n=30 , clique=4", "planted:n=30,clique=4"),
            ("bipartite:n=30,m=5", "bipartite:n=30,m=5,left=15"),
            ("bipartite:left=3,n=30", "bipartite:n=30,m=0,left=3"),
            ("empty:n=30", "empty:n=30"),
            ("gnm:", "gnm:n=0,m=0"),
        ]:
            assert GraphSpec.parse(text).describe() == want
            assert GraphSpec.parse(want).describe() == want

    def test_deterministic_builds(self):
        spec = GraphSpec.parse("gnm:n=40,m=100")
        assert spec.build(rng_for(7, 0)) == spec.build(rng_for(7, 0))

    @given(st.data(), st.integers(0, 60), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_gnm_matches_pair_table_reference(self, data, n, seed):
        m = data.draw(st.integers(0, n * (n - 1) // 2))
        got = GraphSpec("gnm", n=n, m=m).build(rng_for(seed, 0))
        want = reference_gnm(n, m, rng_for(seed, 0))
        assert got.edge_array().tobytes() == want.edge_array().tobytes()

    @given(bipartite_fields(), st.integers(0, 2**32))
    @example((2, 1, 1), 0)  # n = 2: left = 1 = n - 1
    @example((9, 0, 1), 1)  # m = 0
    @example((9, 8, 1), 2)  # every pair of the one left vertex
    @example((9, 8, 8), 3)  # left = n - 1
    @settings(max_examples=100, deadline=None)
    def test_bipartite_matches_reference(self, fields, seed):
        n, m, left = fields
        got = GraphSpec("bipartite", n=n, m=m, left=left).build(rng_for(seed, 0))
        want = reference_bipartite(n, m, left, rng_for(seed, 0))
        assert got.edge_array().tobytes() == want.edge_array().tobytes()

    @given(st.integers(0, 60).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
           st.integers(0, 2**32))
    @example((0, 0), 0)
    @example((9, 0), 1)
    @example((9, 1), 2)
    @example((9, 2), 3)
    @example((2, 2), 4)
    @settings(max_examples=100, deadline=None)
    def test_planted_matches_reference(self, fields, seed):
        n, clique = fields
        got = GraphSpec("planted", n=n, clique=clique).build(rng_for(seed, 0))
        want = reference_planted(n, clique, rng_for(seed, 0))
        assert got.edge_array().tobytes() == want.edge_array().tobytes()

    def test_sparse_gnm_allocates_no_pair_table(self):
        # the 4.5 million pairs of n = 3000 as two int64 columns are 72 MB
        spec = GraphSpec.parse("gnm:n=3000,m=10")
        g, peak = peak_bytes(lambda: spec.build(rng_for(3, 0)))
        assert g.num_edges == 10
        assert peak < 4_000_000

    @pytest.mark.parametrize("text", ["gnm:n=300,m=20000", "bipartite:n=200,m=8000"])
    def test_build_peak_memory_per_edge(self, text):
        # each family writes its endpoints once, into one (2, m) buffer: about
        # 43 bytes per edge at peak, against 58 (gnm) and 51 (bipartite) when
        # the endpoints were full-size temporaries and a `column_stack`
        spec = GraphSpec.parse(text)
        g, peak = peak_bytes(lambda: spec.build(rng_for(3, 0)))
        assert g.num_edges == spec.m
        assert peak / spec.m <= 45

    def test_sparse_gnm_peak_memory_per_vertex(self):
        # the row ends and their pick counts are the n-length arrays: 24
        # bytes per vertex at peak, against 40 when `rows`, `starts` and
        # their products were each a copy
        spec = GraphSpec.parse("gnm:n=1000000,m=10")
        g, peak = peak_bytes(lambda: spec.build(rng_for(3, 0)))
        assert g.num_edges == 10
        assert peak / spec.n <= 32


class TestWilson:
    def test_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert 0.40 < lo < 0.41 and 0.59 < hi < 0.60

    def test_extremes_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 20)
        assert lo == 0.0 and hi < 0.2
        lo, hi = wilson_interval(20, 20)
        assert lo > 0.8 and hi == 1.0


class TestEdgeShrinkage:
    def test_empty_graph_all_zero_ratios(self):
        result = experiment_edge_shrinkage(
            GraphSpec.parse("empty:n=50"), 2, trials=3, seed=0
        )
        for rec in result.records:
            assert rec["m_sizes"] == [0, 0, 0]
            assert rec["ratios"] == [0.0, 0.0]
        assert result.summary["violation_fraction"] == 0.0

    def test_budget_covers_everything_single_round(self):
        # |E| <= budget: round one stores all of M_1, so M_2 is empty
        result = experiment_edge_shrinkage(
            GraphSpec.parse("gnm:n=50,m=300"), 2, trials=4, seed=1
        )
        for rec in result.records:
            assert rec["m_sizes"][0] == 300
            assert rec["m_sizes"][1] == 0

    def test_trials_is_the_record_count(self):
        result = experiment_edge_shrinkage(GraphSpec.parse("gnm:n=30,m=60"), 2, trials=3, seed=3)
        assert result.trials == len(result.records) == 3
        assert result.to_dict()["trials"] == 3
        with pytest.raises(TypeError):
            dataclasses.replace(result, trials=4)

    def test_bound_value(self):
        result = experiment_edge_shrinkage(
            GraphSpec.parse("gnm:n=300,m=500"), 2, trials=1, seed=2
        )
        assert abs(result.summary["bound"] - 300**-0.5) < 1e-12

    def test_reproducible(self):
        a = experiment_edge_shrinkage(GraphSpec.parse("gnm:n=60,m=400"), 2, 5, seed=9)
        b = experiment_edge_shrinkage(GraphSpec.parse("gnm:n=60,m=400"), 2, 5, seed=9)
        assert a.to_json() == b.to_json()


class TestVertexSampling:
    def test_threshold_arithmetic(self):
        result = experiment_vertex_sampling(
            GraphSpec.parse("planted:n=100,clique=40"), 0.5, trials=5, seed=0
        )
        expected = (0.5 / (2 * math.log(100))) * 40 - 1
        assert abs(result.summary["threshold"] - expected) < 1e-12
        assert abs(expected - 1.17147) < 1e-4

    def test_low_p_never_below_negative_threshold(self):
        result = experiment_vertex_sampling(
            GraphSpec.parse("planted:n=100,clique=40"), 0.2, trials=20, seed=1
        )
        assert result.summary["threshold"] < 0
        assert result.summary["empirical_probability"] == 0.0

    def test_edgeless_indicator_false(self):
        result = experiment_vertex_sampling(
            GraphSpec.parse("empty:n=30"), 0.5, trials=10, seed=2
        )
        assert result.summary["empirical_probability"] == 0.0

    def test_needs_known_chi(self):
        with pytest.raises(ArgumentError):
            experiment_vertex_sampling(GraphSpec.parse("gnm:n=30,m=50"), 0.5, 3, seed=0)

    def test_p_validated(self):
        with pytest.raises(ArgumentError):
            experiment_vertex_sampling(GraphSpec.parse("empty:n=30"), 1.5, 3, seed=0)


class TestDistinguisher:
    def test_zero_trials_empty(self):
        result = experiment_distinguisher(
            "random-order",
            GraphSpec.parse("bipartite:n=40,m=100"),
            GraphSpec.parse("planted:n=40,clique=10"),
            2, 2, trials=0, seed=0,
        )
        assert result.records == ()
        assert result.summary == {}

    def test_random_order_small_family(self):
        result = experiment_distinguisher(
            "random-order",
            GraphSpec.parse("bipartite:n=60,m=300"),
            GraphSpec.parse("planted:n=60,clique=12"),
            2, 2, trials=10, seed=1,
        )
        assert result.summary["small_success_rate"] == 1.0
        assert result.summary["large_success_rate"] == 1.0

    def test_dynamic_with_churn(self):
        result = experiment_distinguisher(
            "dynamic",
            GraphSpec.parse("bipartite:n=64,m=200"),
            GraphSpec.parse("planted:n=64,clique=24"),
            2, 24, trials=5, seed=2, extra_pairs=50, cycles=1,
        )
        assert result.summary["small_success_rate"] == 1.0
        assert result.summary["large_success_rate"] == 1.0

    @pytest.mark.parametrize("algorithm", ["random-order", "multipass"])
    @pytest.mark.parametrize("churn", [{"extra_pairs": 5}, {"cycles": 2}, {"cycles": 0}])
    def test_churn_refused_off_the_dynamic_algorithm(self, algorithm, churn):
        with pytest.raises(ArgumentError, match="churn"):
            experiment_distinguisher(
                algorithm,
                GraphSpec.parse("bipartite:n=40,m=100"),
                GraphSpec.parse("planted:n=40,clique=10"),
                2, 2, trials=1, seed=0, **churn,
            )


class TestTrialCount:
    EXPERIMENTS = {
        "shrinkage": lambda trials, **kw: experiment_edge_shrinkage(
            GraphSpec.parse("gnm:n=30,m=60"), 2, trials, seed=0, **kw
        ),
        "vertex-sampling": lambda trials: experiment_vertex_sampling(
            GraphSpec.parse("planted:n=30,clique=5"), 0.5, trials, seed=0
        ),
        "distinguisher": lambda trials: experiment_distinguisher(
            "random-order", GraphSpec.parse("bipartite:n=30,m=60"),
            GraphSpec.parse("planted:n=30,clique=5"), 2, 2, trials, seed=0,
        ),
    }

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_negative_refused_before_any_draw(self, name, monkeypatch):
        def no_build(*args):
            raise AssertionError("a refused trial count must not build a graph")

        monkeypatch.setattr(GraphSpec, "build", no_build)
        with pytest.raises(ArgumentError, match="trial count must be >= 0, got -1"):
            self.EXPERIMENTS[name](-1)

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_zero_is_an_empty_result(self, name):
        result = self.EXPERIMENTS[name](0)
        assert (result.trials, result.records, result.summary) == (0, (), {})

    @pytest.mark.parametrize("multiplier", [math.nan, math.inf, 0.0, -1.0])
    def test_shrinkage_multiplier_refused_even_without_trials(self, multiplier):
        with pytest.raises(ArgumentError, match="budget multiplier"):
            self.EXPERIMENTS["shrinkage"](0, budget_multiplier=multiplier)

    def test_shrinkage_t_below_two_refused_before_the_bound(self):
        with pytest.raises(ArgumentError, match="t must be >= 2"):
            experiment_edge_shrinkage(GraphSpec.parse("gnm:n=30,m=60"), 0, 1, seed=0)


class TestResultEmission:
    def test_json_csv_field_consistency(self):
        result = experiment_edge_shrinkage(
            GraphSpec.parse("gnm:n=60,m=400"), 2, trials=3, seed=4
        )
        payload = json.loads(result.to_json())
        rows = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(rows) == len(payload["records"])
        for rec, row in zip(payload["records"], rows):
            assert set(row) == set(rec)
            for key, value in rec.items():
                if isinstance(value, list):
                    assert row[key] == " ".join(str(v) for v in value)
                else:
                    assert row[key] == str(value)

    def test_records_ordered_by_trial(self):
        result = experiment_vertex_sampling(
            GraphSpec.parse("planted:n=50,clique=10"), 0.4, trials=6, seed=5
        )
        assert [r["trial"] for r in result.records] == list(range(6))
