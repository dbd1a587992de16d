"""Self-checks of the benchmark, at a tiny size.

Run with ``python3 -m pytest -q benchmarks/selfcheck.py`` (the file name
keeps the repository's own test run from collecting it).

The coverage check traces every workload briefly and requires each
per-layer metric to be non-zero on the workload it is measured on, so a
renamed or moved function fails here instead of reporting zeros.
"""

from __future__ import annotations

import json
import math
import tempfile

import numpy as np
import pytest

import run

workloads, _ = run.load_program()
import tracing  # noqa: E402  (needs the paths load_program sets)

SECONDS = 0.3
run.OUT.mkdir(exist_ok=True)


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of a short traced run of each tiny workload."""
    out = {}
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        for name in workloads.WORKLOADS:
            wl = run.make_workload(workloads, name, workdir, workloads.TINY)
            tally = run.Tally()
            metrics = run.traced_run(wl, 7, SECONDS, tally, None)
            assert tally.failed == 0, tally.problems
            out[name] = {k: v for k, (v, _) in metrics.items()}
    return out


def test_every_layer_metric_is_nonzero_on_its_workload(traced):
    span_names = {name for name, _, _ in tracing.TARGETS}
    for metric, (workload, _) in tracing.PREDICTIONS.items():
        got = traced[workload]
        if metric in span_names:
            assert got[f"{metric}.calls"] > 0, f"{metric} never called on {workload}"
            assert got[f"{metric}.self_s"] > 0, f"{metric} has no self time on {workload}"
        else:
            assert got[metric] > 0, f"{metric} is zero on {workload}"


def test_no_traced_call_raised(traced):
    for workload, metrics in traced.items():
        errors = {k: v for k, v in metrics.items() if k.endswith(".errors") and v}
        assert not errors, f"{workload}: {errors}"


def test_dominant_layer_and_bench_metrics(traced):
    for workload, layer in tracing.DOMINANT.items():
        assert traced[workload][f"share.{layer}"] > 0
        assert traced[workload]["bench.ref_ms"] > 0
        assert math.isfinite(traced[workload]["bench.trace_overhead"])


def test_predictions_cover_every_span_and_count():
    names = {name for name, _, _ in tracing.TARGETS} | set(tracing.COUNTS)
    assert names | {"exact.solves_per_call"} == set(tracing.PREDICTIONS)
    assert set(tracing.DOMINANT) == set(workloads.WORKLOADS)


def test_benchmark_json_lists_what_the_runs_print(traced):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metrics in traced.values():
        assert {m["name"] for m in spec["per_layer"]} == set(metrics)
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        wl = run.make_workload(workloads, "cli-roundtrip", workdir, workloads.TINY)
        timed, _ = run.timed_run(wl, 7, SECONDS, run.Tally())
    timed_names = set(timed) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == timed_names


def test_checks_reject_wrong_outputs():
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    out = workloads.Outcome()
    workloads.check_small(edges, np.array([0, 1, 0]), "mono", out)
    assert out.problems and "monochromatic" in out.problems[0]
    out = workloads.Outcome()
    workloads.check_large(edges, np.array([[0, 1], [1, 2]]), "path", out)
    assert any("bipartite" in p for p in out.problems)
    out = workloads.Outcome()
    workloads.check_large(edges[:2], edges, "outside", out)
    assert any("not in input" in p for p in out.problems)
    out = workloads.Outcome()
    workloads.check_large(edges, edges, "triangle", out)
    assert not out.problems


if __name__ == "__main__":
    raise SystemExit(pytest.main(["-q", __file__]))
