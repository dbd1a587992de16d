"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import time

import numpy as np

from streamcolor import (
    DenseParams,
    GraphSpec,
    chromatic_number,
    construct_dense,
    construct_lines_basic,
    construct_lines_grouped,
    fano_family,
    find_k_coloring,
    gen_recursive,
    gen_simultaneous,
    gen_two_player,
    is_proper_coloring,
    lift_to_k_colorable,
    missing_clique_pair,
    offline_iterative_coloring,
    read_cpg,
    read_graph,
    read_stream,
    run_dynamic,
    run_multipass,
    run_random_order,
    to_dynamic_stream,
    to_insertion_stream,
    verify_cluster_packing,
    write_cpg,
    write_graph,
    write_stream,
    experiment_edge_shrinkage,
    experiment_vertex_sampling,
)
from streamcolor.cli import main as cli_main
from streamcolor.seeds import rng_for
from streamcolor.instances import witness_coloring


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def test_criterion_1_cluster_packing_correctness():
    start = time.time()
    cases = []
    for n, k in ((64, 2), (108, 3), (256, 2)):
        cpg = construct_lines_basic(n, k)
        expected_t = (n // (2 * k * k)) * (n // (2 * k**3))
        cases.append((f"basic({n},{k})", cpg, expected_t))
    for n, r, k in ((1024, 4, 2), (64, 2, 2)):
        cpg = construct_lines_grouped(n, r, k)
        expected_t = (n // (2 * k * r)) * (n // (2 * k * k * r))
        cases.append((f"grouped({n},{r},{k})", cpg, expected_t))
    for k, d, p in ((2, 7, 5), (3, 7, 7)):
        cpg = construct_dense(DenseParams(k=k, d=d, p=p, family=fano_family(3)))
        cases.append((f"dense({k},{d},{p},fano3)", cpg, 3))

    ok = True
    details = []
    for name, cpg, expected_t in list(cases):
        if cpg.t != expected_t:
            ok = False
            details.append(f"{name}: t={cpg.t} != {expected_t}")
        report = verify_cluster_packing(cpg)
        if not report.ok:
            ok = False
            details.append(f"{name}: {report.failures()}")
        lifted = lift_to_k_colorable(cpg)
        if (lifted.t, lifted.r, lifted.graph.n) != (
            cpg.t,
            cpg.r * cpg.k,
            cpg.graph.n * cpg.k,
        ):
            ok = False
            details.append(f"lift({name}): parameter mismatch")
        lreport = verify_cluster_packing(lifted)
        if not lreport.ok:
            ok = False
            details.append(f"lift({name}): {lreport.failures()}")

    # spot checks from the closed forms
    basic64 = construct_lines_basic(64, 2)
    if basic64.t != 32:
        ok = False
        details.append(f"basic(64,2) t={basic64.t} != 32")
    dense275 = construct_dense(DenseParams(k=2, d=7, p=5, family=fano_family(3)))
    if not (dense275.t == 3 and dense275.r == 625 and dense275.graph.num_edges == 1875):
        ok = False
        details.append("dense(2,7,5) counts off")

    elapsed = time.time() - start
    if elapsed > 60:
        ok = False
        details.append(f"runtime {elapsed:.1f}s > 60s")
    _report(1, "cluster-packing-correctness", ok, "; ".join(details) or f"{elapsed:.1f}s")


def test_criterion_2_hard_instance_gaps():
    start = time.time()
    failures = []
    for seed in range(50):
        inst = gen_two_player(64, 2, seed=seed, ans_override=1)
        if missing_clique_pair(inst.union_graph(), inst.spec) is not None or len(inst.spec) != 4:
            failures.append(f"two-player ans=1 seed {seed}")
        inst = gen_two_player(64, 2, seed=seed, ans_override=0)
        if find_k_coloring(inst.union_graph(), 4) is None:
            failures.append(f"two-player ans=0 seed {seed}")

    for seed in range(50):
        inst = gen_recursive(3, 2, seed=seed, ans_override=1)
        if missing_clique_pair(inst.union_graph(), inst.spec) is not None or len(inst.spec) != 8:
            failures.append(f"recursive ans=1 seed {seed}")
        inst = gen_recursive(3, 2, seed=seed, ans_override=0)
        witness = witness_coloring(inst)
        if witness.num_colors > 6 or not is_proper_coloring(inst.union_graph(), witness):
            failures.append(f"recursive ans=0 seed {seed}")

    for seed in range(50):
        inst = gen_simultaneous(4, 10, seed=seed, theta_override=1)
        if missing_clique_pair(inst.union_graph(), inst.v_clique) is not None:
            failures.append(f"simultaneous theta=1 seed {seed}")
        inst = gen_simultaneous(4, 10, seed=seed, theta_override=0)
        if find_k_coloring(inst.union_graph(), 3) is None:
            failures.append(f"simultaneous theta=0 seed {seed}")

    elapsed = time.time() - start
    ok = not failures and elapsed <= 600
    _report(2, "hard-instance-gaps", ok,
            "; ".join(failures[:3]) or f"300 instances, {elapsed:.1f}s")


def test_criterion_3_one_sidedness():
    large_hits = []
    runs = 0
    # random-order and multipass: 50 runs per (n, t) over bipartite inputs
    for algo in ("random-order", "multipass"):
        for n, t in ((100, 2), (100, 3), (200, 2), (200, 3)):
            m = 2000 if n == 100 else 5000
            spec = GraphSpec.parse(f"bipartite:n={n},m={m}")
            for seed in range(50):
                g = spec.build(rng_for(seed, 0))
                stream = to_insertion_stream(g, "shuffled", seed=seed)
                if algo == "random-order":
                    verdict = run_random_order(stream, 2, t)
                else:
                    verdict = run_multipass(stream, 2, t, seed=seed)
                runs += 1
                if verdict.label != "small":
                    large_hits.append(f"{algo} n={n} t={t} seed={seed}")
    # dynamic: 100 runs per n at t = 32
    for n in (100, 200):
        m = 2000 if n == 100 else 5000
        spec = GraphSpec.parse(f"bipartite:n={n},m={m}")
        for seed in range(100):
            g = spec.build(rng_for(seed, 1))
            stream = to_dynamic_stream(g, extra_pairs=100, cycles=1, seed=seed)
            verdict = run_dynamic(stream, 2, 32, seed=seed)
            runs += 1
            if verdict.label != "small":
                large_hits.append(f"dynamic n={n} seed={seed}")
    ok = not large_hits and runs == 600
    _report(3, "one-sidedness", ok, "; ".join(large_hits[:3]) or f"{runs} runs, 0 large")


def test_criterion_4_distinguishing_random_order():
    start = time.time()
    spec = GraphSpec.parse("planted:n=200,clique=30")
    large = 0
    bad_evidence = []
    for seed in range(100):
        g = spec.build(rng_for(seed, 2))
        stream = to_insertion_stream(g, "shuffled", seed=seed)
        verdict = run_random_order(stream, 2, 2)
        if verdict.label == "large":
            large += 1
            sub = verdict.evidence.subgraph
            if not (sub.edges <= g.edges) or chromatic_number(sub, cap=2) is not None:
                bad_evidence.append(seed)
    elapsed = time.time() - start
    ok = large >= 99 and not bad_evidence and elapsed <= 300
    _report(4, "distinguishing-random-order", ok,
            f"large {large}/100, bad evidence {bad_evidence}, {elapsed:.1f}s")


def test_criterion_5_distinguishing_dynamic():
    start = time.time()
    spec = GraphSpec.parse("planted:n=256,clique=64")
    large = 0
    for seed in range(100):
        g = spec.build(rng_for(seed, 3))
        stream = to_dynamic_stream(g, extra_pairs=500, cycles=2, seed=seed)
        verdict = run_dynamic(stream, 2, 32, seed=seed)
        if verdict.label == "large":
            large += 1
    elapsed = time.time() - start
    ok = large >= 95 and elapsed <= 600
    _report(5, "distinguishing-dynamic", ok, f"large {large}/100, {elapsed:.1f}s")


def test_criterion_6_shrinkage():
    result = experiment_edge_shrinkage(
        GraphSpec.parse("gnm:n=300,m=20000"), 2, trials=100, seed=2024
    )
    bound = result.summary["bound"]
    fraction = result.summary["violation_fraction"]
    ok = abs(bound - 300**-0.5) < 1e-12 and fraction <= 0.01
    _report(6, "edge-shrinkage-bound", ok,
            f"bound {bound:.4f}, violation fraction {fraction:.4f}")


def test_criterion_7_vertex_sampling():
    details = []
    ok = True
    for p in (0.2, 0.5):
        result = experiment_vertex_sampling(
            GraphSpec.parse("planted:n=100,clique=40"), p, trials=200, seed=99
        )
        prob = result.summary["empirical_probability"]
        half_width = (result.summary["wilson_high"] - result.summary["wilson_low"]) / 2
        if prob > 0.5 + half_width:
            ok = False
        details.append(f"p={p}: {prob:.3f} <= 0.5+{half_width:.3f}")
    _report(7, "vertex-sampling-bound", ok, "; ".join(details))


def test_criterion_8_coloring_properness():
    start = time.time()
    proper = 0
    total = 0

    # offline iterative coloring on bipartite inputs with genuine sampling
    bip = GraphSpec.parse("bipartite:n=200,m=8000")
    for seed in range(250):
        g = bip.build(rng_for(seed, 4))
        run = offline_iterative_coloring(g, 3, seed=seed)
        total += 1
        proper += int(is_proper_coloring(g, run.coloring))

    # offline on planted cliques of mixed sizes
    for seed in range(250):
        clique = (10, 20, 30)[seed % 3]
        g = GraphSpec.parse(f"planted:n=150,clique={clique}").build(rng_for(seed, 5))
        run = offline_iterative_coloring(g, 2, seed=seed)
        total += 1
        proper += int(is_proper_coloring(g, run.coloring))

    # streaming implementation, bipartite, q=2 small verdicts
    for seed in range(250):
        g = bip.build(rng_for(seed, 6))
        stream = to_insertion_stream(g, "shuffled", seed=seed)
        verdict = run_random_order(stream, 2, 3)
        total += 1
        proper += int(
            verdict.label == "small" and is_proper_coloring(g, verdict.coloring)
        )

    # streaming implementation, planted K_8, q=8 small verdicts
    small_clique = GraphSpec.parse("planted:n=100,clique=8")
    for seed in range(250):
        g = small_clique.build(rng_for(seed, 7))
        stream = to_insertion_stream(g, "shuffled", seed=seed)
        verdict = run_random_order(stream, 8, 2)
        total += 1
        proper += int(
            verdict.label == "small" and is_proper_coloring(g, verdict.coloring)
        )

    elapsed = time.time() - start
    ok = total == 1000 and proper >= 995
    _report(8, "coloring-properness", ok, f"{proper}/1000 proper, {elapsed:.1f}s")


def test_criterion_9_determinism_and_formats(tmp_path):
    problems = []
    counter = [0]

    def twice(argv):
        counter[0] += 1
        a = tmp_path / f"out_{counter[0]}_a"
        b = tmp_path / f"out_{counter[0]}_b"
        assert cli_main(argv + ["-o", str(a)]) == 0
        assert cli_main(argv + ["-o", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            problems.append(" ".join(argv))
        return a

    twice(["gen", "basic", "--n", "64", "--k", "2"])
    twice(["gen", "grouped", "--n", "256", "--r", "4", "--k", "2"])
    twice(["gen", "family", "--d", "40", "--w", "8", "--theta", "3",
           "--count", "6", "--seed", "11"])
    twice(["gen", "two-player", "--n", "64", "--k", "2", "--seed", "11"])
    twice(["gen", "recursive", "--p", "3", "--k", "2", "--seed", "11"])
    twice(["gen", "simultaneous", "--k", "4", "--n-base", "10", "--seed", "11"])
    graph_path = twice(["gen", "graph", "--spec", "planted:n=60,clique=12",
                        "--seed", "11"])
    twice(["stream", "shuffle", "--graph", str(graph_path), "--seed", "11"])
    twice(["stream", "dynamic", "--graph", str(graph_path), "--extra-pairs",
           "40", "--cycles", "2", "--seed", "11"])
    stream_path = tmp_path / "s.stream"
    assert cli_main(["stream", "shuffle", "--graph", str(graph_path), "--seed",
                     "11", "-o", str(stream_path)]) == 0
    twice(["run", "random-order", "--stream", str(stream_path), "--q", "2", "--t", "2"])
    twice(["run", "dynamic", "--stream", str(stream_path), "--q", "2", "--t",
           "24", "--seed", "11"])
    twice(["experiment", "shrinkage", "--graph-spec", "gnm:n=60,m=400",
           "--t", "2", "--trials", "5", "--seed", "11"])

    # round trips: graph, cpg, stream
    g = GraphSpec.parse("gnm:n=40,m=120").build(rng_for(5, 0))
    gp = tmp_path / "g.graph"
    write_graph(g, str(gp))
    if read_graph(str(gp)) != g:
        problems.append("graph round trip")

    cpg = construct_lines_basic(64, 2)
    cp = tmp_path / "c.cpg"
    write_cpg(cpg, str(cp))
    back = read_cpg(str(cp))
    if back.graph != cpg.graph or not np.array_equal(back.clusters, cpg.clusters):
        problems.append("cpg round trip")

    stream = to_dynamic_stream(g, extra_pairs=30, cycles=2, seed=5)
    sp = tmp_path / "s2.stream"
    write_stream(stream, str(sp))
    if read_stream(str(sp)) != stream:
        problems.append("stream round trip")

    _report(9, "determinism-and-formats", not problems, "; ".join(problems))


def test_criterion_10_runners_on_hard_instances():
    # each family at its witness bound q: the bit set means chi > q, the bit
    # clear means a witness coloring with q colors exists
    start = time.time()
    cases = (
        ("two-player", 6, lambda seed, bit: gen_two_player(972, 3, seed=seed, ans_override=bit).union_graph()),
        ("recursive", 6, lambda seed, bit: gen_recursive(3, 2, seed=seed, ans_override=bit).union_graph()),
        ("simultaneous", 3, lambda seed, bit: gen_simultaneous(4, 10, seed=seed, theta_override=bit).union_graph()),
    )
    runs, wrong = 0, []
    for name, q, union in cases:
        for seed in range(1, 6):
            for bit in (0, 1):
                g = union(seed, bit)
                stream = to_insertion_stream(g, "shuffled", seed=seed)
                for t in (2, 3):
                    for algo, verdict in (
                        ("random-order", run_random_order(stream, q, t)),
                        ("multipass", run_multipass(stream, q, t, seed=seed)),
                    ):
                        runs += 1
                        right = "large" if bit else "small"
                        if verdict.label != right or (not bit and not is_proper_coloring(g, verdict.coloring)):
                            wrong.append(f"{name} seed={seed} bit={bit} {algo} t={t}: {verdict.label}")
    elapsed = time.time() - start
    ok = not wrong and runs == 120
    _report(10, "runners-on-hard-instances", ok, "; ".join(wrong[:3]) or f"{runs} runs, {elapsed:.1f}s")
