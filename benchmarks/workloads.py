"""The four benchmark workloads: one Monte Carlo trial each, plus its check.

A trial builds its graphs, streams and verdicts through the public
``streamcolor`` API; it is the part the benchmark times. ``check`` runs
after the timer stops and judges the trial's outputs without the solver
that produced them: edge arrays are tested in numpy, odd cycles with
networkx, and the CLI's files are parsed by this module's own readers.

Trial ``i`` of a run with workload seed ``s`` derives every seed it uses
from ``(s, i, tag)``, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

import streamcolor as sc
from streamcolor import cli

# A workload's sizes live in one dict so the coverage self-check can run the
# same code paths on tiny inputs.
FULL = "full"
TINY = "tiny"


def derive_seed(seed: int, trial: int, tag: int) -> int:
    """A 32-bit seed for consumer `tag` of trial `trial` under `seed`."""
    ss = np.random.SeedSequence([int(seed), int(trial), int(tag)])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def spec_rng(seed: int, trial: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, trial, tag))


def budget(n: int, t: int) -> int:
    """ceil(n^(1+1/t) ln n), the per-round edge budget of the paper."""
    return max(1, math.ceil(n ** (1 + 1 / t) * math.log(n))) if n > 1 else 1


@dataclass
class Outcome:
    """What the check of one trial found."""

    problems: list[str] = field(default_factory=list)
    peak_stored: int = 0
    large_sides: int = 0
    large_detected: int = 0
    shrink_rounds: int = 0
    shrink_violations: int = 0


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def edge_array(edges) -> np.ndarray:
    arr = np.array(sorted(edges), dtype=np.int64)
    return arr.reshape(-1, 2)


def check_small(edges: np.ndarray, colors: np.ndarray, what: str, out: Outcome) -> None:
    """Every input edge must be bichromatic under the verdict's coloring."""
    colors = np.asarray(colors)
    if edges.size and edges.max() >= colors.shape[0]:
        out.problems.append(f"{what}: coloring shorter than the vertex range")
        return
    bad = int(np.count_nonzero(colors[edges[:, 0]] == colors[edges[:, 1]]))
    if bad:
        out.problems.append(f"{what}: {bad} monochromatic input edges")


def check_large(edges: np.ndarray, evidence: np.ndarray, what: str, out: Outcome) -> None:
    """Evidence must be a subgraph of the input and not bipartite (chi > 2)."""
    if evidence.size == 0:
        out.problems.append(f"{what}: 'large' with empty evidence")
        return
    lo = np.minimum(evidence[:, 0], evidence[:, 1])
    hi = np.maximum(evidence[:, 0], evidence[:, 1])
    n = int(max(edges.max(initial=0), hi.max())) + 1
    inside = np.isin(lo * n + hi, edges[:, 0] * n + edges[:, 1])
    if not inside.all():
        out.problems.append(f"{what}: {int((~inside).sum())} evidence edges not in input")
    h = nx.Graph()
    h.add_edges_from(zip(lo.tolist(), hi.tolist()))
    if nx.is_bipartite(h):
        out.problems.append(f"{what}: 'large' evidence is bipartite")


def check_verdict(verdict, edges: np.ndarray, side: str, what: str, out: Outcome) -> None:
    """Judge one library verdict against its input edge list."""
    if verdict.label == "large":
        check_large(edges, edge_array(verdict.evidence.subgraph.edges), what, out)
    elif verdict.label != "small":
        out.problems.append(f"{what}: unknown label {verdict.label!r}")
    elif verdict.coloring is not None:
        check_small(edges, verdict.coloring.colors, what, out)
    if side == "small" and verdict.label != "small":
        out.problems.append(f"{what}: chi <= q input answered {verdict.label!r}")
    if side == "large":
        out.large_sides += 1
        out.large_detected += verdict.label == "large"


def read_edge_file(path: str, columns: int) -> tuple[int, np.ndarray]:
    """Header ``n=<N>`` plus integer rows, parsed without the library."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        rows = [line.split() for line in f if line.strip()]
    n = next(int(tok[2:]) for tok in header if tok.startswith("n="))
    if any(len(r) != columns for r in rows):
        raise ValueError(f"{path}: expected {columns} columns")
    arr = np.array([[int(x) for x in r] for r in rows], dtype=np.int64).reshape(-1, columns)
    return n, arr


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class InsertionQ2:
    """q=2 one-sided path: random-order and multi-pass runners on both sides."""

    name = "insertion-q2"
    SIZES = {
        FULL: {"small": "bipartite:n=200,m=8000", "large": "gnm:n=200,m=8000"},
        TINY: {"small": "bipartite:n=40,m=150", "large": "gnm:n=40,m=300"},
    }

    def __init__(self, size: str = FULL):
        self.specs = {side: sc.GraphSpec.parse(s) for side, s in self.SIZES[size].items()}

    def trial(self, seed: int, i: int):
        sides = []
        for tag, side in enumerate(("small", "large")):
            g = self.specs[side].build(spec_rng(seed, i, 10 + tag))
            stream = sc.to_insertion_stream(g, "shuffled", seed=derive_seed(seed, i, 20 + tag))
            ro = sc.run_random_order(stream, q=2, t=3)
            mp = sc.run_multipass(stream, q=2, t=3, seed=derive_seed(seed, i, 30 + tag))
            sides.append((side, g, ro, mp))
        return sides

    def check(self, sides) -> Outcome:
        out = Outcome()
        for side, g, ro, mp in sides:
            edges = edge_array(g.edges)
            for label, verdict in (("random-order", ro), ("multipass", mp)):
                check_verdict(verdict, edges, side, f"{side}/{label}", out)
                out.peak_stored = max(out.peak_stored, verdict.metadata["peak_stored_edges"])
        return out


class DynamicChurn:
    """Dynamic runner over churned streams; its per-event counter loop dominates."""

    name = "dynamic-churn"
    SIZES = {
        FULL: {
            "small": ("bipartite:n=200,m=5000", 100, 1),
            "large": ("planted:n=256,clique=64", 500, 2),
        },
        TINY: {
            "small": ("bipartite:n=40,m=150", 10, 1),
            "large": ("planted:n=48,clique=16", 20, 2),
        },
    }

    def __init__(self, size: str = FULL):
        self.sides = {
            side: (sc.GraphSpec.parse(spec), pairs, cycles)
            for side, (spec, pairs, cycles) in self.SIZES[size].items()
        }

    def trial(self, seed: int, i: int):
        sides = []
        for tag, (side, (spec, pairs, cycles)) in enumerate(self.sides.items()):
            g = spec.build(spec_rng(seed, i, 10 + tag))
            stream = sc.to_dynamic_stream(
                g, extra_pairs=pairs, cycles=cycles, seed=derive_seed(seed, i, 20 + tag)
            )
            verdict = sc.run_dynamic(stream, q=2, t=32, seed=derive_seed(seed, i, 30 + tag))
            sides.append((side, g, verdict))
        return sides

    def check(self, sides) -> Outcome:
        out = Outcome()
        for side, g, verdict in sides:
            # the stream's final graph is g, so evidence must lie inside g
            check_verdict(verdict, edge_array(g.edges), side, f"{side}/dynamic", out)
            if verdict.metadata.get("mode") != "sampled":
                out.problems.append(f"{side}: runner left the sampled regime")
            out.peak_stored = max(out.peak_stored, verdict.metadata.get("counters", 0))
        return out


class OfflineDense:
    """One edge-shrinkage harness trial: no stream, DSATUR rounds."""

    name = "offline-dense"
    T = 2
    SIZES = {FULL: "gnm:n=300,m=20000", TINY: "gnm:n=60,m=600"}

    def __init__(self, size: str = FULL):
        self.spec = sc.GraphSpec.parse(self.SIZES[size])

    def trial(self, seed: int, i: int):
        return sc.experiment_edge_shrinkage(
            self.spec, self.T, trials=1, seed=derive_seed(seed, i, 10)
        )

    def check(self, result) -> Outcome:
        out = Outcome()
        n, t = self.spec.n, self.T
        if result.trials != 1 or len(result.records) != 1:
            out.problems.append("expected exactly one shrinkage record")
            return out
        sizes = result.records[0]["m_sizes"]
        if len(sizes) != t + 1 or sizes[0] != self.spec.m:
            out.problems.append(f"m_sizes {sizes} do not start at m={self.spec.m}")
            return out
        if any(b > a for a, b in zip(sizes, sizes[1:])):
            out.problems.append(f"monochromatic sets grew: {sizes}")
        bound = n ** (-1.0 / t)
        ratios = [b / a if a else 0.0 for a, b in zip(sizes, sizes[1:])]
        violations = sum(r > bound for r in ratios)
        if violations != result.records[0]["violations"]:
            out.problems.append("reported violations disagree with m_sizes")
        out.shrink_rounds += len(ratios)
        out.shrink_violations += violations
        out.peak_stored = max(min(m, budget(n, t)) for m in sizes[:t])
        return out


class CliRoundtrip:
    """In-process CLI: gen graph, shuffle, random-order run, vertex sampling."""

    name = "cli-roundtrip"
    SIZES = {
        FULL: {"graph": "bipartite:n=200,m=8000", "planted": "planted:n=100,clique=40", "trials": 10},
        TINY: {"graph": "bipartite:n=40,m=150", "planted": "planted:n=30,clique=12", "trials": 2},
    }

    def __init__(self, size: str = FULL, *, workdir: str):
        self.sizes = self.SIZES[size]
        self.workdir = workdir

    def _paths(self, i: int) -> dict[str, str]:
        return {
            ext: os.path.join(self.workdir, f"t{i}.{ext}")
            for ext in ("graph", "stream", "verdict", "experiment")
        }

    def trial(self, seed: int, i: int):
        p = self._paths(i)
        s = [str(derive_seed(seed, i, tag)) for tag in (10, 20, 30)]
        argvs = [
            ["gen", "graph", "--spec", self.sizes["graph"], "--seed", s[0], "-o", p["graph"]],
            ["stream", "shuffle", "--graph", p["graph"], "--seed", s[1], "-o", p["stream"]],
            ["run", "random-order", "--stream", p["stream"], "--q", "2", "--t", "3",
             "-o", p["verdict"]],
            ["experiment", "vertex-sampling", "--graph-spec", self.sizes["planted"],
             "--p", "0.5", "--trials", str(self.sizes["trials"]), "--seed", s[2],
             "-o", p["experiment"]],
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes = [cli.main(argv) for argv in argvs]
        return i, codes, sink.getvalue()

    def check(self, result) -> Outcome:
        i, codes, text = result
        out = Outcome()
        p = self._paths(i)
        try:
            if codes != [0, 0, 0, 0]:
                out.problems.append(f"exit codes {codes}: {text.strip()[:200]}")
                return out
            n, edges = read_edge_file(p["graph"], 2)
            sn, events = read_edge_file(p["stream"], 3)
            keys = np.sort(edges[:, 0] * n + edges[:, 1])
            ekeys = np.sort(np.minimum(events[:, 0], events[:, 1]) * n
                            + np.maximum(events[:, 0], events[:, 1]))
            if sn != n or not np.array_equal(keys, ekeys) or not (events[:, 2] == 1).all():
                out.problems.append("stream file is not a permutation of the graph file")
            with open(p["verdict"], encoding="utf-8") as f:
                verdict = json.load(f)
            if verdict["label"] != "small":
                out.problems.append(f"bipartite graph answered {verdict['label']!r}")
            else:
                check_small(edges, np.array(verdict["colors"]), "cli verdict", out)
            out.peak_stored = int(verdict["metadata"]["peak_stored_edges"])
            with open(p["experiment"], encoding="utf-8") as f:
                exp = json.load(f)
            trials = self.sizes["trials"]
            clique = sc.GraphSpec.parse(self.sizes["planted"]).clique
            records = exp["records"]
            if exp["trials"] != trials or [r["trial"] for r in records] != list(range(trials)):
                out.problems.append("experiment JSON lacks one record per trial")
            elif any(not 1 <= r["chi_subgraph"] <= clique for r in records):
                out.problems.append("sampled chi outside [1, clique]")
        finally:
            for path in p.values():
                if os.path.exists(path):
                    os.remove(path)
        return out


WORKLOADS = {w.name: w for w in (InsertionQ2, DynamicChurn, OfflineDense, CliRoundtrip)}
