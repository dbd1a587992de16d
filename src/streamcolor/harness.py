"""Experiment harness: graph specs, Monte Carlo trials, result emission.

One master seed per invocation; trial i uses the child generator at path
(master, tag, i), so any single trial can be reproduced without replaying
the rest. Results serialize to canonical JSON (sorted keys) and to CSV with
one row per trial; both carry the identical per-trial records.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .algorithms import default_budget, offline_iterative_coloring
from .algorithms import run_dynamic, run_multipass, run_random_order
from .errors import ArgumentError
from .exact import chromatic_number
from .graph import _INTEGER, Graph, canonical_json, induced_subgraph
from .seeds import child_seed, rng_for
from .streams import to_dynamic_stream, to_insertion_stream


# ---------------------------------------------------------------------------
# graph specs
# ---------------------------------------------------------------------------

# each kind's fields, in the order `GraphSpec.describe` writes them
_SPEC_FIELDS = {
    "gnm": ("n", "m"),
    "planted": ("n", "clique"),
    "bipartite": ("n", "m", "left"),
    "empty": ("n",),
}


@dataclass(frozen=True)
class GraphSpec:
    """Seeded family of test graphs, parsed from ``kind:key=val,...``.

    Kinds: ``gnm`` (uniform n-vertex m-edge), ``planted`` (a clique on
    ``clique`` random vertices, everything else isolated, so chi is known
    exactly), ``bipartite`` (m uniform left-right edges, ``left`` n // 2
    unless given), ``empty``. Each kind takes only its own fields, and the
    constructor checks them; `parse` also takes each at most once, each an
    integer ``[+-]?[0-9]{1,18}`` as in the text formats. gnm sampling takes
    O(n + m) memory: m drawn pair indices map to pairs by their row ends.
    """

    kind: str
    n: int
    m: int = 0
    clique: int = 0
    left: int | None = None  # bipartite: n // 2 when not given

    def __post_init__(self) -> None:
        if self.kind not in _SPEC_FIELDS:
            raise ArgumentError(f"unknown graph-spec kind {self.kind!r}")
        own = _SPEC_FIELDS[self.kind]
        extra = [key for key in ("m", "clique", "left") if getattr(self, key) and key not in own]
        if extra:
            raise ArgumentError(f"{self.kind} spec has no field {extra[0]!r}")
        if self.kind == "bipartite" and self.left is None:
            object.__setattr__(self, "left", self.n // 2)
        negative = [key for key in own if getattr(self, key) < 0]
        if negative:
            raise ArgumentError(f"graph-spec field {negative[0]!r} must be >= 0")
        if self.kind == "gnm" and self.m > self.n * (self.n - 1) // 2:
            raise ArgumentError("m exceeds the pair count")
        if self.kind == "planted" and self.clique > self.n:
            raise ArgumentError("clique size exceeds n")
        if self.kind == "bipartite" and not 0 < self.left < self.n:
            raise ArgumentError("bipartite spec needs 0 < left < n")
        if self.kind == "bipartite" and self.m > self.left * (self.n - self.left):
            raise ArgumentError("m exceeds the bipartite pair count")

    @staticmethod
    def parse(text: str) -> "GraphSpec":
        if ":" not in text:
            raise ArgumentError(f"graph spec {text!r} must look like kind:n=...,m=...")
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        fields: dict[str, int] = {}
        for item in rest.split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise ArgumentError(f"bad graph-spec field {item!r}")
            key, val = item.split("=", 1)
            key = key.strip()
            if key in fields:
                raise ArgumentError(f"graph-spec field {key!r} given twice")
            if not _INTEGER.fullmatch(val.strip()):
                raise ArgumentError(f"graph-spec field {key!r} is not an integer: {val.strip()!r}")
            fields[key] = int(val)
        if kind not in _SPEC_FIELDS:
            raise ArgumentError(f"unknown graph-spec kind {kind!r}")
        unknown = sorted(set(fields) - set(_SPEC_FIELDS[kind]))
        if unknown:
            raise ArgumentError(f"{kind} spec has no field {unknown[0]!r}")
        return GraphSpec(kind, fields.pop("n", 0), **fields)

    def describe(self) -> str:
        fields = ",".join(f"{key}={getattr(self, key)}" for key in _SPEC_FIELDS[self.kind])
        return f"{self.kind}:{fields}"

    @property
    def known_chi(self) -> int | None:
        """Exact chromatic number when the family pins it, else None."""
        if self.kind == "empty":
            return 1 if self.n else 0
        if self.kind == "planted":
            return max(1, self.clique)
        if self.kind == "bipartite":
            return 2 if self.m else 1
        return None

    def build(self, rng: np.random.Generator) -> Graph:
        """One graph of the family, drawn from `rng`.

        Each family writes its endpoints once, into the two rows of one
        ``(2, m)`` buffer, with ``out=`` ufuncs and in-place arithmetic, and
        hands `Graph` its transpose. The buffer is allocated after the draw,
        not beside `rng.choice`'s pool-sized permutation, and the draws are
        deleted before `Graph` allocates its keys. A full-size
        temporary grows the heap past glibc's trim threshold, to be trimmed
        when a trial ends and page-faulted back in by the next. Two hidden
        ones: `np.take` with ``out=`` and the default ``mode="raise"``
        buffers ``out``, hence ``mode="clip"`` on indices already in range;
        and in-place ufuncs between two columns of an ``(m, 2)`` array copy
        an operand, as the columns overlap, where the rows of a ``(2, m)``
        array do not. ``rng.choice(..., shuffle=False)`` would skip the
        permutation, but it draws a different set from the same generator.
        """
        n = self.n
        if self.kind == "empty":
            return Graph(n)
        if self.kind == "planted":
            verts = np.sort(rng.choice(n, size=self.clique, replace=False))
            i, j = np.triu_indices(self.clique, k=1)
            pairs = np.empty((2, len(i)), np.int64)
            np.take(verts, i, out=pairs[0], mode="clip")
            np.take(verts, j, out=pairs[1], mode="clip")
            del i, j
            return Graph(n, pairs.T)
        if self.kind == "bipartite":
            # pick p names (p // right, left + p % right)
            right = n - self.left
            picks = rng.choice(self.left * right, size=self.m, replace=False)
            pairs = np.empty((2, self.m), np.int64)
            u, v = pairs
            np.floor_divide(picks, right, out=u)
            np.multiply(u, right, out=v)
            np.subtract(picks, v, out=v)
            v += self.left
            del picks
            return Graph(n, pairs.T)
        # gnm: row u holds the pairs (u, u+1..n-1), and ends[u] counts the
        # pairs in rows 0..u, so pair index p lies in the row u with
        # ends[u - 1] <= p < ends[u] and names (u, p - ends[u] + n)
        picks = rng.choice(n * (n - 1) // 2, size=self.m, replace=False)
        picks.sort()
        pairs = np.empty((2, self.m), np.int64)
        u, v = pairs
        ends = np.arange(n - 1, -1, -1)
        np.cumsum(ends, out=ends)
        counts = np.searchsorted(picks, ends)
        counts[1:] -= counts[:-1]
        u[:] = np.repeat(np.arange(n), counts)
        np.take(ends, u, out=v, mode="clip")
        np.subtract(picks, v, out=v)
        v += n
        del picks
        return Graph(n, pairs.T)


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    params: dict
    seed: int | None
    records: tuple[dict, ...]  # one per trial
    summary: dict = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
            "trials": self.trials,
            "records": list(self.records),
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        out = io.StringIO()
        keys = sorted({k for rec in self.records for k in rec})
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(keys)
        for rec in self.records:
            writer.writerow([_csv_cell(rec.get(k)) for k in keys])
        return out.getvalue()


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ArgumentError(f"trial count must be >= 0, got {trials}")


def experiment_edge_shrinkage(
    spec: GraphSpec,
    t: int,
    trials: int,
    seed: int | None = None,
    budget_multiplier: float = 1.0,
) -> ExperimentResult:
    """Measure per-round |M_{i+1}|/|M_i| against the n^(-1/t) shrinkage bound.

    Rounds are colored with DSATUR: the shrinkage guarantee quantifies over
    every proper coloring of the sampled subgraph, so any proper choice is a
    valid (indeed adversarial-leaning) probe, and it keeps dense inputs that
    the exact solver could not color tractable.
    """
    if t < 2:
        raise ArgumentError("iteration count t must be >= 2")
    _check_trials(trials)
    default_budget(spec.n, t, budget_multiplier)  # refuses a bad multiplier before any draw
    bound = spec.n ** (-1.0 / t) if spec.n > 1 else 0.0
    records = []
    violations = 0
    iterations = 0
    max_ratio = 0.0
    for trial in range(trials):
        g = spec.build(rng_for(seed, 100, trial))
        run = offline_iterative_coloring(
            g,
            t,
            seed=child_seed(seed, 101, trial),
            colorer="dsatur",
            budget_multiplier=budget_multiplier,
        )
        ratios = []
        for i in range(t):
            prev, nxt = run.m_sizes[i], run.m_sizes[i + 1]
            ratios.append(nxt / prev if prev else 0.0)
        trial_viol = sum(1 for r in ratios if r > bound)
        violations += trial_viol
        iterations += len(ratios)
        max_ratio = max(max_ratio, max(ratios) if ratios else 0.0)
        records.append(
            {
                "trial": trial,
                "m_sizes": list(run.m_sizes),
                "ratios": [round(r, 6) for r in ratios],
                "max_ratio": round(max(ratios) if ratios else 0.0, 6),
                "violations": trial_viol,
            }
        )
    summary = {
        "bound": bound,
        "iterations": iterations,
        "violation_count": violations,
        "violation_fraction": (violations / iterations) if iterations else 0.0,
        "max_ratio": max_ratio,
    }
    return ExperimentResult(
        name="edge-shrinkage",
        params={"graph": spec.describe(), "t": t, "budget_multiplier": budget_multiplier},
        seed=seed,
        records=tuple(records),
        summary=summary if trials else {},
    )


def experiment_vertex_sampling(
    spec: GraphSpec, p: float, trials: int, seed: int | None = None
) -> ExperimentResult:
    """Estimate Pr(chi(H) < (p / 2 ln n) * chi(G) - 1) for vertex-sampled H."""
    if not 0 < p < 1:
        raise ArgumentError("sampling probability p must be in (0, 1)")
    if spec.known_chi is None:
        raise ArgumentError(f"spec {spec.describe()} does not expose a known chi")
    if spec.n < 2:
        raise ArgumentError("need n >= 2")
    _check_trials(trials)
    chi_g = spec.known_chi
    threshold = (p / (2 * math.log(spec.n))) * chi_g - 1
    records = []
    hits = 0
    for trial in range(trials):
        g = spec.build(rng_for(seed, 200, trial))
        rng = rng_for(seed, 201, trial)
        mask = rng.random(spec.n) < p
        verts = np.flatnonzero(mask)
        h = induced_subgraph(g, verts)
        chi_h = chromatic_number(h)
        indicator = chi_h < threshold
        hits += int(indicator)
        records.append(
            {
                "trial": trial,
                "sampled_vertices": len(verts),
                "chi_subgraph": chi_h,
                "below_threshold": int(indicator),
            }
        )
    lo, hi = wilson_interval(hits, trials)
    summary = {
        "chi_full": chi_g,
        "threshold": threshold,
        "empirical_probability": hits / trials if trials else 0.0,
        "wilson_low": lo,
        "wilson_high": hi,
    }
    return ExperimentResult(
        name="vertex-sampling",
        params={"graph": spec.describe(), "p": p},
        seed=seed,
        records=tuple(records),
        summary=summary if trials else {},
    )


def experiment_distinguisher(
    algorithm: str,
    small_spec: GraphSpec,
    large_spec: GraphSpec,
    q: int,
    t: int,
    trials: int,
    seed: int | None = None,
    extra_pairs: int = 0,
    cycles: int = 1,
) -> ExperimentResult:
    """Success rates of a runner on a (chi <= q, chi large) instance pair.

    `extra_pairs` and `cycles` set the dynamic streams' churn; any other
    algorithm reads insertion streams and refuses values off their defaults.
    """
    if algorithm not in ("random-order", "multipass", "dynamic"):
        raise ArgumentError(f"unknown algorithm {algorithm!r}")
    if algorithm != "dynamic" and (extra_pairs, cycles) != (0, 1):
        raise ArgumentError(f"churn (extra_pairs, cycles) applies to dynamic, not {algorithm}")
    _check_trials(trials)
    records = []
    small_ok = 0
    large_ok = 0
    for trial in range(trials):
        small_g = small_spec.build(rng_for(seed, 300, trial))
        large_g = large_spec.build(rng_for(seed, 301, trial))
        verdicts = {}
        for side, g in (("small", small_g), ("large", large_g)):
            tag = 302 if side == "small" else 303
            if algorithm == "random-order":
                stream = to_insertion_stream(g, "shuffled", seed=child_seed(seed, tag, trial))
                verdict = run_random_order(stream, q, t)
            elif algorithm == "multipass":
                stream = to_insertion_stream(g, "as-given")
                verdict = run_multipass(stream, q, t, seed=child_seed(seed, tag, trial))
            else:
                stream = to_dynamic_stream(
                    g, extra_pairs=extra_pairs, cycles=cycles, seed=child_seed(seed, tag, trial)
                )
                verdict = run_dynamic(stream, q, t, seed=child_seed(seed, tag + 2, trial))
            verdicts[side] = verdict.label
        small_hit = verdicts["small"] == "small"
        large_hit = verdicts["large"] == "large"
        small_ok += int(small_hit)
        large_ok += int(large_hit)
        records.append(
            {
                "trial": trial,
                "small_verdict": verdicts["small"],
                "large_verdict": verdicts["large"],
                "small_correct": int(small_hit),
                "large_correct": int(large_hit),
            }
        )
    summary = {}
    if trials:
        slo, shi = wilson_interval(small_ok, trials)
        llo, lhi = wilson_interval(large_ok, trials)
        summary = {
            "small_success_rate": small_ok / trials,
            "small_wilson": [slo, shi],
            "large_success_rate": large_ok / trials,
            "large_wilson": [llo, lhi],
        }
    return ExperimentResult(
        name="distinguisher",
        params={
            "algorithm": algorithm,
            "small": small_spec.describe(),
            "large": large_spec.describe(),
            "q": q,
            "t": t,
            "extra_pairs": extra_pairs,
            "cycles": cycles,
        },
        seed=seed,
        records=tuple(records),
        summary=summary,
    )
