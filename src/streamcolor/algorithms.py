"""Streaming coloring algorithms: iterative sparsification and sampling.

All three runners read a pass as the stream's ``(m, 3)`` event array, in
stream order, with array operations and no per-event Python loop; the
multi-pass runner gets each pass from a `StreamSource`. The dynamic runner
needs one pair-level pass, not one per trial: a trial sees either every
event of a pair or none, so each trial's signed counter for a pair equals
the pair's delta sum over the whole stream (`Stream.pair_totals`, kept from
validation). A vertex's trials are the bits of one uint64 word, so a pair's
trials are one AND of two words, and one 2-coloring of the trials' union
decides every trial when it succeeds. The offline coloring and both
insertion runners share one round loop and differ only in how a round
stores its edges. All three runners answer the q vs large distinguishing
problem with a one-sided "large": whenever they say "large" they hold a
stored subgraph of the input whose chromatic number exceeds q, and an
insertion runner says "small" only with a proper coloring of the input;
when its rounds end before every monochromatic edge was colored it says
"inconclusive" and carries no coloring. Per-round chromatic numbers are
computed with the exact solver capped at q, which never changes a verdict
but avoids searching above the cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .exact import color_with_cap, dsatur_coloring
from .graph import Coloring, Graph, monochromatic_edges, product_coloring, uniform_coloring
from .seeds import rng_for
from .streams import INSERTION, Stream, StreamSource


def default_budget(n: int, t: int, multiplier: float = 1.0) -> int:
    """Per-round edge budget ceil(n^(1+1/t) * ln n) with a tuning multiplier."""
    if not (math.isfinite(multiplier) and multiplier > 0):
        raise ArgumentError(f"budget multiplier must be finite and > 0, got {multiplier}")
    if n <= 1:
        return 1
    return max(1, math.ceil(n ** (1 + 1 / t) * math.log(n) * multiplier))


@dataclass(frozen=True)
class Evidence:
    """What certifies a 'large' verdict: a stored subgraph with chi > q."""

    kind: str  # "round" | "trial" | "final"
    index: int
    subgraph: Graph


@dataclass(frozen=True)
class Verdict:
    label: str  # "small" | "large" | "inconclusive"
    coloring: Coloring | None = None
    evidence: Evidence | None = None
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OfflineColoringRun:
    """Output of the offline iterative-sparsification coloring.

    ``m_sizes`` holds |M_1| .. |M_{t+1}|: the monochromatic-edge counts
    before each round and after the last.
    """

    coloring: Coloring
    m_sizes: tuple[int, ...]
    round_colors: tuple[int, ...]
    budget: int


def _sparsify(n: int, t: int, color, store) -> tuple[Coloring | None, Evidence | None, list[int]]:
    """Rounds 1..t: ``store(coloring)`` gives the graph of the rows kept of
    M_i (None ends the run), ``color`` colors it and the coloring is refined;
    a round that `color` refuses (None) ends the run with its graph as
    evidence. Returns the coloring (None after a refused round), the
    evidence and each round's color count."""
    coloring = uniform_coloring(n)
    round_colors: list[int] = []
    for i in range(1, t + 1):
        h = store(coloring)
        if h is None:
            break
        ci = color(h)
        if ci is None:
            return None, Evidence("round", i, h), round_colors
        round_colors.append(max(ci.num_colors, 1))
        coloring = product_coloring(coloring, ci)
    return coloring, None, round_colors


def _verdict(
    meta: dict, evidence: Evidence | None = None, coloring: Coloring | None = None
) -> Verdict:
    """A runner's verdict: "large" exactly when it holds evidence."""
    return Verdict("small" if evidence is None else "large", coloring, evidence, meta)


def offline_iterative_coloring(
    g: Graph,
    t: int,
    seed: int | None = None,
    colorer: str = "exact",
    budget_multiplier: float = 1.0,
) -> OfflineColoringRun:
    """t rounds of: sample a budget of monochromatic edges, color, refine.

    Each round samples without replacement from the currently monochromatic
    edges (all of them when they fit the budget), colors the sample with the
    exact solver (or DSATUR when ``colorer="dsatur"``; any proper coloring
    keeps the shrinkage guarantee), and intersects. Returns the product
    coloring, whose monochromatic edges in `g` are exactly M_{t+1}.
    """
    if t < 2:
        raise ArgumentError("iteration count t must be >= 2")
    if colorer not in ("exact", "dsatur"):
        raise ArgumentError(f"unknown colorer {colorer!r}")
    budget = default_budget(g.n, t, budget_multiplier)
    rng = rng_for(seed, 41)
    current = g.edge_array()  # M_1; each later M_i refines M_{i-1}, not all of g
    m_sizes: list[int] = []

    def store(coloring: Coloring) -> Graph:
        nonlocal current
        if m_sizes:  # M_{i-1} is monochromatic under every round before i - 1
            current = monochromatic_edges(current, coloring)
        m_sizes.append(current.shape[0])
        if current.shape[0] > budget:
            picked = np.sort(rng.choice(current.shape[0], size=budget, replace=False))
            return Graph(g.n, current.take(picked, axis=0))
        return g if len(m_sizes) == 1 else Graph(g.n, current)  # M_1 is all of g

    color = color_with_cap if colorer == "exact" else dsatur_coloring
    coloring, _, round_colors = _sparsify(g.n, t, color, store)
    m_sizes.append(monochromatic_edges(current, coloring).shape[0])
    return OfflineColoringRun(coloring, tuple(m_sizes), tuple(round_colors), budget)


def run_random_order(
    stream: Stream, q: int, t: int, budget_multiplier: float = 1.0
) -> Verdict:
    """Single pass over an insertion stream with t fill-and-color rounds.

    Round i stores edges monochromatic under the accumulated coloring until
    the budget fills (or the stream ends), then colors them; the verdict is
    "large" the moment a stored round needs more than q colors, with the
    stored subgraph as evidence. When round t ends before the stream does,
    the unread edges may be monochromatic and the verdict is "inconclusive".
    Deterministic given the stream.
    """
    if stream.model != INSERTION:
        raise ArgumentError("run_random_order needs an insertion-only stream")
    if q < 2 or t < 2:
        raise ArgumentError("need q >= 2 and t >= 2")
    n, events = stream.n, stream.events
    budget = default_budget(n, t, budget_multiplier)
    meta = {"budget": budget, "rounds_used": 0, "events_read": 0,
            "peak_stored_edges": 0, "stream_exhausted": False}

    def store(coloring: Coloring) -> Graph | None:
        if meta["stream_exhausted"]:
            return None
        rest = events[meta["events_read"]:]
        mono = np.flatnonzero(coloring.colors[rest[:, 0]] == coloring.colors[rest[:, 1]])
        if len(mono) >= budget:  # the budget fills at the budget-th hit
            mono = mono[:budget]
            meta["events_read"] += int(mono[-1]) + 1
        else:
            meta["events_read"] += len(rest)
            meta["stream_exhausted"] = True
        meta["rounds_used"] += 1
        meta["peak_stored_edges"] = max(meta["peak_stored_edges"], len(mono))
        return Graph(n, rest.take(mono, axis=0)[:, :2])

    coloring, evidence, _ = _sparsify(n, t, functools.partial(color_with_cap, cap=q), store)
    if evidence is None and meta["events_read"] < len(events):
        return Verdict("inconclusive", metadata=meta)
    return _verdict(meta, evidence, coloring)


def run_multipass(
    source: Stream | StreamSource,
    q: int,
    t: int,
    seed: int | None = None,
    budget_multiplier: float = 1.0,
) -> Verdict:
    """t passes over an adversarial-order insertion stream.

    Pass i reservoir-samples the budget uniformly from the edges that are
    monochromatic under the accumulated coloring; verdict semantics match
    `run_random_order`. Stops early once a pass sees no more monochromatic
    edges than the budget (the remaining passes could not change anything).
    When pass t saw more, the edges it left out may be monochromatic and the
    verdict is "inconclusive".
    """
    if isinstance(source, Stream):
        source = StreamSource(source, max_passes=t)
    if source.stream.model != INSERTION:
        raise ArgumentError("run_multipass needs an insertion-only stream")
    if q < 2 or t < 2:
        raise ArgumentError("need q >= 2 and t >= 2")
    n = source.stream.n
    budget = default_budget(n, t, budget_multiplier)
    rng = rng_for(seed, 42)
    meta = {"budget": budget, "passes_used": 0, "peak_stored_edges": 0}
    more = True  # False once a pass stored all of M_i, so M_{i+1} is empty

    def store(coloring: Coloring) -> Graph | None:
        nonlocal more
        if not more:
            return None
        events = source.open()  # PassLimitError propagates to the caller
        meta["passes_used"] += 1
        mono = np.flatnonzero(coloring.colors[events[:, 0]] == coloring.colors[events[:, 1]])
        mono_seen = len(mono)
        reservoir = mono[:budget]
        if mono_seen > budget:
            # Algorithm R: the k-th hit (k > budget) replaces slot j ~ U[0, k)
            # when j < budget; one array draw equals the per-hit scalar draws
            j = rng.integers(0, np.arange(budget + 1, mono_seen + 1))
            hit = np.flatnonzero(j < budget)
            latest = np.full(budget, -1)
            np.maximum.at(latest, j[hit], hit)  # the latest hit per slot wins
            slots = np.flatnonzero(latest >= 0)
            reservoir[slots] = mono[budget + latest[slots]]
        meta["peak_stored_edges"] = max(meta["peak_stored_edges"], len(reservoir))
        more = mono_seen > budget
        return Graph(n, events.take(reservoir, axis=0)[:, :2])

    coloring, evidence, _ = _sparsify(n, t, functools.partial(color_with_cap, cap=q), store)
    if evidence is None and more:
        return Verdict("inconclusive", metadata=meta)
    return _verdict(meta, evidence, coloring)


def _bit_count(words: np.ndarray) -> int:
    """The number of set bits in a uint64 array, summed within each word
    (SWAR), so every temporary is the size of `words`. Unpacking the bits
    would take 64 bytes a word: 326 KB at 5,100 pairs, which most processes
    page in afresh on every call."""
    m1, m2, m4, ones = (np.uint64(0x5555555555555555), np.uint64(0x3333333333333333),
                        np.uint64(0x0F0F0F0F0F0F0F0F), np.uint64(0x0101010101010101))
    x = words - ((words >> np.uint64(1)) & m1)  # each 2 bits hold their own count
    x = (x & m2) + ((x >> np.uint64(2)) & m2)  # each 4 bits
    x = (x + (x >> np.uint64(4))) & m4  # each byte
    return int(((x * ones) >> np.uint64(56)).sum())  # the top byte sums the bytes


def run_dynamic(stream: Stream, q: int, t: int, seed: int | None = None) -> Verdict:
    """Dynamic-stream distinguisher via random vertex-induced subgraphs.

    Samples 2*log2(n) trial vertex sets up front with per-vertex probability
    p = 4 ln(n) / t; each trial keeps one signed counter per pair inside its
    vertex set (desk-scale multiplicities never approach overflow, so no
    modular trick is needed) and at stream end rebuilds its induced subgraph
    from the positive counters; "large" iff some trial subgraph needs more
    than q colors. Below the t >= 4 log2(n) regime the runner stores the
    whole multigraph instead (flagged in the metadata).

    Whether a trial sees an event depends only on the event's pair, so a
    trial's counter for a pair it sees ends at that pair's delta sum over
    the whole stream. One `pair_totals` pass, kept from the stream's
    validation, therefore gives every trial's counters, and the fallback's
    final graph, at once. Bit tr of a vertex's uint64 word says trial tr
    sampled it (k_trials <= 63 for every n the graph layer takes), so the
    AND of a pair's two words holds the trials that see the pair.
    ``counters`` in the metadata, the popcount total of those words, still
    counts per-trial counters (a pair seen by three trials counts three
    times), which is the space the paper charges. Every trial graph is a
    subgraph of the trials' union, the pairs of positive total whose word is
    not zero, so when the union 2-colors the verdict is "small" without
    coloring any trial; otherwise the first trial needing more than q colors
    is the evidence.
    """
    if q < 2 or t < 1:
        raise ArgumentError("need q >= 2 and t >= 1")
    n = stream.n
    if n <= 1:
        return _verdict({"mode": "degenerate"})
    regime_floor = 4 * math.log2(n)
    if t < regime_floor:
        final = stream.final_graph()
        meta = {
            "mode": "full-graph-fallback",
            "regime_floor": regime_floor,
            "stored_pairs": final.num_edges,
        }
        if color_with_cap(final, q) is None:
            return _verdict(meta, Evidence("final", 0, final))
        return _verdict(meta)

    p = 4.0 * math.log(n) / t
    k_trials = math.ceil(2 * math.log2(n))
    rng = rng_for(seed, 43)
    member = rng.random((k_trials, n)) < p
    # n <= MAX_VERTICES < 2^31.5 keeps k_trials <= 63: one uint64 per vertex
    packed = np.zeros((n, 8), np.uint8)
    packed[:, : (k_trials + 7) // 8] = np.packbits(member, axis=0, bitorder="little").T
    word = packed.view("<u8")[:, 0]
    pairs, totals = stream.pair_totals()
    # bit tr of seen[i]: trial tr holds a counter for distinct pair i
    seen = word[pairs[:, 0]] & word[pairs[:, 1]]
    meta = {
        "mode": "sampled",
        "p": p,
        "k_trials": k_trials,
        "sampled_sizes": member.sum(axis=1).tolist(),
        "counters": _bit_count(seen),
    }
    kept = np.where(totals > 0, seen, np.uint64(0))
    if color_with_cap(Graph(n, pairs.compress(kept != 0, axis=0)), 2) is not None:
        return _verdict(meta)
    for tr in range(k_trials):
        h = Graph(n, pairs.compress((kept & np.uint64(1 << tr)) != 0, axis=0))
        if color_with_cap(h, q) is None:
            return _verdict(meta, Evidence("trial", tr, h))
    return _verdict(meta)
