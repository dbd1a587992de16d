"""Edge streams: columnar event arrays, builders, serialization, pass control.

A stream is one ``(m, 3)`` int64 array of ``(u, v, delta)`` rows with
``u < v``. Streams are materialized in memory at desk scale; the runners
read each pass as that read-only event array, in stream order, with array
operations. Multi-pass runners must go through `StreamSource`, which meters
passes explicitly. Every stream, built or read, is checked once, by
`Stream._validate`, which names the earliest event at fault; `read_stream`
reports that event at its file line. Each pair question has one routine:
`graph.repeats` finds the events that repeat an earlier pair, and
`_running_sums` sums each pair's deltas for a dynamic stream's validation.
Both order the pair keys by `graph.stable_order`, one plain sort of packed
``key * m + index`` values where they fit in int64. Delta checks are
compares, and churn sampling looks its draws up among the sorted taken keys
with `graph.find_keys`, so no pass hashes. An insertion stream carries each
pair once, so its pairs are its final graph's edges.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import ArgumentError, FormatError, PassLimitError, StreamValidationError
from .graph import MAX_VERTICES, Graph, Rows, find_keys, format_rows, header_int, int_rows
from .graph import first_fault, read_header, repeats, stable_order
from .seeds import rng_for

INSERTION = "ins"
DYNAMIC = "dyn"


class Stream:
    """Immutable event sequence over vertices [0, n).

    ``events`` is a read-only ``(m, 3)`` int64 array of ``(u, v, delta)``
    rows, each pair normalized to ``u < v``. The constructor takes such an
    array or a sequence of ``(u, v, delta)`` triples in either endpoint
    order. Insertion-only streams carry only +1 events with no repeated
    pair; dynamic streams additionally allow deletions, with every prefix
    keeping all multiplicities non-negative. `pair_totals` serves the pair
    sums: a dynamic stream's from its validation, an insertion stream's from
    its final graph, which `final_graph` builds once.
    """

    def __init__(self, n: int, model: str, events):
        if model not in (INSERTION, DYNAMIC):
            raise ArgumentError(f"unknown stream model {model!r}")
        if not 0 <= n <= MAX_VERTICES:
            raise ArgumentError(f"vertex count must be in [0, {MAX_VERTICES}]")
        self.n = int(n)
        self.model = model
        u, v, delta = int_rows(events, 3, "events").T
        if np.any(u == v):
            raise ArgumentError(f"self-loop on vertex {u[u == v][0]}")
        self.events = np.column_stack((np.minimum(u, v), np.maximum(u, v), delta))
        self.events.flags.writeable = False
        self._totals: tuple[np.ndarray, np.ndarray] | None = None
        self._final: Graph | None = None
        self._validate()

    def _validate(self) -> None:
        """Delta, range and multiplicity checks as array passes; the earliest
        event at fault is named, and on one event the first check wins.

        Deltas and ranges are compares. An insertion stream takes one plain
        sort, and `graph.repeats` only if that finds a repeated pair. A
        dynamic stream takes the one multiplicity pass, a `graph.stable_order`
        of the pair keys and a per-pair running sum, which keeps each pair's
        final sum as its pair totals.
        """
        u, v, delta = self.events.T
        if self.model == INSERTION:
            allowed, bad = (1,), delta != 1
        else:
            allowed, bad = (1, -1), np.abs(delta) != 1
        checks = [
            (bad, "{model} stream carries delta {delta}; allowed: {allowed}"),
            ((u < 0) | (v >= self.n), "pair out of range for n={n}"),
        ]
        key = u * self.n + v
        if self.model == INSERTION:
            ordered = np.sort(key)
            if (ordered[1:] == ordered[:-1]).any():
                checks.append((repeats(key), "pair inserted twice"))
        else:
            order, first, running = _running_sums(key, delta)
            wrong = running < 0
            if wrong.any():
                overdrawn = np.zeros(len(key), dtype=bool)
                overdrawn[order] = wrong
                checks.append((overdrawn, "pair deleted more than inserted"))
        # a key shared by distinct pairs has an out-of-range event at or
        # before any multiplicity fault it causes, and that event is named
        i, rule = first_fault(checks, len(key))
        if i < len(key):
            rule = rule.format(model=self.model, delta=delta[i], allowed=allowed, n=self.n)
            raise StreamValidationError(rule, i, (int(u[i]), int(v[i])))
        if self.model == DYNAMIC:
            # first[0] is always set, so `first` rolled left by one marks each pair's last event
            pairs = self.events.take(order[first], axis=0)[:, :2]
            self._totals = _read_only(pairs, running[np.roll(first, -1)])

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return zip(*self.events.T.tolist())

    def pair_totals(self) -> tuple[np.ndarray, np.ndarray]:
        """Each distinct pair in key order and its int64 delta sum, read-only;
        an insertion stream's are its final graph's edges, with sum 1, built once."""
        if self._totals is None:
            pairs = self.final_graph().edge_array()
            self._totals = _read_only(pairs, np.ones(len(pairs), np.int64))
        return self._totals

    def final_graph(self) -> Graph:
        """The simple graph left after every event, built once: pairs whose
        deltas sum above 0, or an insertion stream's event pairs."""
        if self._final is None:
            if self.model == INSERTION:
                self._final = Graph(self.n, self.events[:, :2])
            else:
                pairs, totals = self.pair_totals()
                self._final = Graph(self.n, pairs.compress(totals > 0, axis=0))
        return self._final

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Stream)
            and self.n == other.n
            and self.model == other.model
            and np.array_equal(self.events, other.events)
        )


def _running_sums(key: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, ...]:
    """The events in `graph.stable_order` of their pair keys, True at each
    pair's first event in that order, and each event's running delta sum
    over its pair's events up to it."""
    order = stable_order(key)
    key, d = key[order], delta[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    running = np.cumsum(d)
    running -= (running - d)[first][np.cumsum(first) - 1]
    return order, first, running


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


class StreamSource:
    """Metered access to repeated passes over one stream."""

    def __init__(self, stream: Stream, max_passes: int | None = None):
        self.stream = stream
        self.max_passes = max_passes
        self.passes_opened = 0

    def open(self) -> np.ndarray:
        """Start one pass: the stream's read-only ``(m, 3)`` event array."""
        if self.max_passes is not None and self.passes_opened >= self.max_passes:
            raise PassLimitError(
                f"source allows {self.max_passes} passes; another was requested"
            )
        self.passes_opened += 1
        return self.stream.events


def to_insertion_stream(
    g: Graph, order: str = "as-given", seed: int | None = None
) -> Stream:
    """One +1 event per edge, in sorted-edge order or a seeded shuffle."""
    edges = g.edge_array()
    if order == "shuffled":
        edges = edges.take(rng_for(seed, 1).permutation(len(edges)), axis=0)
    elif order != "as-given":
        raise ArgumentError(f"unknown order {order!r}")
    return Stream(g.n, INSERTION, np.column_stack((edges, np.ones(len(edges), np.int64))))


def to_dynamic_stream(
    g: Graph, extra_pairs: int = 0, cycles: int = 1, seed: int | None = None
) -> Stream:
    """A dynamic stream whose final graph equals `g`.

    Churn: `extra_pairs` non-edges each get `cycles` insert/delete rounds
    interleaved into the stream by one permutation; a churn pair's events
    alternate +1 and -1 in stream order, so every prefix stays non-negative.
    """
    if extra_pairs < 0 or cycles < 0:
        raise ArgumentError("churn parameters must be >= 0")
    rng = rng_for(seed, 2)
    churn = np.empty((0, 2), np.int64)
    if extra_pairs and cycles:
        churn = _sample_non_edges(g, extra_pairs, rng)
    # one slot per event: each real edge owns one slot (+1), each churn pair
    # owns 2 * cycles consecutive slots; a churn pair's k-th event in stream
    # order carries +1 for even k and -1 for odd k
    m = g.num_edges
    pairs = np.concatenate((g.edge_array(), churn))
    slots = np.r_[np.arange(m), np.repeat(np.arange(m, len(pairs)), 2 * cycles)]
    perm = rng.permutation(len(slots))
    position = np.empty_like(perm)
    position[perm] = np.arange(len(perm))
    delta = np.ones(len(slots), np.int64)
    delta[np.sort(position[m:].reshape(len(churn), 2 * cycles), axis=1)[:, 1::2]] = -1
    return Stream(g.n, DYNAMIC, np.column_stack((pairs.take(slots[perm], axis=0), delta)))


def _sample_non_edges(g: Graph, count: int, rng) -> np.ndarray:
    """`count` distinct non-edges of `g` as an ``(m, 2)`` array, ``u < v``.

    Uniform by rejection: each attempt draws u then v from ``[0, n)`` and
    keeps the pair unless it is a loop, an edge, or already kept. Attempts
    are drawn in batches of ``rng.integers(0, n, size=(B, 2))``, which yields
    the same values as scalar draws in the same order. A batch's first draw
    of each pair is looked up among the sorted keys of the edges and the
    pairs kept so far, re-sorted only when a further batch is drawn. Once a
    batch holds the last pair needed, the generator is rewound to the
    batch's start and only the attempts used are redrawn, so `rng` ends
    where the one-attempt-at-a-time loop would leave it and the rest of the
    stream is unchanged.
    """
    n = g.n
    max_pairs = n * (n - 1) // 2
    available = max_pairs - g.num_edges
    if count > available:
        raise ArgumentError(
            f"requested {count} churn pairs but only {available} non-edges exist"
        )
    edges = g.edge_array()
    taken = edges[:, 0] * n + edges[:, 1]  # the sorted pair keys u * n + v
    kept = [np.empty((0, 2), np.int64)]
    need = count
    while need:
        # about 5/4 of the attempts the current acceptance rate asks for
        size = min(need * max_pairs // (available - count + need) * 5 // 4 + 16, 1 << 20)
        start = rng.bit_generator.state
        u, v = rng.integers(0, n, size=(size, 2)).T
        pair = np.column_stack((np.minimum(u, v), np.maximum(u, v)))
        key = pair[:, 0] * n + pair[:, 1]
        first = np.flatnonzero(~repeats(key))
        first = first[(pair[first, 0] != pair[first, 1]) & (find_keys(taken, key[first]) < 0)]
        if len(first) >= need:
            first = first[:need]
            rng.bit_generator.state = start
            rng.integers(0, n, size=(first[-1] + 1, 2))
        kept.append(pair.take(first, axis=0))
        need -= len(first)
        if need:  # another batch looks its draws up among these keys too
            taken = np.sort(np.concatenate((taken, key[first])))
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

STREAM_HEADER = "#stream v1"
_DELTA = {2: ("-1", "+1")}  # the delta column, stored as 0 for -1 and 1 for +1


def write_stream(stream: Stream, path: str) -> None:
    """Stream text format: header, then ``<u> <v> <+1|-1>`` per event (u < v)."""
    events = stream.events
    with open(path, "wb") as f:
        f.write(f"{STREAM_HEADER} n={stream.n} model={stream.model}\n".encode("utf-8"))
        f.write(format_rows(np.column_stack((events[:, :2], events[:, 2] > 0)), _DELTA))


def read_stream(path: str) -> Stream:
    """A stream file as `write_stream` writes it. A row that does not parse,
    a pair that is not two distinct vertices below n, and an event that
    `Stream` refuses (an insertion stream's -1 or repeated pair, a dynamic
    stream's deletion that takes its pair's multiplicity below zero) raise
    `FormatError` at the first such line."""
    fields, body = read_header(path, STREAM_HEADER)
    n = header_int(fields, "n")
    model = fields.get("model")
    if model not in (INSERTION, DYNAMIC):
        raise FormatError(f"header must carry model=<{INSERTION}|{DYNAMIC}>", line=1)
    rows = Rows(body, 3, _DELTA)
    u, v, plus = rows.data.T
    bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    pairs = (bad, f"pair must be two distinct vertices below {n}")
    stop, _ = first_fault([pairs], len(u))
    try:  # only the events before the first bad pair; a self-loop is an `ArgumentError` there
        stream = Stream(n, model, np.column_stack((u, v, 2 * plus - 1))[:stop])
    except StreamValidationError as exc:  # its event precedes every other fault
        rows.check((np.arange(stop) == exc.index, exc.rule))
        raise
    rows.check(pairs)
    return stream
