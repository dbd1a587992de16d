"""Graph, coloring, and multigraph data model.

Vertices are integers ``0..n-1``. A graph stores its edges in one form: a
read-only ``(m, 2)`` int64 array of ``(u, v)`` rows with ``u < v``, sorted
and without repeats, built by deduplicating the 1-D keys ``u * n + v``. The
frozenset of edge tuples and the dict-of-set adjacency are views derived
from that array on first use. Graphs and colorings are immutable after
construction and safe to share across threads. Isolated vertices are
implicit: a graph may have millions of vertices but only the edge set is
materialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ArgumentError, FormatError

# the largest n whose pair keys u * n + v (at most n*n - n - 1) fit in int64
MAX_VERTICES = 3_037_000_499


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    """Order an endpoint pair; self-loops are rejected."""
    if u == v:
        raise ArgumentError(f"self-loop on vertex {u}")
    return (u, v) if u < v else (v, u)


def int_rows(items, width: int, what: str) -> np.ndarray:
    """`items` as an ``(m, width)`` int64 array.

    Takes an integer array of that shape or an iterable of length-`width`
    integer rows; any other shape, ragged rows or a non-integer dtype raise
    `ArgumentError` rather than being reshaped.
    """
    if not isinstance(items, np.ndarray):
        items = list(items)
    try:
        arr = np.asarray(items)
    except ValueError:
        raise ArgumentError(f"{what} must be rows of {width} integers")
    if arr.shape == (0,):
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width or (arr.size and arr.dtype.kind not in "iu"):
        raise ArgumentError(
            f"{what} must be an (m, {width}) integer array, got {arr.dtype} of shape {arr.shape}"
        )
    return arr.astype(np.int64, copy=False)


class Graph:
    """Simple undirected graph on ``[0, n)``.

    The constructor takes an ``(m, 2)`` integer array or an iterable of
    ``(u, v)`` pairs in either endpoint order; repeated pairs collapse, and a
    self-loop or an endpoint outside ``[0, n)`` raises `ArgumentError`.
    `edge_array` is the single stored form; `edges` and `adjacency` are
    views derived from it on first use and cached.
    """

    __slots__ = ("n", "_edge_array", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        if not 0 <= n <= MAX_VERTICES:
            raise ArgumentError(f"vertex count must be in [0, {MAX_VERTICES}]")
        self.n = n = int(n)
        pairs = int_rows(edges, 2, "edges")
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        loop = lo == hi
        if loop.any():
            raise ArgumentError(f"self-loop on vertex {lo[loop][0]}")
        outside = (lo < 0) | (hi >= n)
        if outside.any():
            i = np.flatnonzero(outside)[0]
            raise ArgumentError(f"edge ({lo[i]}, {hi[i]}) out of range for n={n}")
        keys = np.sort(lo * n + hi)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        arr = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, n, out=(arr[:, 0], arr[:, 1]))
        arr.flags.writeable = False
        self._edge_array = arr
        self._edges: frozenset[tuple[int, int]] | None = None
        self._adj: dict[int, set[int]] | None = None

    @property
    def num_edges(self) -> int:
        return len(self._edge_array)

    def edge_array(self) -> np.ndarray:
        """Edges as the stored read-only, sorted ``(m, 2)`` int64 array."""
        return self._edge_array

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as a frozenset of ``(u, v)`` tuples (derived, cached)."""
        if self._edges is None:
            # copying a set presizes the frozenset's table: half the size
            # of one grown by adding the tuples one at a time
            self._edges = frozenset(set(zip(*self._edge_array.T.tolist())))
        return self._edges

    def adjacency(self) -> Mapping[int, set[int]]:
        """Neighbour sets of the vertices with degree >= 1, keyed in
        ascending vertex order (derived, cached)."""
        if self._adj is None:
            a = self._edge_array
            src = np.concatenate((a[:, 0], a[:, 1]))
            order = np.argsort(src, kind="stable")
            src = src[order]
            nbrs = np.concatenate((a[:, 1], a[:, 0]))[order].tolist()
            starts = np.flatnonzero(np.diff(src, prepend=-1))
            bounds = starts.tolist() + [len(nbrs)]
            self._adj = {
                v: set(nbrs[lo:hi]) for v, lo, hi in zip(src[starts].tolist(), bounds, bounds[1:])
            }
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        u, v = normalize_edge(u, v)
        if u < 0 or v >= self.n:
            return False
        a = self._edge_array
        keys = a[:, 0] * self.n + a[:, 1]
        key = u * self.n + v
        i = np.searchsorted(keys, key)
        return bool(i < len(keys) and keys[i] == key)

    def degree(self, v: int) -> int:
        return len(self.adjacency().get(v, ()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._edge_array, other._edge_array)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


class DynamicMultigraph:
    """Multigraph under a single writer; multiplicities must stay >= 0."""

    def __init__(self, n: int):
        if n < 0:
            raise ArgumentError("vertex count must be non-negative")
        self.n = int(n)
        self.counts: dict[tuple[int, int], int] = {}

    def apply(self, u: int, v: int, delta: int) -> None:
        if delta not in (1, -1):
            raise ArgumentError(f"delta must be +1 or -1, got {delta}")
        e = normalize_edge(u, v)
        if e[0] < 0 or e[1] >= self.n:
            raise ArgumentError(f"edge {e} out of range for n={self.n}")
        new = self.counts.get(e, 0) + delta
        if new < 0:
            raise ArgumentError(f"multiplicity of {e} would become negative")
        if new == 0:
            self.counts.pop(e, None)
        else:
            self.counts[e] = new

    def multiplicity(self, u: int, v: int) -> int:
        return self.counts.get(normalize_edge(u, v), 0)

    def __repr__(self) -> str:
        return f"DynamicMultigraph(n={self.n}, pairs={len(self.counts)})"


def finalize_multigraph(m: DynamicMultigraph) -> Graph:
    """Simple graph with one edge per pair of positive multiplicity."""
    return Graph(m.n, (e for e, c in m.counts.items() if c > 0))


def _canonicalize(colors: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel color ids to first-appearance order by vertex index."""
    if colors.size == 0:
        return colors.astype(np.int64), 0
    _, first_idx, inverse = np.unique(colors, return_index=True, return_inverse=True)
    # rank of each unique value by its first appearance
    order = np.empty(len(first_idx), dtype=np.int64)
    order[np.argsort(first_idx)] = np.arange(len(first_idx))
    return order[inverse].astype(np.int64), len(first_idx)


@dataclass(frozen=True)
class Coloring:
    """Total vertex coloring in canonical form.

    Canonical form means color ids are exactly ``{0..num_colors-1}`` and are
    assigned in order of first appearance by vertex index, so equal
    partitions compare equal.
    """

    n: int
    colors: np.ndarray
    num_colors: int = field(default=-1)

    @staticmethod
    def from_array(colors: Iterable[int]) -> "Coloring":
        arr = np.asarray(list(colors) if not isinstance(colors, np.ndarray) else colors)
        canon, k = _canonicalize(arr)
        return Coloring(n=len(canon), colors=canon, num_colors=k)

    def __post_init__(self):
        if self.num_colors < 0:
            canon, k = _canonicalize(np.asarray(self.colors))
            object.__setattr__(self, "colors", canon)
            object.__setattr__(self, "num_colors", k)

    def color_of(self, v: int) -> int:
        return int(self.colors[v])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and np.array_equal(self.colors, other.colors)
        )

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, num_colors={self.num_colors})"


def is_proper_coloring(g: Graph, c: Coloring) -> bool:
    """True iff no edge of `g` is monochromatic under `c`."""
    if c.n != g.n:
        raise ArgumentError(f"coloring has n={c.n}, graph has n={g.n}")
    arr = g.edge_array()
    if arr.shape[0] == 0:
        return True
    return not bool(np.any(c.colors[arr[:, 0]] == c.colors[arr[:, 1]]))


def monochromatic_edges(edges: np.ndarray, c: Coloring) -> np.ndarray:
    """Subset of an ``(m, 2)`` edge array that is monochromatic under `c`."""
    if edges.shape[0] == 0:
        return edges
    mask = c.colors[edges[:, 0]] == c.colors[edges[:, 1]]
    return edges[mask]


def product_coloring(c1: Coloring, c2: Coloring) -> Coloring:
    """Common refinement: vertices share a color iff they do in both inputs."""
    if c1.n != c2.n:
        raise ArgumentError(f"colorings disagree on n: {c1.n} vs {c2.n}")
    combined = c1.colors.astype(np.int64) * max(c2.num_colors, 1) + c2.colors
    return Coloring.from_array(combined)


def verify_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every pair in `vertices` is an edge of `g`."""
    vs = sorted(set(int(v) for v in vertices))
    if vs and (vs[0] < 0 or vs[-1] >= g.n):
        raise ArgumentError(f"vertex set not contained in [0, {g.n})")
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if (u, v) not in g.edges:
                return False
    return True


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph on `vertices` plus the old-id -> new-id relabel map."""
    vs = np.fromiter(vertices, dtype=np.int64)
    if vs.size and (vs.min() < 0 or vs.max() >= g.n):
        raise ArgumentError(f"vertex set not contained in [0, {g.n})")
    member = np.zeros(g.n, dtype=bool)
    member[vs] = True
    vs = np.flatnonzero(member)
    new_id = np.cumsum(member) - 1  # relabel lookup, valid on members
    a = g.edge_array()
    sub = Graph(len(vs), new_id[a[member[a[:, 0]] & member[a[:, 1]]]])
    return sub, dict(zip(vs.tolist(), range(len(vs))))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

GRAPH_HEADER = "#graph v1"


def write_graph(g: Graph, path: str) -> None:
    """Graph text format: header ``#graph v1 n=<N>``, then ``u v`` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{GRAPH_HEADER} n={g.n}\n")
        for u, v in g.edge_array().tolist():
            f.write(f"{u} {v}\n")


def read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith(GRAPH_HEADER):
        raise FormatError(f"missing '{GRAPH_HEADER}' header", line=1)
    try:
        n = int(lines[0].split("n=")[1])
    except (IndexError, ValueError):
        raise FormatError("header must carry n=<N>", line=1)
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError(f"vertex count n={n} is outside [0, {MAX_VERTICES}]", line=1)
    edges = []
    seen = set()
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer endpoint in {line!r}", line=i)
        if u == v:
            raise FormatError(f"self-loop {u} {v}", line=i)
        if not (u < v):
            raise FormatError(f"endpoints must satisfy u < v, got {line!r}", line=i)
        if (u, v) in seen:
            raise FormatError(f"duplicate edge {u} {v}", line=i)
        if v >= n or u < 0:
            raise FormatError(f"edge {u} {v} out of range for n={n}", line=i)
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def coloring_to_json(c: Coloring) -> str:
    payload = {"n": c.n, "num_colors": c.num_colors, "colors": c.colors.tolist()}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def write_coloring(c: Coloring, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(coloring_to_json(c))


def read_coloring(path: str) -> Coloring:
    with open(path, "r", encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}")
    if not isinstance(payload, dict) or "colors" not in payload:
        raise FormatError("expected a JSON object with a 'colors' field")
    colors = payload["colors"]
    if not isinstance(colors, list) or any(type(x) is not int for x in colors):
        raise FormatError("'colors' must be a list of integers")
    c = Coloring.from_array(colors)
    if c.n != payload.get("n") or c.num_colors != payload.get("num_colors"):
        raise FormatError("coloring fields are inconsistent with the colors array")
    return c
