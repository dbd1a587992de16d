"""Brute-force oracles and plain-Python references, independent of the
library's own solvers.

The brute-force oracles enumerate exhaustively and are only usable at tiny
sizes; the tests freeze their outputs as expected values for the real
implementations. The dict-of-sets references (`dict_adjacency`,
`reference_components`, `bfs_two_coloring`) walk neighbour sets one vertex
at a time and share no code with the library's array passes. The graph-spec
references (`reference_gnm`, `reference_bipartite`, `reference_planted`)
make the same generator calls as `GraphSpec.build` and map the draws to
pairs by the plain formulas, one full-size array each, and `np.column_stack`.
`reference_canonical` relabels by first appearance with one dict.
`peak_bytes` is the one tracemalloc probe.
"""

from __future__ import annotations

import tracemalloc
from itertools import product

import numpy as np

from streamcolor import Graph


def peak_bytes(fn):
    """What `fn()` returns, and its peak traced allocation in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_gnm(n: int, m: int, rng: np.random.Generator) -> Graph:
    """gnm drawn from the table of all pairs (u, v), u < v, in row order."""
    iu, iv = np.triu_indices(n, k=1)
    picks = rng.choice(len(iu), size=m, replace=False)
    return Graph(n, np.column_stack((iu[picks], iv[picks])))


def reference_bipartite(n: int, m: int, left: int, rng: np.random.Generator) -> Graph:
    """m left-right pairs: pick p names (p // right, left + p % right)."""
    right = n - left
    picks = rng.choice(left * right, size=m, replace=False)
    return Graph(n, np.column_stack((picks // right, left + picks % right)))


def reference_planted(n: int, clique: int, rng: np.random.Generator) -> Graph:
    """Every pair of `clique` sorted random vertices."""
    verts = np.sort(rng.choice(n, size=clique, replace=False))
    i, j = np.triu_indices(clique, k=1)
    return Graph(n, np.column_stack((verts[i], verts[j])))


def brute_is_proper(n: int, edges, colors) -> bool:
    return all(colors[u] != colors[v] for u, v in edges)


def brute_chromatic(n: int, edges) -> int:
    """Exact chi by enumerating all colorings with k = 1..n colors."""
    if n == 0:
        return 0
    if not edges:
        return 1
    for k in range(1, n + 1):
        for assignment in product(range(k), repeat=n):
            if brute_is_proper(n, edges, assignment):
                return k
    raise AssertionError("unreachable: every graph is n-colorable")


def brute_k_colorable(n: int, edges, k: int) -> bool:
    return any(
        brute_is_proper(n, edges, assignment)
        for assignment in product(range(k), repeat=n)
    )


def brute_induced_edges(edges, vertex_set):
    vs = set(vertex_set)
    return sorted((u, v) for u, v in edges if u in vs and v in vs)


def reference_canonical(labels) -> list[int]:
    """Each label replaced by the number of distinct labels seen before its
    first appearance: one dict, one label at a time."""
    first: dict = {}
    return [first.setdefault(label, len(first)) for label in labels]


def refine_partition(colors1, colors2):
    """Partition labels of the common refinement, canonical by first use."""
    return reference_canonical(zip(colors1, colors2))


class ReplayMultigraph:
    """Reference multigraph: replays ``(u, v, delta)`` events one at a time.

    `apply` raises `ValueError` on a self-loop, an endpoint outside
    ``[0, n)``, a delta other than +1 or -1, or a multiplicity that would go
    negative. `final_edges` is the set of pairs of positive multiplicity.
    """

    def __init__(self, n: int):
        self.n = n
        self.counts: dict[tuple[int, int], int] = {}

    def apply(self, u: int, v: int, delta: int) -> None:
        e = (min(u, v), max(u, v))
        if delta not in (1, -1) or u == v or e[0] < 0 or e[1] >= self.n:
            raise ValueError(f"bad event {(u, v, delta)} for n={self.n}")
        count = self.counts.get(e, 0) + delta
        if count < 0:
            raise ValueError(f"multiplicity of {e} would become negative")
        self.counts[e] = count

    def final_edges(self) -> set[tuple[int, int]]:
        return {e for e, count in self.counts.items() if count > 0}


def pair_totals(n: int, events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs of ``(u, v, delta)`` rows, in key order, and their
    int64 delta sums: `np.unique` plus a float `bincount`, a pass of its own
    beside `Stream`'s validation sort."""
    _, first, slot = np.unique(
        events[:, 0] * n + events[:, 1], return_index=True, return_inverse=True
    )
    totals = np.bincount(slot, weights=events[:, 2], minlength=len(first))
    return events[first, :2], totals.astype(np.int64)


def dict_adjacency(g: Graph) -> dict[int, set[int]]:
    """Neighbour sets of the vertices with degree >= 1, in ascending order."""
    adj: dict[int, set[int]] = {}
    for u, v in g.edge_array().tolist():
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return dict(sorted(adj.items()))


def reference_components(adj: dict[int, set[int]]) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def bfs_two_coloring(g: Graph) -> np.ndarray | None:
    """BFS 2-coloring rooted at each component's smallest vertex."""
    adj = dict_adjacency(g)
    colors = np.zeros(g.n, dtype=np.int64)
    assigned: dict[int, int] = {}
    for root in adj:
        if root in assigned:
            continue
        assigned[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in assigned:
                    assigned[w] = 1 - assigned[v]
                    stack.append(w)
                elif assigned[w] == assigned[v]:
                    return None
    for v, c in assigned.items():
        colors[v] = c
    return colors
