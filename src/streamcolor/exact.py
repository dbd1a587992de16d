"""Exact chromatic number and k-coloring via iterative-deepening backtracking.

The solver is exponential-time by design (adequate at desk scale); it runs
per connected component with vertices ordered by descending degree, uses a
greedy clique on a degeneracy ordering as a lower bound (pruning only) and
DSATUR as an upper bound, and breaks color symmetry by allowing each vertex
at most one brand-new color class. Bipartite inputs short-circuit through a
BFS 2-coloring, which keeps the q = 2 distinguishing workloads linear-time.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .graph import Coloring, Graph


def _components(adj: dict[int, set[int]]) -> list[list[int]]:
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


def greedy_clique_lower_bound(g: Graph) -> list[int]:
    """A clique grown greedily from each vertex in descending-degree order.

    Used only to prune the exact search, never to answer it.
    """
    adj = g.adjacency()
    if not adj:
        return []
    best: list[int] = []
    by_degree = sorted(adj, key=lambda v: -len(adj[v]))
    for v in by_degree:
        if len(adj[v]) + 1 <= len(best):
            break  # no vertex of this degree can beat the incumbent
        clique = [v]
        for u in sorted(adj[v], key=lambda u: -len(adj[u])):
            if all(u in adj[c] for c in clique):
                clique.append(u)
        if len(clique) > len(best):
            best = clique
    return best


def dsatur_coloring(g: Graph) -> Coloring:
    """Greedy DSATUR coloring; proper but not necessarily optimal."""
    n = g.n
    colors = np.zeros(n, dtype=np.int64)
    adj = g.adjacency()
    if adj:
        sat: dict[int, set[int]] = {v: set() for v in adj}
        uncolored = set(adj)
        while uncolored:
            v = max(uncolored, key=lambda u: (len(sat[u]), len(adj[u]), -u))
            used = sat[v]
            c = 0
            while c in used:
                c += 1
            colors[v] = c
            uncolored.remove(v)
            for w in adj[v]:
                if w in uncolored:
                    sat[w].add(c)
    return Coloring.from_array(colors)


def _two_coloring(g: Graph) -> np.ndarray | None:
    """BFS 2-coloring over all components, or None on an odd cycle."""
    colors = np.zeros(g.n, dtype=np.int64)
    adj = g.adjacency()
    assigned: dict[int, int] = {}
    for comp_root in adj:
        if comp_root in assigned:
            continue
        assigned[comp_root] = 0
        stack = [comp_root]
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


def _simple_backtrack(order: list[int], masks: list[int], k: int) -> list[int] | None:
    """k-color positions in `order`; masks[i] = bitmask of earlier neighbors.

    Symmetry breaking: position i may reuse an open color class or open
    exactly one new one, so the first vertex of every new class is the
    earliest position forced to open it.
    """
    m = len(order)
    assignment = [-1] * m
    max_used = [0] * (m + 1)
    next_try = [0] * m
    i = 0
    while True:
        blocked = 0
        mask = masks[i]
        j = 0
        while mask:
            if mask & 1:
                blocked |= 1 << assignment[j]
            mask >>= 1
            j += 1
        limit = min(k, max_used[i] + 1)
        c = next_try[i]
        while c < limit and (blocked >> c) & 1:
            c += 1
        if c >= limit:
            next_try[i] = 0
            i -= 1
            if i < 0:
                return None
            next_try[i] = assignment[i] + 1
            assignment[i] = -1
            continue
        assignment[i] = c
        next_try[i] = c
        max_used[i + 1] = max(max_used[i], c + 1)
        if i + 1 == m:
            return assignment
        i += 1
        next_try[i] = 0


def _k_color_component(
    adj: dict[int, set[int]], comp: list[int], k: int
) -> dict[int, int] | None:
    order = sorted(comp, key=lambda v: (-len(adj[v]), v))
    pos = {v: i for i, v in enumerate(order)}
    masks = [0] * len(order)
    for i, v in enumerate(order):
        for w in adj[v]:
            j = pos.get(w)
            if j is not None and j < i:
                masks[i] |= 1 << j
    assignment = _simple_backtrack(order, masks, k)
    if assignment is None:
        return None
    return {v: assignment[i] for i, v in enumerate(order)}


def find_k_coloring(g: Graph, k: int) -> Coloring | None:
    """A proper k-coloring of `g` in canonical form, or None if impossible."""
    if k < 1:
        raise ArgumentError("k must be >= 1")
    if g.n == 0:
        return Coloring.from_array(np.empty(0, dtype=np.int64))
    if g.num_edges == 0:
        return Coloring.from_array(np.zeros(g.n, dtype=np.int64))
    if k == 1:
        return None
    if k == 2:
        two = _two_coloring(g)
        return None if two is None else Coloring.from_array(two)
    greedy = dsatur_coloring(g)
    if greedy.num_colors <= k:
        return greedy
    colors = np.zeros(g.n, dtype=np.int64)
    adj = dict(g.adjacency())
    for comp in _components(adj):
        got = _k_color_component(adj, comp, k)
        if got is None:
            return None
        for v, c in got.items():
            colors[v] = c
    return Coloring.from_array(colors)


def chromatic_number(g: Graph, cap: int | None = None) -> int | None:
    """Exact chi(g); returns None when `cap` is given and chi(g) > cap.

    Conventions: chi = 0 for n = 0 and chi = 1 for edgeless n >= 1.
    """
    if cap is not None and cap < 1:
        raise ArgumentError("cap must be >= 1")
    if g.n == 0:
        return 0
    if g.num_edges == 0:
        return 1
    if cap == 1:
        return None
    if _two_coloring(g) is not None:
        return 2
    if cap == 2:
        return None
    clique = greedy_clique_lower_bound(g)
    lb = max(3, len(clique))
    if cap is not None and lb > cap:
        return None
    ub = dsatur_coloring(g).num_colors
    if lb >= ub:
        return ub
    hi = ub if cap is None else min(ub, cap + 1)
    for k in range(lb, hi):
        if find_k_coloring(g, k) is not None:
            return k
    if cap is not None and ub > cap:
        return None
    return ub


def color_exactly(g: Graph) -> Coloring:
    """A proper coloring of `g` with exactly chi(g) colors."""
    k = chromatic_number(g)
    if k == 0:
        return Coloring.from_array(np.empty(0, dtype=np.int64))
    out = find_k_coloring(g, k)
    assert out is not None
    return out


def color_with_cap(g: Graph, cap: int) -> Coloring | None:
    """Minimum coloring if chi(g) <= cap, else None (the 'exceeds cap' case)."""
    if cap < 1:
        raise ArgumentError("cap must be >= 1")
    if cap <= 2:
        # one search: a proper coloring with at most two colors is minimum
        return find_k_coloring(g, cap)
    k = chromatic_number(g, cap=cap)
    if k is None:
        return None
    if k == 0:
        return Coloring.from_array(np.empty(0, dtype=np.int64))
    return find_k_coloring(g, k)
