"""Exact chromatic number and k-coloring by backtracking in DSATUR order.

`color_with_cap(g, cap=None)` is the one minimum-coloring entry point: it
returns a coloring with exactly chi(g) colors, or None when `cap` is given and
chi(g) > cap; `chromatic_number` reads its color count, and `find_k_coloring`
returns any k-coloring. The solver is exponential-time by design (adequate at
desk scale). Bipartite inputs short-circuit through a BFS 2-coloring, which
keeps the q = 2 distinguishing workloads linear-time. Above two colors a
greedy clique gives the lower bound and DSATUR (Brelaz 1979) the upper bound,
and each k between them is tried once by `_search`: a per-component
backtracking search in DSATUR's saturation order that lets each vertex open
at most one new color class.
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


def _search(g: Graph, k: int) -> Coloring | None:
    """A k-coloring of `g` found by backtracking, or None if none exists.

    Each connected component is searched on its own: a component that cannot
    be k-colored then fails once, instead of once per coloring of the
    components searched before it. Each step colors the uncolored vertex whose
    neighbours use the most distinct colors (ties: higher degree, then lower
    id), the order of `dsatur_coloring`. ``counts[v][c]`` is the number of v's
    neighbours colored c, so a step is undone by decrementing. A vertex may
    open at most one new color, since unused colors are interchangeable.
    """
    adj = g.adjacency()
    colors = [0] * g.n
    counts = {v: [0] * k for v in adj}
    sat = dict.fromkeys(adj, 0)
    for comp in _components(adj):
        uncolored = set(comp)
        opened = 0  # colors 0..opened-1 are in use in this component
        trail: list[tuple[int, list[int], int]] = []  # (vertex, colors left, opened before)
        while uncolored:
            v = max(uncolored, key=lambda u: (sat[u], len(adj[u]), -u))
            tries = [c for c in range(min(k, opened + 1) - 1, -1, -1) if not counts[v][c]]
            while not tries:
                if not trail:
                    return None
                v, tries, opened = trail.pop()
                c = colors[v]
                for w in adj[v]:
                    counts[w][c] -= 1
                    if not counts[w][c]:
                        sat[w] -= 1
                uncolored.add(v)
            c = tries.pop()
            colors[v] = c
            for w in adj[v]:
                if not counts[w][c]:
                    sat[w] += 1
                counts[w][c] += 1
            uncolored.remove(v)
            trail.append((v, tries, opened))
            opened = max(opened, c + 1)
    return Coloring.from_array(colors)


def find_k_coloring(g: Graph, k: int) -> Coloring | None:
    """A proper k-coloring of `g` in canonical form (DSATUR's when it fits),
    or None if impossible."""
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
    return _search(g, k)


def color_with_cap(g: Graph, cap: int | None = None) -> Coloring | None:
    """A coloring of `g` with exactly chi(g) colors; None when `cap` is given
    and chi(g) > cap (the 'exceeds cap' case)."""
    if cap is not None and cap < 1:
        raise ArgumentError("cap must be >= 1")
    # a proper coloring with at most two colors is minimum
    small = find_k_coloring(g, 2 if cap is None else min(cap, 2))
    if small is not None or (cap is not None and cap <= 2):
        return small
    lb = max(3, len(greedy_clique_lower_bound(g)))
    greedy = dsatur_coloring(g)
    hi = greedy.num_colors if cap is None else min(greedy.num_colors, cap + 1)
    for k in range(lb, hi):
        found = _search(g, k)
        if found is not None:
            return found
    return greedy if cap is None or greedy.num_colors <= cap else None


def chromatic_number(g: Graph, cap: int | None = None) -> int | None:
    """Exact chi(g); returns None when `cap` is given and chi(g) > cap.

    Conventions: chi = 0 for n = 0 and chi = 1 for edgeless n >= 1.
    """
    coloring = color_with_cap(g, cap)
    return None if coloring is None else coloring.num_colors
