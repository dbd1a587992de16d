"""Exact chromatic number and k-coloring by backtracking in DSATUR order.

`color_with_cap(g, cap=None)` is the one minimum-coloring entry point: it
returns a coloring with exactly chi(g) colors, or None when `cap` is given and
chi(g) > cap; `chromatic_number` reads its color count, and `find_k_coloring`
returns any k-coloring. The solver is exponential-time by design (adequate at
desk scale). Two colors are decided from the edge array alone, by min-label
propagation over the bipartite double cover on compact vertex ids, which
keeps the q = 2 distinguishing workloads near-linear and never builds the
CSR. Above two colors every routine reads the graph's cached CSR neighbour
lists (`Graph.csr`) through numpy array passes: a greedy clique gives the
lower bound and DSATUR (Brelaz 1979) the upper bound, and each k between
them is tried once by `_search`, a per-component backtracking search in
DSATUR's saturation order that lets each vertex open at most one new color
class.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .graph import Coloring, Graph


def _min_labels(x: np.ndarray, y: np.ndarray, size: int) -> np.ndarray:
    """Each node's smallest reachable node over the edges ``(x[i], y[i])``,
    by min-label hooking and pointer jumping (Shiloach and Vishkin 1982).

    Every label is a node of the same component, never above the node
    itself, and each step hooks the larger label of an edge onto the
    smaller; at the fixed point each component's label is its smallest node.
    """
    lab = np.arange(size)
    while True:
        new = lab.copy()
        a, b = lab[x], lab[y]
        hi = np.maximum(a, b)
        np.minimum.at(new, hi, np.minimum(a, b, out=a))
        del a, b, hi  # so the next round's gathers do not stack on these
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _components(g: Graph) -> list[np.ndarray]:
    """The local ids of each connected component of `csr`, ordered by
    smallest vertex."""
    _, indptr, indices = g.csr()
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    once = src < indices
    lab = _min_labels(src[once], indices[once], len(indptr) - 1)
    order = np.argsort(lab, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(lab[order])) + 1)


def greedy_clique_lower_bound(g: Graph) -> list[int]:
    """A clique grown greedily from each vertex in descending-degree order.

    Neighbours join in descending-degree order, ties by ascending vertex.
    Used only to prune the exact search, never to answer it.
    """
    verts, indptr, indices = g.csr()
    deg = np.diff(indptr)
    src = np.repeat(np.arange(len(verts)), deg)
    # each row in joining order: descending degree, ties by ascending id
    joining = indices[np.lexsort((indices, -deg[indices], src))]
    mark = np.zeros(len(verts), dtype=bool)  # all False between joins
    best: list[int] = []
    for v in np.argsort(-deg, kind="stable").tolist():
        if deg[v] + 1 <= len(best):
            break  # no vertex of this degree can beat the incumbent
        # the neighbours adjacent to the whole clique, in joining order: the
        # first joins, and the rest keep only those in its row
        cand = joining[indptr[v] : indptr[v + 1]]
        clique = [v]
        while len(cand):
            u, cand = int(cand[0]), cand[1:]
            clique.append(u)
            row = indices[indptr[u] : indptr[u + 1]]
            mark[row] = True
            cand = cand[mark[cand]]
            mark[row] = False
        if len(clique) > len(best):
            best = clique
    return verts[best].tolist()


def dsatur_coloring(g: Graph) -> Coloring:
    """Greedy DSATUR coloring; proper but not necessarily optimal.

    Each step colors the uncolored vertex whose neighbours use the most
    distinct colors (ties: higher degree, then lower id) with the smallest
    color they do not use.
    """
    verts, indptr, indices = g.csr()
    deg = np.diff(indptr)
    step = int(deg.max(initial=0)) + 1
    closed = step * step  # above any saturation * step + degree
    # one argmax picks the largest saturation * step + degree, the first
    # (lowest) vertex on ties; a colored vertex's key is less `closed`
    key = deg.copy()
    # used[c, v]: a neighbour of v has color c. Rows from `opened` on are all
    # False, so an argmin over rows 0..opened finds the smallest free color;
    # the rows double as colors open, so a star gets 2 rows, not Δ + 1
    used = np.zeros((2, len(verts)), dtype=bool)
    opened = 0
    local = np.zeros(len(verts), dtype=np.int64)
    for _ in range(len(verts)):
        v = int(key.argmax())
        c = int(used[: opened + 1, v].argmin())
        if c == opened:
            opened += 1
            if opened == len(used):
                used = np.vstack((used, np.zeros_like(used)))
        local[v] = c
        key[v] -= closed
        nbrs = indices[indptr[v] : indptr[v + 1]]
        row = used[c]
        fresh = nbrs[~row[nbrs]]
        row[fresh] = True
        key[fresh] += step
    colors = np.zeros(g.n, dtype=np.int64)
    colors[verts] = local
    return Coloring.from_array(colors)


def _two_coloring(g: Graph) -> np.ndarray | None:
    """A 2-coloring with each component's smallest vertex colored 0, or None
    on an odd cycle; read from `edge_array` alone, without building `csr`.

    The vertices of degree >= 1 get compact ids ``0..k-1`` in ascending
    order, written into the array that is returned, so a component's
    smallest vertex keeps the smallest id and a hooking round costs
    O(k + m), not O(n). Compact vertex ``u`` has two copies in the bipartite
    double cover, ``u`` and ``u + k``, and edge ``(u, v)`` joins ``u`` to
    ``v + k`` and ``u + k`` to ``v``. Copies ``u`` and ``v`` share a
    double-cover component iff some walk from ``u`` to ``v`` has even length,
    so an odd cycle puts ``u`` and ``u + k`` together; otherwise the copy
    holding the component's smallest vertex has the smaller label, and ``u``
    is colored 1 iff that is ``u + k``.
    """
    a = g.edge_array()
    colors = np.zeros(g.n, dtype=np.int64)
    colors[a] = 1
    verts = np.flatnonzero(colors)
    k = len(verts)
    colors[verts] = np.arange(k)
    ends = colors[a.T]  # the compact ids of the edges' u ends, then their v ends
    # edge (u, v) as (u, v + k), and as (v, u + k), the same edge as (u + k, v)
    lab = _min_labels(ends.ravel(), (ends[::-1] + k).ravel(), 2 * k)
    if (lab[:k] == lab[k:]).any():
        return None
    colors[verts] = lab[:k] > lab[k:]
    return colors


def _search(g: Graph, k: int) -> Coloring | None:
    """A k-coloring of `g` found by backtracking, or None if none exists.

    Each connected component is searched on its own: a component that cannot
    be k-colored then fails once, instead of once per coloring of the
    components searched before it. Each step colors the uncolored vertex whose
    neighbours use the most distinct colors (ties: higher degree, then lower
    id), the order of `dsatur_coloring`. ``counts[c, v]`` is the number of v's
    neighbours colored c, so a step is undone by decrementing. A vertex may
    open at most one new color, since unused colors are interchangeable.
    """
    verts, indptr, indices = g.csr()
    deg = np.diff(indptr)
    step = int(deg.max(initial=0)) + 1
    closed = step * step  # above any saturation * step + degree
    # key = saturation * step + degree, less `closed` once the vertex is
    # colored; an argmax over the component picks its first (lowest) vertex
    # on ties, as the component's local ids ascend
    key = deg.copy()
    counts = np.zeros((k, len(verts)), dtype=np.int64)
    local = np.zeros(len(verts), dtype=np.int64)
    for comp in _components(g):
        opened = 0  # colors 0..opened-1 are in use in this component
        trail: list[tuple[int, list[int], int]] = []  # (vertex, colors left, opened before)
        while len(trail) < len(comp):
            v = int(comp[key[comp].argmax()])
            tries = np.flatnonzero(counts[: min(k, opened + 1), v] == 0)[::-1].tolist()
            while not tries:
                if not trail:
                    return None
                v, tries, opened = trail.pop()
                nbrs = indices[indptr[v] : indptr[v + 1]]
                row = counts[local[v]]
                row[nbrs] -= 1
                key[nbrs[row[nbrs] == 0]] -= step
                key[v] += closed
            c = tries.pop()
            local[v] = c
            nbrs = indices[indptr[v] : indptr[v + 1]]
            row = counts[c]
            key[nbrs[row[nbrs] == 0]] += step
            row[nbrs] += 1
            key[v] -= closed
            trail.append((v, tries, opened))
            opened = max(opened, c + 1)
    colors = np.zeros(g.n, dtype=np.int64)
    colors[verts] = local
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
        # canonical as it stands: vertex 0 is colored 0, and an edge uses both colors
        two = _two_coloring(g)
        return None if two is None else Coloring(n=g.n, colors=two, num_colors=2)
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
