"""Exact chromatic number and k-coloring by backtracking in DSATUR order.

`color_with_cap(g, cap=None)` is the one minimum-coloring entry point: it
returns a coloring with exactly chi(g) colors, or None when `cap` is given and
chi(g) > cap; `chromatic_number` reads its color count, and `find_k_coloring`
returns any k-coloring. The solver is exponential-time by design (adequate at
desk scale). Two colors are decided from the edge array alone, by parity
hooking on compact vertex ids (`_hook`, which also finds the connected
components), which keeps the q = 2 distinguishing workloads near-linear and
never builds the CSR. Above two colors there is one engine, `_search`, a
backtracking search in DSATUR's saturation order (Brelaz 1979) that lets
each vertex open at most one new color class, run as numpy array passes. For
nv vertices of degree >= 1 and m edges it reads one nv x nv bool adjacency
matrix when ``nv^2 <= 16 m`` (never larger than the CSR's int64 neighbour
array, which is then never built), and the graph's cached CSR neighbour
lists (`Graph.csr`) otherwise. Its first descent is DSATUR's coloring, so
`dsatur_coloring` is the search with no bound on the colors and
`find_k_coloring` is the search at k. `color_with_cap` asks DSATUR first: the
clique that its first descent opens settles chi when it is as large as
DSATUR's color count or larger than the cap. Otherwise a greedy clique gives
the lower bound and DSATUR the upper bound, and each k between them is tried
once. `graph.first_appearance` numbers the colors a search finds.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .graph import Coloring, Graph, first_appearance, uniform_coloring


def _hook(
    x: np.ndarray, y: np.ndarray, odd: int, size: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Each node's root, the smallest node of its component, and its parity
    against that root over the edges ``(x[i], y[i])``, ``x < y``, each of
    parity `odd`; None when some cycle has odd parity.

    Parity hooking with pointer jumping (Shiloach and Vishkin 1982): a node's
    pointer is ``2 * parent + parity against the parent``. Each round every
    node that is the larger end of an edge hooks onto its smallest neighbour
    below it, all pointer chains are jumped to their roots, XOR-ing their
    parities, and each edge is contracted to the pair of its ends' roots,
    with its parity carried along. An edge left inside one tree closes a
    cycle: it is dropped when its parity agrees with the tree's and is a
    conflict otherwise. Pointers only go down, so each root is the smallest
    node of its tree, and a round costs O(size + edges left).
    """
    ptr = np.arange(0, 2 * size, 2)
    while len(x):
        np.minimum.at(ptr, y, 2 * x + odd)
        while True:
            up = ptr[ptr >> 1]
            up ^= ptr & 1
            if np.array_equal(up, ptr):
                break
            ptr = up
        ex, ey = ptr[x], ptr[y]
        odd = (ex ^ ey ^ odd) & 1
        # ends of different trees order as their roots do
        ex, ey = np.minimum(ex, ey) >> 1, np.maximum(ex, ey) >> 1
        keep = ex != ey
        if odd[~keep].any():
            return None
        x, y, odd = ex[keep], ey[keep], odd[keep]
    return ptr >> 1, ptr & 1


def _compact(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges on compact vertex ids, read from `edge_array` alone.

    Returns an n-entry int64 array holding each vertex of degree >= 1's
    compact id and 0 elsewhere (the caller's scratch and then its returned
    colors, so no other n-sized array is made), those vertices ``verts`` in
    ascending order, and the ``(2, m)`` compact ids of the edges' u ends,
    then their v ends. Compact ids ascend with vertex ids, as `Graph.csr`'s
    local ids do, so the two agree.
    """
    a = g.edge_array()
    colors = np.zeros(g.n, dtype=np.int64)
    colors[a] = 1
    verts = np.flatnonzero(colors)
    colors[verts] = np.arange(len(verts))
    return colors, verts, colors[a.T]


def _components(ends: np.ndarray, size: int) -> list[np.ndarray]:
    """The compact ids of each connected component, ordered by smallest
    vertex: `_hook`'s trees, with every edge of parity 0."""
    root, _ = _hook(ends[0], ends[1], 0, size)
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)


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
    """Greedy DSATUR coloring (Brelaz 1979); proper but not necessarily
    optimal: `_search`'s first descent, with no bound on the colors."""
    return _search(g, None)[0]


def _two_coloring(g: Graph) -> np.ndarray | None:
    """A 2-coloring with each component's smallest vertex colored 0, or None
    on an odd cycle; read from `edge_array` alone, without building `csr`.

    On `_compact`'s ids a component's smallest vertex keeps the smallest
    id, and a hooking round costs O(k + m) for k vertices of degree >= 1,
    not O(n). Every edge has odd parity, so `_hook` finds an odd cycle or
    each vertex's parity against its component's smallest vertex, which is
    its color.
    """
    colors, verts, ends = _compact(g)
    found = _hook(ends[0], ends[1], 1, len(verts))
    if found is None:
        return None
    colors[verts] = found[1]
    return colors


def _search(g: Graph, k: int | None) -> tuple[Coloring | None, list[int]]:
    """A coloring of `g` with at most k colors, found by backtracking, or
    None if there is none; with k None there is no bound, the search never
    backtracks, the coloring is DSATUR's, and the clique that it opens comes
    with it, as vertex ids (with k given, the clique is empty).

    Each step colors the uncolored vertex whose neighbours use the most
    distinct colors (ties: higher degree, then lower id) with the smallest
    color they leave free, so the first descent is DSATUR's. A vertex may
    open at most one new color, since unused colors are interchangeable.
    With k given, each connected component is searched on its own: a
    component that cannot be k-colored then fails once, instead of once per
    coloring of the components searched before it. DSATUR's clique is the
    run of vertices, from the first step on, each adjacent to all those
    colored before it: each opens a new color.

    Vertices of degree >= 1 get `_compact`'s ids. Their rows take one of two
    forms, by a property of the input alone. When ``nv^2 <= 16 m`` for nv
    such vertices, they are one ``nv x nv`` bool adjacency matrix, no larger
    than the CSR's int64 neighbour array, and a step updates whole rows; the
    CSR is never built. Otherwise they are `Graph.csr`'s neighbour lists,
    and a step gathers and scatters over them.

    ``free[c, v]`` is False when a neighbour of v has color c, and one argmax
    over `key` picks the next vertex, the first (lowest) on ties. With
    ``step`` the power of two above the largest degree, the CSR form's int64
    key is ``saturation * step + degree`` and the dense form's float64 key is
    ``saturation + degree / step``, whose values are multiples of ``1 /
    step`` below ``2 * step``: float64 holds them exactly while step <=
    2^26, and a larger step would need ``nv^2 > 2^52`` bytes of matrix, so
    every sum, tie and undo is exact. A colored vertex's key is less
    `closed`, below every uncolored key. Two invariants
    carry the search:
    - row `opened` is all True on the current component's vertices, so an
      argmax over rows ``0..opened`` finds the smallest free color, and
      color k means none is left;
    - backtracking is LIFO, so a step's marks are all still in place when it
      is undone. The trail keeps each step's `fresh` neighbours, those whose
      ``free[c]`` bit it cleared, as ids (O(m) in all at worst) or as one
      nv-entry mask (nv^2 bytes in all at worst), and a pop sets exactly
      those back. After a pop the
      next color to try is the argmax over rows ``c+1..opened``.
    """
    if not g.num_edges:
        return uniform_coloring(g.n), []
    colors, verts, ends = _compact(g)
    nv = len(verts)
    deg = np.bincount(ends.ravel("K"), minlength=nv)  # in memory order: no copy
    step = 1 << int(deg.max()).bit_length()
    if nv * nv <= 16 * g.num_edges:
        adj = np.zeros((nv, nv), dtype=bool)
        adj[ends[0], ends[1]] = True
        adj[ends[1], ends[0]] = True
        key, closed = deg / step, step

        def mark(v: int, row: np.ndarray) -> np.ndarray:
            fresh = adj[v] & row
            row ^= fresh
            np.add(key, fresh, out=key)
            return fresh

        def unmark(row: np.ndarray, fresh: np.ndarray) -> None:
            row |= fresh
            np.subtract(key, fresh, out=key)

    else:
        _, indptr, indices = g.csr()
        key, closed = deg, step * step

        def mark(v: int, row: np.ndarray) -> np.ndarray:
            nbrs = indices[indptr[v] : indptr[v + 1]]
            fresh = nbrs[row[nbrs]]
            row[fresh] = False
            key[fresh] += step
            return fresh

        def unmark(row: np.ndarray, fresh: np.ndarray) -> None:
            row[fresh] = True
            key[fresh] -= step

    # rows double as colors open, so a star gets 2 rows, not Δ + 1
    free = np.ones((2, nv), dtype=bool)
    local = np.zeros(nv, dtype=np.int64)
    clique: list[int] = []
    comps = [] if k is None else _components(ends, nv)
    depth = 0  # vertices colored over all components
    for comp in comps if len(comps) > 1 else [None]:
        end = depth + (nv if comp is None else len(comp))
        opened = 0  # colors 0..opened-1 are in use in this component
        trail: list[tuple[int, np.ndarray, int]] = []  # (vertex, fresh, opened before)
        while depth < end:
            v = int(key.argmax()) if comp is None else int(comp[key[comp].argmax()])
            c = int(free[: opened + 1, v].argmax())
            while c == k:
                if not trail:
                    return None, []
                v, fresh, opened = trail.pop()
                depth -= 1
                c = int(local[v])
                unmark(free[c], fresh)
                key[v] += closed
                c = c + 1 + int(free[c + 1 : opened + 1, v].argmax()) if c < opened else k
            local[v] = c
            key[v] -= closed
            fresh = mark(v, free[c])
            if k is not None:
                trail.append((v, fresh, opened))
            elif c == depth == len(clique):  # unbounded, nothing is undone: no trail
                clique.append(v)
            depth += 1
            if c == opened:
                opened += 1
                if opened == len(free):
                    free = np.vstack((free, np.ones_like(free)))
    # color 0 also holds the vertices of degree 0, the first being where verts[i] - i first reaches 1
    isolated = np.searchsorted(verts - np.arange(nv), 1)
    ranked, num = first_appearance(np.append(local, 0), np.append(verts, isolated))
    colors.fill(ranked[-1])
    colors[verts] = ranked[:-1]
    return Coloring(colors=colors, num_colors=num), verts[clique].tolist()


def find_k_coloring(g: Graph, k: int) -> Coloring | None:
    """A proper k-coloring of `g` in canonical form (DSATUR's when it fits),
    or None if impossible."""
    if k < 1:
        raise ArgumentError("k must be >= 1")
    if g.num_edges == 0:
        return uniform_coloring(g.n)
    if k == 1:
        return None
    if k == 2:
        # canonical as it stands: vertex 0 is colored 0, and an edge uses both colors
        two = _two_coloring(g)
        return None if two is None else Coloring(colors=two, num_colors=2)
    return _search(g, k)[0]


def color_with_cap(g: Graph, cap: int | None = None) -> Coloring | None:
    """A coloring of `g` with exactly chi(g) colors; None when `cap` is given
    and chi(g) > cap (the 'exceeds cap' case)."""
    if cap is not None and cap < 1:
        raise ArgumentError("cap must be >= 1")
    # a proper coloring with at most two colors is minimum
    small = find_k_coloring(g, 2 if cap is None else min(cap, 2))
    if small is not None or (cap is not None and cap <= 2):
        return small
    greedy, clique = _search(g, None)
    hi = greedy.num_colors if cap is None else min(greedy.num_colors, cap + 1)
    # DSATUR's own clique settles chi when no k in [clique, hi) is left
    if len(clique) < hi:
        lb = max(3, len(clique), len(greedy_clique_lower_bound(g)))
        for k in range(lb, hi):
            found = _search(g, k)[0]
            if found is not None:
                return found
    return greedy if cap is None or greedy.num_colors <= cap else None


def chromatic_number(g: Graph, cap: int | None = None) -> int | None:
    """Exact chi(g); returns None when `cap` is given and chi(g) > cap.

    Conventions: chi = 0 for n = 0 and chi = 1 for edgeless n >= 1.
    """
    coloring = color_with_cap(g, cap)
    return None if coloring is None else coloring.num_colors
