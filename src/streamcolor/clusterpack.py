"""Cluster packing graphs: constructions, verification, and serialization.

An (r, t, k)-cluster packing graph is a k-colorable graph whose edges
partition into t induced clusters, each a vertex-disjoint union of r
k-cliques. Three constructions are provided:

* geometric lines over layered groups (`construct_lines_basic`, cluster
  size r = k, and `construct_lines_grouped` for free r),
* a dense layered construction driven by a low-intersection set family
  (`construct_dense`), whose clusters have near-maximal size, and
* a product lift (`lift_to_k_colorable`) that restores k-colorability for
  arbitrary inputs at the cost of k times more vertices.

Vertex numbering is frozen as layer-major, then group-major, then position,
so serialized graphs are reproducible across runs. A packing holds its
cliques as one ``(t, r, k)`` array and reads t, r and k off its shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    FormatError,
    GenerationError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .exact import find_k_coloring
from .graph import Coloring, Graph, Rows, format_rows, header_int, is_proper_coloring
from .graph import MAX_VERTICES, find_keys, read_header, repeats
from .seeds import rng_for

MAX_CLIQUES = 5_000_000
# the edges a packing may imply, checked before its pairs are built, by every
# construction and by `read_cpg` alike, so whatever a construction writes can
# be read back; a read peaks at about 120 (k = 3) to 180 (k = 2) bytes per
# edge under tracemalloc, measured on grouped packings of 331,776 and 524,288
# edges. At k = 2 most of it is `graph.Rows`, whose token starts, lengths and
# values take eight bytes each for the five tokens of each one-edge row
MAX_EDGES = 10_000_000


# ---------------------------------------------------------------------------
# set families with bounded pairwise intersection
# ---------------------------------------------------------------------------

# The seven lines of the Fano plane: a deterministic, seed-independent family
# over [7] with w = 3 and every pairwise intersection exactly 1.
FANO_LINES: tuple[tuple[int, ...], ...] = (
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
)


@dataclass(frozen=True)
class SetFamily:
    """Subsets of [d], all of size w, pairwise intersecting in <= theta."""

    d: int
    w: int
    theta: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for s in self.sets:
            if len(set(s)) != self.w:
                raise ArgumentError(f"set {s} does not have size {self.w}")
            if any(e < 0 or e >= self.d for e in s):
                raise ArgumentError(f"set {s} not contained in [0, {self.d})")
        for i in range(len(self.sets)):
            for j in range(i + 1, len(self.sets)):
                inter = set(self.sets[i]) & set(self.sets[j])
                if len(inter) > self.theta:
                    raise ArgumentError(
                        f"sets {i} and {j} intersect in {len(inter)} > {self.theta}"
                    )

    def __len__(self) -> int:
        return len(self.sets)


def fano_family(count: int = 7) -> SetFamily:
    """First `count` Fano-plane lines; deterministic fixture (d=7, w=3, theta=1)."""
    if not 1 <= count <= 7:
        raise ArgumentError("Fano family supports 1..7 sets")
    return SetFamily(d=7, w=3, theta=1, sets=FANO_LINES[:count])


def gen_intersection_family(
    d: int,
    w: int,
    theta: int,
    count: int,
    seed: int | None = None,
) -> SetFamily:
    """Sample `count` w-subsets of [d] with pairwise intersections <= theta.

    Candidates are drawn uniformly among w-subsets and rejected against the
    accepted prefix; generation fails after ``max(1000, 200 * count)`` draws.
    `fano_family` gives the deterministic Fano fixture instead.
    """
    if not (1 <= w <= d):
        raise ArgumentError(f"need 1 <= w <= d, got w={w}, d={d}")
    if not (0 <= theta < w):
        raise ArgumentError(f"need 0 <= theta < w, got theta={theta}")
    if count < 1:
        raise ArgumentError("count must be >= 1")
    rng = rng_for(seed, 0)
    budget = max(1000, 200 * count)
    accepted: list[tuple[int, ...]] = []
    accepted_sets: list[set[int]] = []
    last_conflict: tuple[tuple[int, ...], int] | None = None
    attempts = 0
    while len(accepted) < count:
        if attempts >= budget:
            detail = ""
            if last_conflict is not None:
                cand, idx = last_conflict
                detail = f"; last candidate {cand} violated the bound against set {idx}"
            raise GenerationError(
                f"could not extend family beyond {len(accepted)} sets in "
                f"{budget} attempts (d={d}, w={w}, theta={theta}){detail}"
            )
        attempts += 1
        cand = tuple(sorted(int(x) for x in rng.choice(d, size=w, replace=False)))
        cand_set = set(cand)
        ok = True
        for idx, s in enumerate(accepted_sets):
            if len(cand_set & s) > theta:
                last_conflict = (cand, idx)
                ok = False
                break
        if ok:
            accepted.append(cand)
            accepted_sets.append(cand_set)
    return SetFamily(d=d, w=w, theta=theta, sets=tuple(accepted))


# ---------------------------------------------------------------------------
# layouts (lazy cluster accessors shared with the hard-instance generators)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineLayout:
    """Layered geometric-lines layout on n vertices.

    Vertices split into k layers of n/k; each layer into groups of size r.
    Cluster (b, q) consists of the r cliques on lines that start in group b
    of layer 0 and advance q groups per layer; two distinct lines meet in at
    most one vertex, which is what makes every cluster induced. Parameters
    that leave no line, or do not tile n, raise `ArgumentError`, and n past
    `MAX_VERTICES` raises `ResourceLimitError`, at construction.
    """

    n: int
    k: int
    r: int

    def __post_init__(self):
        if self.k < 2:
            raise ArgumentError("clique size k must be >= 2")
        if self.r < 1:
            raise ArgumentError("cluster size r must be >= 1")
        if self.n % (self.k * self.r) != 0:
            raise ArgumentError(f"k*r = {self.k * self.r} must divide n = {self.n}")
        if self.b_range < 1 or self.q_range < 1:
            raise ArgumentError(
                f"line ranges empty: floor(n/2kr) = {self.b_range}, "
                f"floor(n/2k^2r) = {self.q_range}"
            )
        if self.n > MAX_VERTICES:
            raise ResourceLimitError(f"n = {self.n} exceeds guard {MAX_VERTICES}")
        # lines must stay inside the group range
        top = (self.b_range - 1) + (self.k - 1) * (self.q_range - 1)
        assert top < self.groups_per_layer

    @property
    def layer_size(self) -> int:
        return self.n // self.k

    @property
    def groups_per_layer(self) -> int:
        return self.layer_size // self.r

    @property
    def b_range(self) -> int:
        return self.n // (2 * self.k * self.r)

    @property
    def q_range(self) -> int:
        return self.n // (2 * self.k * self.k * self.r)

    @property
    def t_max(self) -> int:
        return self.b_range * self.q_range

    def cluster(self, index: int) -> np.ndarray:
        """The ``(r, k)`` cliques of cluster `index`, one row each, one vertex per layer."""
        if not 0 <= index < self.t_max:
            raise ArgumentError(f"cluster index {index} out of range [0, {self.t_max})")
        return self._line(*divmod(index, self.q_range), np.arange(self.r, dtype=np.int64)[:, None])

    def clusters(self) -> np.ndarray:
        """All t_max clusters as one ``(t_max, r, k)`` int64 array."""
        b, q = np.divmod(np.arange(self.t_max, dtype=np.int64)[:, None, None], self.q_range)
        return self._line(b, q, np.arange(self.r, dtype=np.int64)[:, None])

    def _line(self, b, q, s) -> np.ndarray:
        """The vertex on each layer of the line that starts at position s of
        group b and advances q groups per layer; broadcasts over b, q and s."""
        layer = np.arange(self.k, dtype=np.int64)
        return layer * self.layer_size + (b + layer * q) * self.r + s


@dataclass(frozen=True)
class DenseParams:
    """The dense layered construction: its parameters and its cluster accessor.

    Layers are [p]^d; for a set S the weight w_S(x) = sum of S-coordinates
    splits each layer into groups of width |S|, colored cyclically
    (c_1, white, c_2, white, ..., c_k, white). Inducedness needs the strict
    bound theta < w/2 and lines need p >= 2k + 1. Invalid parameters raise
    `ArgumentError`, and sizes past `MAX_VERTICES` vertices or `MAX_CLIQUES`
    cliques raise `ResourceLimitError`, at construction.
    """

    k: int
    d: int
    p: int
    family: SetFamily
    r: int = field(init=False)  # cliques per cluster
    _powers: np.ndarray = field(init=False, repr=False, compare=False)
    _starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise ArgumentError("clique size k must be >= 2")
        if self.family.d != self.d:
            raise ArgumentError(
                f"family universe {self.family.d} does not match d={self.d}"
            )
        if self.family.w < 1:
            raise ArgumentError("set size w must be >= 1")
        if not self.family.theta * 2 < self.family.w:
            raise ArgumentError(
                f"inducedness requires theta < w/2 strictly "
                f"(theta={self.family.theta}, w={self.family.w})"
            )
        if self.p < 2 * self.k + 1:
            raise ArgumentError(f"need p >= 2k+1 = {2 * self.k + 1}, got p={self.p}")
        if self.n > MAX_VERTICES:
            raise ResourceLimitError(f"n = {self.n} exceeds guard {MAX_VERTICES}")
        w, top = self.family.w, self.p - 2 * self.k
        # the S-coordinate tuples that are colored c_1 and leave room for the
        # line: each coordinate z_i of a start satisfies 1 <= z_i <= p - 2k.
        # Whether a tuple is colored c_1 depends only on its sum, so they are
        # counted first, from how many tuples have each sum (the range's
        # indicator convolved w times), and listed only within the guard
        sums = np.arange(w, w * top + 1)
        colored = ((sums // w - 1) % (2 * self.k) == 0).tolist()
        ways = np.ones(1, np.int64)  # ways[i]: the tuples summing to sums[i]
        for _ in range(w):
            ways = np.convolve(ways, np.ones(top, np.int64))
        count = int(ways[colored].sum())
        object.__setattr__(self, "r", count * self.p ** (self.d - w))
        total = self.r * self.t_max
        if total > MAX_CLIQUES:
            raise ResourceLimitError(
                f"construction would materialize {total} cliques (guard {MAX_CLIQUES})"
            )
        starts = [z for z in itertools.product(range(1, top + 1), repeat=w) if colored[sum(z) - w]]
        object.__setattr__(self, "_starts", np.array(starts, np.int64).reshape(-1, w))
        object.__setattr__(self, "_powers", self.p ** np.arange(self.d - 1, -1, -1, dtype=np.int64))

    @property
    def layer_size(self) -> int:
        return self.p**self.d

    @property
    def n(self) -> int:
        return self.k * self.layer_size

    @property
    def t_max(self) -> int:
        return len(self.family)

    def cluster(self, index: int) -> np.ndarray:
        """The ``(r, k)`` cliques of cluster `index`, one row each.

        Rows run over the line starts, then the free coordinates in
        lexicographic order; the vertex on layer a of a line adds
        ``a * (layer_size + 2 * sum of the S-powers)`` to its layer-0 id.
        """
        s = list(self.family.sets[index])
        ids = (self._starts - 1) @ self._powers[s]
        for pos in (j for j in range(self.d) if j not in s):
            ids = (ids[:, None] + np.arange(self.p) * self._powers[pos]).ravel()
        step = self.layer_size + 2 * int(self._powers[s].sum())
        return ids[:, None] + np.arange(self.k) * step

    def clusters(self) -> np.ndarray:
        """All t_max clusters as one ``(t_max, r, k)`` int64 array."""
        shape = (self.t_max, self.r, self.k)
        return np.array([self.cluster(i) for i in range(self.t_max)], np.int64).reshape(shape)


# ---------------------------------------------------------------------------
# the cluster packing graph type and its constructors
# ---------------------------------------------------------------------------

# the constructions a packing's ``layout`` may name; each has a layer coloring
_LAYOUTS = ("basic", "grouped", "dense", "lifted")


@dataclass(frozen=True)
class ClusterPackingGraph:
    """Graph plus its explicit partition into t induced k-clusters of size r.

    ``clusters`` is a read-only ``(t, r, k)`` int64 array: ``clusters[i, j]``
    holds the ordered vertices of the j-th k-clique of cluster i, and `t`,
    `r` and `k` are read off its shape. Any array that is not 3-D, a ragged
    nesting, or a vertex outside the graph raises `ArgumentError`.
    ``layout`` names the construction ("basic", "grouped", "dense",
    "lifted"); all four place layer/copy a at vertex range
    ``[a*n/k, (a+1)*n/k)``, which is what `canonical_coloring` relies on.
    """

    graph: Graph
    clusters: np.ndarray
    layout: str | None = None

    def __post_init__(self):
        try:
            arr = np.array(self.clusters)
        except ValueError:
            raise ArgumentError("clusters must be a (t, r, k) integer array, not a ragged nesting")
        if arr.ndim != 3 or (arr.size and arr.dtype.kind not in "iu"):
            raise ArgumentError(f"clusters must be a (t, r, k) integer array, got {arr.dtype} {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.graph.n):
            raise ArgumentError(f"clusters hold a vertex outside [0, {self.graph.n})")
        arr = arr.astype(np.int64, copy=False)
        arr.flags.writeable = False
        object.__setattr__(self, "clusters", arr)

    @property
    def t(self) -> int:
        return self.clusters.shape[0]

    @property
    def r(self) -> int:
        return self.clusters.shape[1]

    @property
    def k(self) -> int:
        return self.clusters.shape[2]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClusterPackingGraph)
            and (self.graph, self.layout) == (other.graph, other.layout)
            and np.array_equal(self.clusters, other.clusters)
        )


def _clique_pairs(cliques: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(u, v)`` pairs, ``u <= v``, that the rows of a ``(rows, k)``
    clique array imply, as a ``(rows, k(k-1)/2, 2)`` array, and their keys
    ``u * n + v``."""
    ordered = np.sort(cliques, axis=1)
    # with no rows, a header's k alone must not size the index grid
    a, b = np.triu_indices(cliques.shape[1] if len(cliques) else 0, 1)
    pairs = np.stack((ordered[:, a], ordered[:, b]), axis=-1)
    return pairs, pairs[..., 0] * n + pairs[..., 1]


def _implied_again(keys: np.ndarray) -> np.ndarray:
    """For each row of clique pair keys, whether it implies a pair an earlier row implies."""
    return repeats(keys.ravel()).reshape(keys.shape).any(1)


def _assemble(n: int, clusters: np.ndarray, layout: str) -> ClusterPackingGraph:
    """The graph a ``(t, r, k)`` clusters array implies; raises if two cliques imply one edge."""
    t, r, k = clusters.shape
    pairs, keys = _clique_pairs(clusters.reshape(t * r, k), n)
    again = _implied_again(keys)
    if again.any():
        raise GenerationError(f"clique {np.argmax(again)} implies an edge implied before")
    return ClusterPackingGraph(Graph(n, pairs.reshape(-1, 2)), clusters, layout)


def _check_edges(t: int, r: int, k: int) -> None:
    """Refuse t clusters of r k-cliques when they imply more than `MAX_EDGES` edges."""
    edges = t * r * k * (k - 1) // 2
    if edges > MAX_EDGES:
        raise ResourceLimitError(
            f"t={t} clusters of r={r} cliques of k={k} imply {edges} edges (guard {MAX_EDGES})"
        )


def _build_cpg(layout: "LineLayout | DenseParams", name: str) -> ClusterPackingGraph:
    """The packing of every cluster of `layout`, named `name`; refuses more than `MAX_EDGES` edges."""
    _check_edges(layout.t_max, layout.r, layout.k)
    return _assemble(layout.n, layout.clusters(), name)


def construct_lines_basic(n: int, k: int) -> ClusterPackingGraph:
    """Cluster packing graph with r = k and t = floor(n/2k^2)*floor(n/2k^3)."""
    return _build_cpg(LineLayout(n=n, k=k, r=k), "basic")


def construct_lines_grouped(n: int, r: int, k: int) -> ClusterPackingGraph:
    """Cluster packing graph with free r and t = floor(n/2kr)*floor(n/2k^2r)."""
    if r * k * r * k > n:
        raise ArgumentError(f"need r*k <= sqrt(n): r*k = {r * k}, n = {n}")
    return _build_cpg(LineLayout(n=n, k=k, r=r), "grouped")


def construct_dense(params: DenseParams) -> ClusterPackingGraph:
    """Dense construction: one cluster per family set, on n = k*p^d vertices."""
    return _build_cpg(params, "dense")


def lift_to_k_colorable(cpg: ClusterPackingGraph) -> ClusterPackingGraph:
    """k copies of the vertex set, cliques spread over cyclically-permuted copies.

    Clique j of a cluster spawns cliques ``j*k + ell`` for ``ell < k``, whose
    vertex in copy a is ``a*n + clique[(a + ell) % k]``. Output parameters:
    n' = n*k, r' = r*k, t' = t; the output is k-colorable by coloring each
    copy with one color.
    """
    n, k, t, r = cpg.graph.n, cpg.k, cpg.t, cpg.r
    if n * k > MAX_VERTICES:
        raise ResourceLimitError(f"lifted n = {n * k} exceeds guard {MAX_VERTICES}")
    _check_edges(t, r * k, k)
    copy = np.arange(k)
    slot = (copy + copy[:, None]) % k  # slot[ell, a] = (a + ell) % k
    lifted = cpg.clusters[:, :, slot] + copy * n
    return _assemble(n * k, lifted.reshape(t, r * k, k), "lifted")


def canonical_coloring(cpg: ClusterPackingGraph) -> Coloring:
    """The k-coloring by layer (or by copy, for lifted graphs)."""
    if cpg.layout not in _LAYOUTS:
        raise UnsupportedInputError(
            f"layout metadata {cpg.layout!r} does not expose layers"
        )
    n, k = cpg.graph.n, cpg.k
    size = n // k
    return Coloring.from_array(np.arange(n, dtype=np.int64) // size)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            lines.append(f"{c.name}: {status}{suffix}")
        return "\n".join(lines)


EXACT_FALLBACK_LIMIT = 2000


def _spread(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The indices of the ranges ``[start, start + count)``, range after range."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _edges_inside(q: Graph, members: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The keys ``e * t + c``, sorted, of each edge e of `q` with both ends in cluster c.

    `members` holds the sorted keys ``c * n + v`` of each cluster c's distinct
    vertices v, and ``rows[c]`` lists c's vertices. From each member v of c,
    the shorter of two lists is searched for the edges (v, w) with w in c:
    v's neighbours in `q`, each looked up among c's members, or ``rows[c]``,
    each (v, w) looked up among the edges of `q`. The second search takes
    only w > v: a pair of members that both search ``rows[c]`` is then
    found once, and a pair with a member that searches its neighbours is
    found by that member.
    """
    n, (t, size) = q.n, rows.shape
    verts, indptr, indices = q.csr()
    if not len(verts):
        return np.empty(0, np.int64)
    c, v = np.divmod(members, n)
    i = np.minimum(np.searchsorted(verts, v), len(verts) - 1)
    degree = np.where(verts[i] == v, indptr[i + 1] - indptr[i], 0)
    walk = degree < size
    src = np.repeat(np.flatnonzero(walk), degree[walk])
    w = verts[indices[_spread(indptr[i[walk]], degree[walk])]]
    held = find_keys(members, c[src] * n + w) >= 0
    w_row = rows[c[~walk]]
    later = w_row > v[~walk, None]
    src = np.concatenate((src[held], np.flatnonzero(~walk).repeat(later.sum(1))))
    w = np.concatenate((w[held], w_row[later]))
    a = q.edge_array()
    e = find_keys(a[:, 0] * n + a[:, 1], np.minimum(v[src], w) * n + np.maximum(v[src], w))
    return np.unique((e * t + c[src])[e >= 0])


def _pair(key, n: int) -> tuple[int, int]:
    return tuple(map(int, divmod(key, n)))


def verify_cluster_packing(cpg: ClusterPackingGraph) -> VerificationReport:
    """Check the five defining properties; failures carry counterexamples.

    Checks: (1) the cliques' edges exactly partition the graph's edges,
    (2) each cluster is r vertex-disjoint k-cliques, (3) every cluster is
    induced, (4) pairwise cluster vertex intersections are <= r, and
    (5) the graph is k-colorable. Checks 1-4 are array passes over the
    clique pair keys ``u * n + v`` and the member keys ``c * n + v``.
    """
    checks: list[CheckResult] = []
    g, (t, r, k) = cpg.graph, cpg.clusters.shape
    n, edges = g.n, g.edge_array()
    graph_keys = edges[:, 0] * n + edges[:, 1]
    cliques = cpg.clusters.reshape(t * r, k)
    pairs, keys = _clique_pairs(cliques, n)

    # each cluster's distinct pair keys, ordered by key and then cluster
    key, owner = keys.ravel(), np.repeat(np.arange(t), r * keys.shape[1])
    order = np.lexsort((owner, key))
    key, owner = key[order], owner[order]
    fresh = (np.diff(key, prepend=-1) != 0) | (np.diff(owner, prepend=-1) != 0)
    key, owner = key[fresh], owner[fresh]
    later = np.diff(key, prepend=-1) == 0  # a pair an earlier cluster implies

    # (1) edge partition exactness
    detail = ""
    implied = key[~later]
    if later.any():
        ci = owner[later].min()
        e = key[later & (owner == ci)].min()
        first = owner[np.searchsorted(key, e)]
        detail = f"edge {_pair(e, n)} implied by clusters {first} and {ci}"
    elif not np.array_equal(implied, graph_keys):
        missing = np.setdiff1d(graph_keys, implied, assume_unique=True)
        extra = np.setdiff1d(implied, graph_keys, assume_unique=True)
        if len(missing):
            detail = f"graph edge {_pair(missing[0], n)} not covered by any cluster"
        else:
            detail = f"implied edge {_pair(extra[0], n)} absent from the graph"
    checks.append(CheckResult("edge-partition", not detail, detail))

    # (2) cluster structure: r vertex-disjoint k-cliques each. The member
    # keys c * n + v, sorted stably, put each vertex's cliques in ascending
    # order; a repeat in its own clique fails that clique first.
    detail = ""
    member = np.repeat(np.arange(t), r * k) * n + cpg.clusters.ravel()
    order = np.argsort(member, kind="stable")
    member, row = member[order], order // k
    reuse = np.diff(member, prepend=-1) == 0  # the vertex is in an earlier clique of its cluster
    repeated = (pairs[..., 0] == pairs[..., 1]).any(1)
    fails = np.concatenate((np.flatnonzero(repeated), row[reuse]))
    if len(fails):
        first = fails.min()
        ci = first // r
        if repeated[first]:
            clique = tuple(cliques[first].tolist())
            detail = f"cluster {ci} clique {clique} is not {k} distinct vertices"
        else:
            detail = f"cluster {ci} reuses vertex {(member[reuse] % n)[row[reuse] == first].min()}"
    checks.append(CheckResult("cluster-structure", not detail, detail))
    members = member[~reuse]

    # the graph's edges and the cliques' own pairs, each found in every
    # cluster that holds both of its ends
    own = key // n != key % n
    q = Graph(n, np.concatenate((edges, np.column_stack(np.divmod(key[own], n)))))
    a = q.edge_array()
    q_keys = a[:, 0] * n + a[:, 1]
    inside = _edges_inside(q, members, cpg.clusters.reshape(t, r * k))
    e_in, c_in = np.divmod(inside, t)
    own_e, own_c = find_keys(q_keys, key[own]), owner[own]

    # (3) inducedness: an edge with both endpoints inside a cluster's vertex
    # set must be one of that cluster's own edges
    detail = ""
    bad = np.flatnonzero((find_keys(graph_keys, q_keys[e_in]) >= 0) & (find_keys(own_e * t + own_c, inside) < 0))
    if len(bad):
        detail = (
            f"edge {_pair(q_keys[e_in[bad[0]]], n)} lies inside cluster {c_in[bad[0]]}'s "
            f"vertex set but is not one of its edges"
        )
    checks.append(CheckResult("inducedness", not detail, detail))

    # (4) pairwise cluster vertex intersections <= r. Clusters sharing more
    # than r vertices share two of one clique (r cliques cover a cluster), so
    # only cluster pairs that hold both ends of one clique pair are counted.
    detail = ""
    lo, hi = np.searchsorted(own_e, e_in), np.searchsorted(own_e, e_in, "right")
    c1, c2 = own_c[_spread(lo, hi - lo)], np.repeat(c_in, hi - lo)
    cand = np.unique((np.minimum(c1, c2) * t + np.maximum(c1, c2))[c1 != c2])
    c1, c2 = np.divmod(cand, t)
    start = np.searchsorted(members, np.arange(t + 1) * n)
    size = np.diff(start)[c1]
    pair = np.repeat(np.arange(len(cand)), size)
    vertex = members[_spread(start[c1], size)] % n
    shared = np.bincount(pair[find_keys(members, c2[pair] * n + vertex) >= 0], minlength=len(cand))
    over = np.flatnonzero(shared > r)
    if len(over):
        i = over[0]
        detail = f"clusters {c1[i]} and {c2[i]} share {shared[i]} vertices > r = {r}"
    checks.append(CheckResult("cluster-overlap", not detail, detail))

    # (5) k-colorability
    color_ok = True
    detail = ""
    if cpg.layout in _LAYOUTS:
        coloring = canonical_coloring(cpg)
        if coloring.num_colors > cpg.k or not is_proper_coloring(g, coloring):
            color_ok = False
            detail = "canonical layer coloring is not a proper k-coloring"
    elif g.n <= EXACT_FALLBACK_LIMIT:
        if find_k_coloring(g, cpg.k) is None:
            color_ok = False
            detail = f"graph is not {cpg.k}-colorable (exact solver)"
    else:
        color_ok = False
        detail = "no layout metadata and graph too large for the exact fallback"
    checks.append(CheckResult("k-colorable", color_ok, detail))

    return VerificationReport(tuple(checks))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CPG_HEADER = "#cpg v1"
_CLIQUE = {0: ("C",)}  # the literal that starts each clique row


def write_cpg(cpg: ClusterPackingGraph, path: str) -> None:
    """CPG text format: header, then one ``C <cluster> <clique> v...`` per clique.

    The header names the layout, so a packing whose ``layout`` is not one of
    the constructions raises `ArgumentError`.
    """
    if cpg.layout not in _LAYOUTS:
        raise ArgumentError(f"cannot write layout {cpg.layout!r}; need one of {_LAYOUTS}")
    t, r, k = cpg.clusters.shape
    header = f"{CPG_HEADER} n={cpg.graph.n} k={k} r={r} t={t} layout={cpg.layout}\n"
    ci, ji = np.divmod(np.arange(t * r), r)
    rows = np.column_stack((np.zeros_like(ci), ci, ji, cpg.clusters.reshape(t * r, k)))
    with open(path, "wb") as f:
        f.write(header.encode("utf-8"))
        f.write(format_rows(rows, _CLIQUE))


def read_cpg(path: str) -> ClusterPackingGraph:
    fields, body = read_header(path, CPG_HEADER)
    n, t = header_int(fields, "n"), header_int(fields, "t")
    k, r = header_int(fields, "k", 1), header_int(fields, "r", 1)
    layout = fields.get("layout")
    if layout not in _LAYOUTS:
        raise FormatError(f"header must carry layout=<{'|'.join(_LAYOUTS)}>", line=1)
    # the pairs the header promises, counted before any is built
    edges, pairs = t * r * k * (k - 1) // 2, n * (n - 1) // 2
    if edges > pairs:
        raise FormatError(
            f"t * r cliques of k vertices imply {edges} edges; n={n} has {pairs} pairs", line=1
        )
    _check_edges(t, r, k)
    rows = Rows(body, 3 + k, _CLIQUE)
    _, ci, ji = rows.data[:, :3].T
    cliques = rows.data[:, 3:]
    rows.check(
        ((ci < 0) | (ci >= t), "cluster index out of range"),
        ((ji < 0) | (ji >= r), "clique index out of range"),
        (repeats(ci * r + ji), "duplicate clique"),
        ((cliques.min(1) < 0) | (cliques.max(1) >= n), f"vertex out of range for n={n}"),
        ((np.diff(np.sort(cliques, axis=1), axis=1) == 0).any(1), "clique repeats a vertex"),
        (_implied_again(_clique_pairs(cliques[: t * r], n)[1]), "edge implied twice"),
    )
    if len(cliques) != t * r:
        raise FormatError(f"header promises t * r = {t * r} cliques, not {len(cliques)}", line=1)
    return _assemble(n, cliques[np.argsort(ci * r + ji)].reshape(t, r, k), layout)
