"""Hard-instance generators with hidden answer bits and checkable witnesses.

Three families are provided, each splitting a graph's edges among players
and hiding a bit that decides the chromatic number:

* `gen_two_player`: a cluster index is either "filled" (its cliques appear,
  joining into a k^2-clique with the cross edges) or not (the graph stays
  2k-colorable).
* `gen_recursive`: the p-player recursion; a smaller instance is embedded
  into one cluster of a host packing graph through clique joins, giving a
  k*p vs k^p chromatic gap certified constructively in both directions.
* `gen_simultaneous`: p = C(k,2) players each holding a relabeled random
  bipartite graph whose hidden special pairs either form a k-clique or are
  all absent (3-colorable case).

Every generator is a pure function of (parameters, seed); answer-bit
overrides exist so tests can exercise both branches deterministically, and
each refuses, before any draw, parts that may hold more than
`clusterpack.MAX_EDGES` edges. The families share one surface:
`union_graph()`, `edge_parts()`, `witness_coloring` (answer bit 0) and
`verify_instance`, whose gap check calls that witness. Sizes, a recursive
plan and the simultaneous clique are read off the stored data.
`read_instance` regenerates a file's instance and compares every top-level
field with it.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import clusterpack
from .errors import ArgumentError, FormatError, GenerationError, ResourceLimitError
from .clusterpack import CheckResult, LineLayout, VerificationReport, _clique_pairs, _pair
from .graph import MAX_VERTICES, Coloring, Graph, is_proper_coloring, read_json
from .graph import canonical_json, missing_clique_pair, write_text
from .seeds import rng_for

WITNESS_VERTEX_LIMIT = 50_000_000


def _edges(n: int, pairs: np.ndarray) -> np.ndarray:
    """`pairs` as a player part: the read-only, sorted, distinct ``(u, v)`` rows."""
    return Graph(n, pairs.reshape(-1, 2)).edge_array()


def _clique_edges(n: int, cliques: np.ndarray) -> np.ndarray:
    """The part holding every pair inside each row of a ``(rows, k)`` clique array."""
    return _edges(n, _clique_pairs(cliques, n)[0])


def _spec(cliques: np.ndarray) -> np.ndarray:
    """The vertices of the given cliques, ascending: an instance's special set."""
    return np.sort(cliques, axis=None)


def _layer_coloring(n: int, k: int, base: int, cliques: np.ndarray, clique_colors) -> Coloring:
    """Each vertex takes color `base` plus its layer of ``n // k`` vertices, then
    every row of the ``(rows, k)`` array `cliques` its entry of `clique_colors`."""
    colors = base + np.arange(n, dtype=np.int64) // (n // k)
    colors[cliques] = np.asarray(clique_colors)[:, None]
    return Coloring.from_array(colors)


def _bicliques(n: int, cliques: np.ndarray, joins: np.ndarray) -> np.ndarray:
    """The part holding the biclique between ``cliques[a]`` and ``cliques[b]``
    for each row ``(a, b)`` of `joins`; the cliques must be disjoint."""
    k = cliques.shape[1]
    u = np.repeat(cliques[joins[:, 0]], k, axis=1)
    v = np.tile(cliques[joins[:, 1]], (1, k))
    return _edges(n, np.stack((u, v), axis=-1))


# ---------------------------------------------------------------------------
# two-player instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoPlayerInstance:
    seed: int | None
    ans_override: int | None
    host: LineLayout  # the basic lines layout, r = k, whose n, k and t_max are the instance's
    i_star: int
    x: np.ndarray  # shape (t,), 0/1
    ans: int
    e1: np.ndarray  # read-only (m, 2) int64 rows, sorted
    e2: np.ndarray
    spec: np.ndarray  # sorted int64 vertex ids

    @property
    def n(self) -> int:
        return self.host.n

    @property
    def k(self) -> int:
        return self.host.k

    @property
    def t(self) -> int:
        return self.host.t_max

    def edge_parts(self) -> tuple[np.ndarray, ...]:
        return (self.e1, self.e2)

    def union_graph(self) -> Graph:
        return Graph(self.n, np.concatenate(self.edge_parts()))


def _two_player_parts(host: LineLayout, x: np.ndarray, i_star: int) -> tuple[np.ndarray, np.ndarray]:
    """Player 1 holds the cliques of every cluster whose bit is one; player 2
    the join of every two cliques of the hidden cluster."""
    joins = np.column_stack(np.triu_indices(host.r, 1))
    e1 = _clique_edges(host.n, host.clusters()[x != 0].reshape(-1, host.k))
    return e1, _bicliques(host.n, host.cluster(i_star), joins)


def gen_two_player(
    n: int, k: int, seed: int | None = None, ans_override: int | None = None
) -> TwoPlayerInstance:
    """Sample a two-player instance over the basic lines construction.

    Player 1 holds the cliques of every cluster whose bit is one; player 2
    holds the cross-clique join inside the hidden cluster. The answer bit is
    that cluster's bit: 1 means the special k^2 vertices form a clique,
    0 means the union graph is 2k-colorable.
    """
    if ans_override not in (None, 0, 1):
        raise ArgumentError("ans_override must be None, 0, or 1")
    host = LineLayout(n=n, k=k, r=k)
    clusterpack._check_edges(host.t_max, k, k)
    rng = rng_for(seed, 10)
    i_star = int(rng.integers(host.t_max))
    x = rng.integers(0, 2, size=host.t_max).astype(np.uint8)
    if ans_override is not None:
        x[i_star] = ans_override
    ans = int(x[i_star])
    e1, e2 = _two_player_parts(host, x, i_star)
    return TwoPlayerInstance(
        seed=seed,
        ans_override=ans_override,
        host=host,
        i_star=i_star,
        x=x,
        ans=ans,
        e1=e1,
        e2=e2,
        spec=_spec(host.cluster(i_star)),
    )


# ---------------------------------------------------------------------------
# recursive instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelSpec:
    """One recursion level a >= 3: host size n_a and materialized cluster count."""

    n: int
    t: int = 8


@dataclass(frozen=True)
class LevelPlan:
    """Base-case size n_2 plus one LevelSpec per level a = 3..p (in order)."""

    n2: int
    levels: tuple[LevelSpec, ...] = ()


def default_level_plan(
    p: int, k: int, *, n2: int | None = None, level_n: Sequence[int] = (), level_t: Sequence[int] = ()
) -> LevelPlan:
    """Smallest convenient plan: grouped hosts at n_a = (k * r_a)^2 with
    r_a = 4 n_{a-1}, from n_2 = max(2k^3, 16k^2), each with t_a = 8 clusters.

    `n2` replaces n_2, and entry i of `level_n` or `level_t` replaces n_a or
    t_a of level a = i + 3; the chain goes on from a replaced size, and a
    list longer than the p - 2 levels raises `ArgumentError`.
    """
    if p < 2:
        raise ArgumentError("player count p must be >= 2")
    if max(len(level_n), len(level_t)) > p - 2:
        raise ArgumentError(f"p = {p} takes at most {p - 2} level_n and level_t values")
    n2 = max(2 * k**3, 16 * k**2) if n2 is None else n2
    levels, n = [], n2
    for i in range(p - 2):
        n = level_n[i] if i < len(level_n) else (k * 4 * n) ** 2
        levels.append(LevelSpec(n=n, t=level_t[i] if i < len(level_t) else 8))
    return LevelPlan(n2=n2, levels=tuple(levels))


def sample_intersecting_sets(
    rng: np.random.Generator, universe: int, size: int, overlap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample (T, T intersect S, S) as sorted int64 arrays: T and S of `size`
    elements of ``range(universe)``, meeting in `overlap`.

    T is uniform; S is uniform conditioned on the intersection size, which
    makes the intersection uniform over all `overlap`-subsets of T.
    """
    if not 0 <= overlap <= size <= universe:
        raise ArgumentError("need 0 <= overlap <= size <= universe")
    if size - overlap > universe - size:
        raise ArgumentError("not enough room outside T for the rest of S")
    big_t = np.sort(rng.choice(universe, size=size, replace=False))
    inter = np.sort(rng.choice(big_t, size=overlap, replace=False))
    rest = rng.choice(np.setdiff1d(np.arange(universe), big_t), size=size - overlap, replace=False)
    return big_t, inter, np.union1d(inter, rest)


@dataclass(frozen=True)
class RecursiveInstance:
    """The p-player instance: the random choices of level a = p, on a grouped
    host of `t` materialized clusters, and the embedded (p-1)-player instance,
    whose chain down to the two-player base gives `p` and `plan`."""

    seed: int | None
    ans_override: int | None
    host: LineLayout  # the grouped lines layout, r = 4 * inner.n
    cluster_ids: np.ndarray  # sorted, shape (t,)
    i_star: int  # index into cluster_ids
    sets: np.ndarray  # shape (t, r/4): row i is S_i, sorted
    big_t: np.ndarray  # the set T of clique indices, sorted
    intersection: np.ndarray  # S_{i*} intersect T, sorted
    x: np.ndarray  # shape (t, r)
    sigma: np.ndarray  # inner vertex -> clique index in T
    e1: np.ndarray  # read-only (m, 2) int64 rows, sorted
    join_parts: tuple[np.ndarray, ...]  # players 2..p in outer ids
    inner: "RecursiveInstance | TwoPlayerInstance"
    ans: int
    spec: np.ndarray

    @property
    def n(self) -> int:
        return self.host.n

    @property
    def r(self) -> int:
        return self.host.r

    @property
    def k(self) -> int:
        return self.host.k

    @property
    def t(self) -> int:
        return len(self.cluster_ids)

    @property
    def p(self) -> int:
        return 3 if isinstance(self.inner, TwoPlayerInstance) else self.inner.p + 1

    @property
    def plan(self) -> LevelPlan:
        """The base's n_2, then one ``LevelSpec(n, t)`` per level from a = 3 up to this one."""
        if isinstance(self.inner, TwoPlayerInstance):
            below = LevelPlan(n2=self.inner.n)
        else:
            below = self.inner.plan
        return LevelPlan(n2=below.n2, levels=below.levels + (LevelSpec(n=self.n, t=self.t),))

    def istar_cliques(self) -> np.ndarray:
        """The ``(r, k)`` cliques of the hidden cluster, one row each."""
        return self.host.cluster(self.cluster_ids[self.i_star])

    def edge_parts(self) -> tuple[np.ndarray, ...]:
        return (self.e1,) + self.join_parts

    def union_graph(self) -> Graph:
        return Graph(self.n, np.concatenate(self.edge_parts()))


def _validate_level(a: int, k: int, n: int, r: int, t_override: int) -> LineLayout:
    if r % 8 != 0:
        raise ArgumentError(f"level {a}: r_a = {r} must be divisible by 8")
    if r // 8 < k ** (a - 1):
        raise ArgumentError(
            f"level {a}: need r_a/8 >= k^(a-1) = {k ** (a - 1)}, got {r // 8}"
        )
    if (k * r) ** 2 > n:
        raise ArgumentError(
            f"level {a}: grouped host needs k*r <= sqrt(n); k*r = {k * r}, n = {n}"
        )
    try:
        layout = LineLayout(n=n, k=k, r=r)
        if not 1 <= t_override <= layout.t_max:
            raise ArgumentError(f"t override {t_override} outside [1, {layout.t_max}]")
        # player 1 holds r/8 cliques of each materialized cluster
        clusterpack._check_edges(t_override, r // 8, k)
    except (ArgumentError, ResourceLimitError) as exc:
        raise type(exc)(f"level {a}: {exc}")
    return layout


def _recursive_parts(
    host: LineLayout, cluster_ids, sets, x: np.ndarray, i_star: int, sigma, inner_parts
) -> tuple[np.ndarray, ...]:
    """Player 1 holds clique j of materialized cluster i when j is in S_i and
    ``x[i, j] = 1``; player a >= 2 holds, for each edge (u, v) of inner player
    a - 1, the biclique between cliques sigma(u) and sigma(v) of the hidden
    cluster."""
    clusters = np.stack([host.cluster(c) for c in cluster_ids])
    rows = np.arange(len(sets))[:, None]
    e1 = _clique_edges(host.n, clusters[rows, sets][x[rows, sets] == 1])
    joins = (_bicliques(host.n, clusters[i_star], sigma[part]) for part in inner_parts)
    return (e1, *joins)


def gen_recursive(
    p: int,
    k: int,
    plan: LevelPlan | None = None,
    seed: int | None = None,
    ans_override: int | None = None,
) -> "RecursiveInstance | TwoPlayerInstance":
    """Sample the p-player recursive instance; p = 2 is the two-player base.

    p is at most 3. The base's host ``LineLayout(n_2, k, r=k)`` needs
    n_2 >= 2k^3, and `_validate_level` asks level a for (k r_a)^2 <= n_a with
    r_a = 4 n_{a-1}. So n_3 >= (4k n_2)^2 >= 2^6 k^8 and n_4 >= (4k n_3)^2 >=
    2^16 k^18, at least 2^34 (1.7e10) since k >= 2: no plan for p >= 4 fits
    `graph.MAX_VERTICES`, and such a p is refused before any draw.
    """
    if p < 2:
        raise ArgumentError("player count p must be >= 2")
    if p > 3:
        raise ArgumentError(
            f"player count p = {p} has no plan: level 4 needs n_4 >= 2^16 k^18 >= "
            f"{2**34} vertices, above the guard {MAX_VERTICES}"
        )
    if ans_override not in (None, 0, 1):
        raise ArgumentError("ans_override must be None, 0, or 1")
    if plan is None:
        plan = default_level_plan(p, k)
    if len(plan.levels) != max(0, p - 2):
        raise ArgumentError(
            f"plan supplies {len(plan.levels)} levels, expected {max(0, p - 2)}"
        )
    if p == 2:
        return gen_two_player(plan.n2, k, seed=seed, ans_override=ans_override)

    # r_3 = 4 n_2: T, a quarter of a cluster's cliques, holds the base's vertices
    inner_n = plan.n2
    spec_level = plan.levels[0]
    r = 4 * inner_n
    layout = _validate_level(p, k, spec_level.n, r, spec_level.t)
    t = spec_level.t
    m = k ** (p - 1)

    rng = rng_for(seed, 20, p)
    ans = int(rng.integers(2)) if ans_override is None else int(ans_override)

    cluster_ids = np.sort(rng.choice(layout.t_max, size=t, replace=False))
    i_star = int(rng.integers(t))

    big_t, intersection, s_istar = sample_intersecting_sets(rng, r, r // 4, m)

    # balanced ones inside S_i, anchored to ans on the intersection for i*;
    # uniform bits outside
    sets = np.empty((t, r // 4), dtype=np.int64)
    x = np.zeros((t, r), dtype=np.uint8)
    for i in range(t):
        if i == i_star:
            sets[i] = s_istar
            free = np.setdiff1d(s_istar, intersection)
            x[i, intersection] = ans
            x[i, free[rng.choice(len(free), size=r // 8 - m * ans, replace=False)]] = 1
        else:
            sets[i] = np.sort(rng.choice(r, size=r // 4, replace=False))
            x[i, sets[i][rng.choice(r // 4, size=r // 8, replace=False)]] = 1
        out_cols = np.setdiff1d(np.arange(r), sets[i])
        x[i, out_cols] = rng.integers(0, 2, size=len(out_cols))

    # the embedded two-player base, sampled forward with the same answer bit
    inner = gen_two_player(plan.n2, k, seed=seed, ans_override=ans)

    # sigma: bijection from inner vertices onto T's cliques, conditioned on
    # mapping the inner special set onto the intersection cliques
    in_spec = np.zeros(inner_n, dtype=bool)
    in_spec[inner.spec] = True
    rest = np.setdiff1d(big_t, intersection)
    sigma = np.empty(inner_n, dtype=np.int64)
    sigma[in_spec] = intersection[rng.permutation(m)]
    sigma[~in_spec] = rest[rng.permutation(len(rest))]

    e1, *join_parts = _recursive_parts(layout, cluster_ids, sets, x, i_star, sigma, inner.edge_parts())
    return RecursiveInstance(
        seed=seed,
        ans_override=ans_override,
        host=layout,
        cluster_ids=cluster_ids,
        i_star=i_star,
        sets=sets,
        big_t=big_t,
        intersection=intersection,
        x=x,
        sigma=sigma,
        e1=e1,
        join_parts=tuple(join_parts),
        inner=inner,
        ans=ans,
        spec=_spec(layout.cluster(cluster_ids[i_star])[intersection]),
    )


# ---------------------------------------------------------------------------
# simultaneous instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimultaneousInstance:
    k: int
    n_base: int
    seed: int | None
    theta_override: int | None
    theta: int
    j_star: int
    x: np.ndarray  # shape (p, t)
    sigma: np.ndarray  # permutation of [n]: left ids, right ids, clique ids, the rest
    player_edges: tuple[np.ndarray, ...]  # per player, relabeled to [n], in pair order

    @property
    def p(self) -> int:
        return self.k * (self.k - 1) // 2

    @property
    def t(self) -> int:
        return self.n_base * self.n_base

    @property
    def n(self) -> int:
        return self.k + 2 * (self.n_base - 1)

    @property
    def v_clique(self) -> np.ndarray:
        """The k clique ids, sorted: the vertices the hidden pairs join."""
        return np.sort(self.sigma[2 * (self.n_base - 1) :][: self.k])

    def edge_parts(self) -> tuple[np.ndarray, ...]:
        return self.player_edges

    def union_graph(self) -> Graph:
        """The simple union of the players' parts; a pair two players hold is one edge."""
        return Graph(self.n, np.concatenate(self.player_edges))


def _player_edges(
    k: int, n_base: int, j_star: int, sigma: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Each player's pairs j of [n_base] x [n_base] with bit one, relabeled.

    Pair j is ``(a, b) = divmod(j, n_base)``. Left vertex a maps to the next
    unused id of ``sigma[:n_base - 1]`` and right vertex b to the next of
    ``sigma[n_base - 1 : 2(n_base - 1)]``, except that the hidden pair's
    ends map to the two clique vertices of player i's own index pair.
    """
    u_star, v_star = divmod(j_star, n_base)
    clique_ids = sigma[2 * (n_base - 1) : 2 * (n_base - 1) + k]
    a_idx, b_idx = np.triu_indices(k, 1)  # player i joins clique vertices a_idx[i], b_idx[i]
    parts = []
    for i, row in enumerate(x):
        a, b = np.divmod(np.flatnonzero(row), n_base)
        gu = np.insert(sigma[: n_base - 1], u_star, clique_ids[a_idx[i]])[a]
        gv = np.insert(sigma[n_base - 1 : 2 * (n_base - 1)], v_star, clique_ids[b_idx[i]])[b]
        part = np.column_stack((np.minimum(gu, gv), np.maximum(gu, gv)))
        part.flags.writeable = False
        parts.append(part)
    return tuple(parts)


def gen_simultaneous(
    k: int, n_base: int, seed: int | None = None, theta_override: int | None = None
) -> SimultaneousInstance:
    """Sample the simultaneous-model instance for p = C(k,2) players.

    Each player holds a uniform bipartite graph on [n_base] x [n_base] whose
    hidden pair is present iff theta = 1; relabeling overlays the bipartite
    parts and spreads the hidden pairs over a k-vertex set, which therefore
    is a k-clique exactly when theta = 1.
    """
    if theta_override not in (None, 0, 1):
        raise ArgumentError("theta_override must be None, 0, or 1")
    if k < 4:
        raise ArgumentError("need k >= 4")
    n = k + 2 * (n_base - 1)
    if 2 * k > n:
        raise ArgumentError(f"need k <= n/2; k = {k}, n = {n}")
    p = k * (k - 1) // 2
    t = n_base * n_base
    if p * t > clusterpack.MAX_EDGES:
        raise ResourceLimitError(
            f"p={p} players over {n_base}^2 pairs may hold {p * t} edges "
            f"(guard {clusterpack.MAX_EDGES})"
        )

    rng = rng_for(seed, 30)
    j_star = int(rng.integers(t))
    theta = int(rng.integers(2)) if theta_override is None else int(theta_override)
    x = rng.integers(0, 2, size=(p, t)).astype(np.uint8)
    x[:, j_star] = theta

    sigma = rng.permutation(n)
    return SimultaneousInstance(
        k=k,
        n_base=n_base,
        seed=seed,
        theta_override=theta_override,
        theta=theta,
        j_star=j_star,
        x=x,
        sigma=sigma,
        player_edges=_player_edges(k, n_base, j_star, sigma, x),
    )


def _sides(inst: SimultaneousInstance) -> np.ndarray:
    """Per vertex, 0 for a left id and 1 for a right id of the planted
    bipartition ``sigma[:2(n_base - 1)]``, 2 for every other vertex."""
    sides = np.full(inst.n, 2, dtype=np.int64)
    sides[inst.sigma[: 2 * (inst.n_base - 1)].reshape(2, -1)] = [[0], [1]]
    return sides


# ---------------------------------------------------------------------------
# witnesses and verification
# ---------------------------------------------------------------------------


def witness_coloring(inst) -> Coloring:
    """A proper coloring of the union graph within the family's gap bound
    (2k colors for two players, k*p for p recursive players, 3 for the
    simultaneous family) when the answer bit is 0.

    Two players: the hidden cluster's cliques each take one of k colors and
    every other vertex its layer's color on a fresh palette of k. Recursive:
    the embedded instance's witness is pushed through sigma onto the
    T-cliques, and the rest is colored by layer on a fresh palette of k.
    Simultaneous: two colors on the planted bipartition and a third on the
    other vertices, the k special ones among them.
    """
    bit = "theta" if isinstance(inst, SimultaneousInstance) else "ans"
    if getattr(inst, bit) != 0:
        raise ArgumentError(f"witness coloring requires {bit} = 0")
    if inst.n > WITNESS_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"witness coloring materializes {inst.n} colors (guard {WITNESS_VERTEX_LIMIT})"
        )
    if isinstance(inst, SimultaneousInstance):
        return Coloring.from_array(_sides(inst))
    if isinstance(inst, TwoPlayerInstance):
        cliques = inst.host.cluster(inst.i_star)
        return _layer_coloring(inst.n, inst.k, inst.k, cliques, np.arange(len(cliques)))
    inner = witness_coloring(inst.inner)
    cliques = inst.istar_cliques()[inst.sigma]
    return _layer_coloring(inst.n, inst.k, inst.k * (inst.p - 1), cliques, inner.colors)


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, passed, detail if not passed else "")


def _keys(part: np.ndarray, n: int) -> np.ndarray:
    return part[:, 0] * n + part[:, 1]


def _gap(graph: Graph, bit: int, what: str, special, inst, colors: int) -> CheckResult:
    """The chromatic gap: with `bit` set, the `special` vertices (named `what`)
    form a clique of `graph`; with it clear, ``witness_coloring(inst)``
    properly colors `graph` with at most `colors` colors."""
    if bit:
        missing = missing_clique_pair(graph, special)
        return _check("gap-clique", missing is None, f"{what} misses edge {missing}")
    coloring = witness_coloring(inst)
    ok = coloring.num_colors <= colors and is_proper_coloring(graph, coloring)
    return _check(
        "gap-witness-coloring", ok, f"witness uses {coloring.num_colors} colors or is improper"
    )


def _player_checks(n: int, parts, expected) -> list[CheckResult]:
    """One ``player{i}-edges`` row per part, stored or expected: the stored
    part equals the expected one (a missing part counts as empty). Only a
    part that differs has its first differing pair looked up."""
    checks = []
    none = np.empty((0, 2), np.int64)
    for i, (got, want) in enumerate(itertools.zip_longest(parts, expected, fillvalue=none), 1):
        same = np.array_equal(got, want)
        diff = [] if same else np.setxor1d(_keys(got, n), _keys(want, n))[:1]
        checks.append(
            _check(f"player{i}-edges", same, f"e{i} mismatch, e.g. {[_pair(key, n) for key in diff]}")
        )
    return checks


def _verify_two_player(inst: TwoPlayerInstance) -> list[CheckResult]:
    n = inst.n
    expected = _two_player_parts(inst.host, inst.x, inst.i_star)
    # a tampered part may be unsorted, so neither part's keys are taken as sorted
    shared = np.intersect1d(_keys(inst.e1, n), _keys(inst.e2, n))
    return _player_checks(n, inst.edge_parts(), expected) + [
        _check("edge-disjoint", not len(shared), f"shared edge {[_pair(key, n) for key in shared[:1]]}"),
        _check("ans-bit", inst.ans == int(inst.x[inst.i_star])),
        _check("special-set", np.array_equal(inst.spec, _spec(inst.host.cluster(inst.i_star)))),
        _gap(inst.union_graph(), inst.ans, "special set", inst.spec, inst, 2 * inst.k),
    ]


def _verify_recursive(inst: RecursiveInstance) -> list[CheckResult]:
    k, p = inst.k, inst.p
    inner_n, half = inst.r // 4, inst.r // 8
    inter = np.intersect1d(inst.sets[inst.i_star], inst.big_t)
    sizes_ok = inst.sets.shape[1] == len(inst.big_t) == inner_n
    rows = np.arange(len(inst.sets))[:, None]
    ones = inst.x[rows, inst.sets].sum(axis=1)
    off = np.flatnonzero(ones != half)[:1]
    anchored = bool((inst.x[inst.i_star, inst.intersection] == inst.ans).all())
    expected_spec = _spec(inst.istar_cliques()[inst.intersection])
    sigma_ok = (
        len(inst.sigma) == inner_n
        and not np.setxor1d(inst.sigma, inst.big_t).size
        and not np.setxor1d(inst.sigma[inst.inner.spec], inst.intersection).size
    )
    expected = _recursive_parts(
        inst.host, inst.cluster_ids, inst.sets, inst.x, inst.i_star, inst.sigma, inst.inner.edge_parts()
    )
    checks = _player_checks(inst.n, inst.edge_parts(), expected) + [
        _check("eq1-chain", inst.inner.n == inner_n,
               f"inner instance has n={inst.inner.n}, expected r/4={inner_n}"),
        _check("intersection-size",
               np.array_equal(inter, inst.intersection) and len(inter) == k ** (p - 1),
               f"re-derived intersection {tuple(inter.tolist())} vs stored "
               f"{tuple(inst.intersection.tolist())}"),
        _check("set-sizes", sizes_ok, "some S_i or T has the wrong size"),
        _check("row-balance", not off.size,
               "".join(f"row {i} has {ones[i]} ones inside S_i, expected {half}" for i in off)),
        _check("answer-anchoring", anchored, "x[i*, j] != ans on the intersection"),
        _check("special-set", np.array_equal(inst.spec, expected_spec) and len(inst.spec) == k**p,
               "special set does not match the intersection cliques"),
        _check("sigma-bijection", sigma_ok, "sigma is not a valid embedding"),
        _gap(inst.union_graph(), inst.ans, "special set", inst.spec, inst, k * p),
    ]
    return checks + [CheckResult(f"inner-{c.name}", c.passed, c.detail) for c in _checks(inst.inner)]


def _verify_simultaneous(inst: SimultaneousInstance) -> list[CheckResult]:
    anchored = all(int(inst.x[i, inst.j_star]) == inst.theta for i in range(inst.p))
    # recompute the relabeled edges from (x, sigma, j*)
    regen = _player_edges(inst.k, inst.n_base, inst.j_star, inst.sigma, inst.x)
    relabel_ok = all(c.passed for c in _player_checks(inst.n, inst.player_edges, regen))
    # the planted bipartition certifies the bipartite part: no edge of the
    # union joins two left ids or two right ids
    union = inst.union_graph()
    ends = _sides(inst)[union.edge_array()]
    bip_ok = not ((ends[:, 0] < 2) & (ends[:, 0] == ends[:, 1])).any()
    return [
        _check("theta-anchoring", anchored, "some x[i, j*] != theta"),
        _check("relabel-consistency", relabel_ok, "player edges do not match x/sigma"),
        _check("bipartite-part", bip_ok, "an edge joins two ids on one side of the planted bipartition"),
        _gap(union, inst.theta, "v_clique", inst.v_clique, inst, 3),
    ]


def _checks(inst) -> list[CheckResult]:
    """The report rows of any variant; a recursive instance's inner rows come from here too."""
    if isinstance(inst, TwoPlayerInstance):
        return _verify_two_player(inst)
    if isinstance(inst, RecursiveInstance):
        return _verify_recursive(inst)
    if isinstance(inst, SimultaneousInstance):
        return _verify_simultaneous(inst)
    raise ArgumentError(f"not a hard instance: {type(inst).__name__}")


def verify_instance(inst) -> VerificationReport:
    """Structural invariants plus the chromatic-gap check for any variant."""
    return VerificationReport(tuple(_checks(inst)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fields(inst) -> dict:
    """Every serialized field of `inst` but the players' edge parts."""
    if isinstance(inst, SimultaneousInstance):
        return {
            "variant": "simultaneous",
            "params": {"k": inst.k, "n_base": inst.n_base},
            "seed": inst.seed,
            "theta_override": inst.theta_override,
            "theta": inst.theta,
            "v_clique": inst.v_clique.tolist(),
        }
    if isinstance(inst, TwoPlayerInstance):
        variant, params = "two-player", {"n": inst.n, "k": inst.k}
    elif isinstance(inst, RecursiveInstance):
        levels = [{"n": lv.n, "t": lv.t} for lv in inst.plan.levels]
        variant, params = "recursive", {"p": inst.p, "k": inst.k, "n2": inst.plan.n2, "levels": levels}
    else:
        raise ArgumentError(f"not a hard instance: {type(inst).__name__}")
    return {
        "variant": variant,
        "params": params,
        "seed": inst.seed,
        "ans_override": inst.ans_override,
        "ans": inst.ans,
        "spec": inst.spec.tolist(),
    }


def instance_to_dict(inst) -> dict:
    return {**_fields(inst), "players": [part.tolist() for part in inst.edge_parts()]}


def instance_to_json(inst) -> str:
    return canonical_json(instance_to_dict(inst))


def write_instance(inst, path: str) -> None:
    write_text(instance_to_json(inst), path)


def _integers(value) -> bool:
    """True iff `value` is an int, or a list or dict whose entries all are, at any depth."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(map(_integers, value))
    return type(value) is int


def regenerate_instance(payload: dict):
    """Rebuild the full instance from a serialized (variant, params, seed).

    The seed, every param and a set answer-bit override must be integers: a
    float or a boolean raises `TypeError` rather than being rounded by `int`.
    """
    variant, params, seed = payload["variant"], payload["params"], payload["seed"]
    override = payload.get("theta_override" if variant == "simultaneous" else "ans_override")
    if not (type(seed) is int and _integers(params) and (override is None or type(override) is int)):
        raise TypeError("the seed, the params and an override must be integers")
    if variant == "two-player":
        return gen_two_player(params["n"], params["k"], seed=seed, ans_override=override)
    if variant == "recursive":
        levels = tuple(LevelSpec(n=lv["n"], t=lv["t"]) for lv in params["levels"])
        plan = LevelPlan(n2=params["n2"], levels=levels)
        return gen_recursive(params["p"], params["k"], plan=plan, seed=seed, ans_override=override)
    if variant == "simultaneous":
        return gen_simultaneous(params["k"], params["n_base"], seed=seed, theta_override=override)
    raise ArgumentError(f"unknown instance variant {variant!r}")


def _same_part(rows, part: np.ndarray) -> bool:
    """True iff the parsed JSON `rows` is a list of ``[u, v]`` lists of ints
    equal to the rows of `part`; a float or a boolean is never an int."""
    if type(rows) is not list or set(map(type, rows)) - {list} or set(map(len, rows)) - {2}:
        return False
    flat = list(itertools.chain.from_iterable(rows))
    if set(map(type, flat)) - {int}:
        return False
    try:
        return np.array_equal(np.array(flat, np.int64).reshape(-1, 2), part)
    except OverflowError:  # an int past int64 equals no entry of a part
        return False


def read_instance(path: str):
    """Load an instance file and regenerate it; every top-level field of the
    file must equal the regenerated instance's, so an edited bit, special set
    or edge, a float or boolean for an integer, a missing field and an extra
    one are all refused. The players' parts are compared row by row with the
    regenerated arrays, every other field as canonical JSON."""
    payload = read_json(path)
    try:
        inst = regenerate_instance(payload)
    except (LookupError, TypeError, ValueError, ArithmeticError,
            GenerationError, ResourceLimitError) as exc:
        raise FormatError(f"fields do not describe an instance: {exc!r}") from None
    fields, parts = _fields(inst), inst.edge_parts()
    for key in sorted(payload.keys() | fields.keys() | {"players"}):
        stored = payload.get(key)
        if key == "players":
            same = type(stored) is list and len(stored) == len(parts) and all(map(_same_part, stored, parts))
        else:
            same = key in payload and key in fields and canonical_json(stored) == canonical_json(fields[key])
        if not same:
            raise FormatError(f"stored {key!r} does not match the regenerated instance")
    return inst
