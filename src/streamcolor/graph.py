"""Graph and coloring data model, and the shared text-format readers and writer.

Vertices are integers ``0..n-1``. A graph stores its edges in one form: a
read-only ``(m, 2)`` int64 array of ``(u, v)`` rows with ``u < v``, sorted
and without repeats, built by sorting and deduplicating the 1-D keys
``u * n + v``; rows whose keys already increase strictly (the gnm and
planted builds, and every graph derived from another graph's edges or its
pair totals) are taken as they stand. The
frozenset of edge tuples and the compressed sparse row (CSR) neighbour lists
are views derived from that array on first use; the exact solver above two
colors reads the CSR. A coloring's n is the length of its colors array.
Graphs and colorings are immutable after construction
and safe to share across threads. Isolated vertices are implicit: a graph
may have millions of vertices but only the edge set is materialized. The
text formats `.graph`, `.stream` and `.cpg` share one header parser
(`read_header`), one row parser (`Rows`) and one row writer
(`format_rows`), defined here, and one grammar: tokens are printable ASCII
separated by spaces and tabs, lines end in ``\\n`` or ``\\r\\n``, and every
integer is ``[+-]?[0-9]{1,18}``. `Rows` parses a body as numpy passes over
its bytes and names the first line outside the grammar; `format_rows` fills
one byte buffer per body. `stable_order` is the one stable sort of keys,
a plain sort of packed ``key * m + index`` values where they fit in int64;
`repeats` reads it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ArgumentError, FormatError

# the largest n whose pair keys u * n + v (at most n*n - n - 1) fit in int64
MAX_VERTICES = 3_037_000_499


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
    `edge_array` is the single stored form: the keys ``u * n + v`` sorted and
    deduplicated, with the sort and the dedupe skipped when they already
    increase strictly. `edges` and `csr` are views derived from it on first
    use and cached.
    """

    __slots__ = ("n", "_edge_array", "_edges", "_csr")

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
        # the keys are summed and sorted in place over `lo`, and repeats are
        # dropped through a bool mask: the one int64 copy is the kept keys;
        # keys already strictly increasing are the kept keys as they stand
        keys = lo
        keys *= n
        keys += hi
        del lo, hi
        if not (keys[1:] > keys[:-1]).all():
            keys.sort()
            first = np.empty(len(keys), dtype=bool)  # the first entry of each run of a key
            first[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=first[1:])
            keys = keys[first]
        arr = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, n, out=(arr[:, 0], arr[:, 1]))
        arr.flags.writeable = False
        self._edge_array = arr
        self._edges: frozenset[tuple[int, int]] | None = None
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbour lists in compressed sparse row form (derived, cached).

        ``verts`` holds the vertices of degree >= 1 in ascending order; a
        vertex's local id is its index there. Local vertex ``i`` has the
        local ids ``indices[indptr[i]:indptr[i + 1]]`` as neighbours, in
        ascending order. All three arrays are read-only int64. Local ids come
        from an n-entry lookup when ``n <= 2m``, a table no larger than the
        arcs, and otherwise from a binary search in ``verts``.
        """
        if self._csr is None:
            a, n = self._edge_array, self.n
            # each edge in both directions, sorted by (source, target)
            keys = np.sort(np.concatenate((a[:, 0] * n + a[:, 1], a[:, 1] * n + a[:, 0])))
            src, dst = np.divmod(keys, max(n, 1))
            first = np.empty(len(src), dtype=bool)  # the first arc of each source
            first[:1] = True
            np.not_equal(src[1:], src[:-1], out=first[1:])
            verts = src[first]
            indptr = np.append(np.flatnonzero(first), len(src))
            if n <= len(src):
                local = np.empty(n, dtype=np.int64)
                local[verts] = np.arange(len(verts))
                indices = local[dst]
            else:
                indices = np.searchsorted(verts, dst)
            for arr in (verts, indptr, indices):
                arr.flags.writeable = False
            self._csr = verts, indptr, indices
        return self._csr

    def adjacency(self) -> Mapping[int, set[int]]:
        """Neighbour sets of the vertices with degree >= 1, keyed in
        ascending vertex order (built from `csr` on each call)."""
        verts, indptr, indices = self.csr()
        nbrs, bounds = verts[indices].tolist(), indptr.tolist()
        return {v: set(nbrs[lo:hi]) for v, lo, hi in zip(verts.tolist(), bounds, bounds[1:])}

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
    partitions compare equal. `from_array` canonicalizes any labels; the
    constructor stores its fields as given. The vertex count ``n`` is
    ``len(colors)``.
    """

    colors: np.ndarray
    num_colors: int

    @property
    def n(self) -> int:
        return len(self.colors)

    @staticmethod
    def from_array(colors: Iterable[int]) -> "Coloring":
        arr = np.asarray(list(colors) if not isinstance(colors, np.ndarray) else colors)
        canon, k = _canonicalize(arr)
        return Coloring(colors=canon, num_colors=k)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coloring) and np.array_equal(self.colors, other.colors)

    def __repr__(self) -> str:
        return f"Coloring(n={self.n}, num_colors={self.num_colors})"


def uniform_coloring(n: int) -> Coloring:
    # canonical as it stands: one color, none when there is no vertex
    return Coloring(colors=np.zeros(n, dtype=np.int64), num_colors=min(n, 1))


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
    return edges.compress(mask, axis=0)


def product_coloring(c1: Coloring, c2: Coloring) -> Coloring:
    """Common refinement: vertices share a color iff they do in both inputs."""
    if c1.n != c2.n:
        raise ArgumentError(f"colorings disagree on n: {c1.n} vs {c2.n}")
    combined = c1.colors.astype(np.int64) * max(c2.num_colors, 1) + c2.colors
    return Coloring.from_array(combined)


def find_keys(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each entry of `x`'s index in the sorted, distinct `keys`, or -1 where it is absent."""
    if not len(keys):
        return np.full(len(x), -1)
    i = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
    return np.where(keys[i] == x, i, -1)


def missing_clique_pair(g: Graph, vertices: Iterable[int]) -> tuple[int, int] | None:
    """The first pair ``(u, v)``, ``u < v``, of the distinct `vertices` in
    ascending order that is not an edge of `g`, or None if they form a clique.

    Every pair is looked up at once among the sorted edge keys ``u * n + v``.
    """
    vs = np.unique(np.fromiter(vertices, np.int64))
    if vs.size and (vs[0] < 0 or vs[-1] >= g.n):
        raise ArgumentError(f"vertex set not contained in [0, {g.n})")
    u, v = vs[np.array(np.triu_indices(len(vs), 1))]
    a = g.edge_array()
    absent = np.flatnonzero(find_keys(a[:, 0] * g.n + a[:, 1], u * g.n + v) < 0)
    return (int(u[absent[0]]), int(v[absent[0]])) if absent.size else None


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph on `vertices`; a kept vertex's new id is its rank among them."""
    vs = np.fromiter(vertices, dtype=np.int64)
    if vs.size and (vs.min() < 0 or vs.max() >= g.n):
        raise ArgumentError(f"vertex set not contained in [0, {g.n})")
    member = np.zeros(g.n, dtype=bool)
    member[vs] = True
    new_id = np.cumsum(member) - 1  # relabel lookup, valid on members
    a = g.edge_array()
    return Graph(int(member.sum()), new_id[a.compress(member[a[:, 0]] & member[a[:, 1]], axis=0)])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

GRAPH_HEADER = "#graph v1"
# an integer field of the text formats; a valid one is at most MAX_VERTICES, 10 digits
_INTEGER = re.compile(r"[+-]?[0-9]{1,18}")


def canonical_json(payload) -> str:
    """`payload` as JSON with sorted keys, no spaces and one trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def write_text(text: str, path: str) -> None:
    """`text` as UTF-8 with ``\\n`` line ends, as every JSON and CSV output is written."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def read_json(path: str):
    """A JSON file's value; bytes that are not UTF-8, and a syntax error, raise
    `FormatError` at their line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8: {exc.reason}", line=line) from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc.msg} at column {exc.colno}", line=exc.lineno) from None
    except RecursionError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None


def read_header(path: str, magic: str) -> tuple[dict[str, str], bytes]:
    """A text file's header fields and its body, the bytes after line 1.

    Line 1 ends at the first ``\\n``, less a ``\\r`` before it. It must be
    printable ASCII tokens separated by spaces and tabs: first exactly
    `magic`'s, then ``key=value`` fields."""
    with open(path, "rb") as f:
        head, end, body = f.read().partition(b"\n")
    if end:
        head = head.removesuffix(b"\r")
    text = head.decode("ascii").replace("\t", " ") if head.isascii() else ""
    tokens = text.split() if text.isprintable() else []
    want = magic.split()
    fields = [token.partition("=") for token in tokens[len(want) :]]
    if tokens[: len(want)] != want or not all(eq for _, eq, _ in fields):
        raise FormatError(f"header must be '{magic}' and key=value fields, in printable ASCII", line=1)
    return {key: value for key, _, value in fields}, body


def header_int(fields: Mapping[str, str], key: str, lo: int = 0) -> int:
    """The header field `key`, an integer ``[+-]?[0-9]{1,18}`` in ``[lo, MAX_VERTICES]``."""
    value = fields.get(key, "")
    if _INTEGER.fullmatch(value) and lo <= int(value) <= MAX_VERTICES:
        return int(value)
    raise FormatError(f"header must carry {key}=<integer in [{lo}, {MAX_VERTICES}]>", line=1)


def _first(bad: np.ndarray) -> int:
    """The index of the first True in `bad`, or its length if none is."""
    return int(bad.argmax()) if bad.any() else len(bad)


def first_fault(checks: Iterable[tuple[np.ndarray, str]], stop: int, why: str = "") -> tuple[int, str]:
    """The first index below `stop` that a ``(bad, message)`` check flags and
    that check's message, or ``(stop, why)``; on one index the first check wins."""
    for bad, message in checks:
        hits = np.flatnonzero(bad[:stop])
        if hits.size:
            stop, why = int(hits[0]), message
    return stop, why


def _parse_ints(b: np.ndarray, starts: np.ndarray, lens: np.ndarray, out: np.ndarray) -> int:
    """Write the tokens of `b` at `starts` into `out` as integers, by Horner's
    rule over their digit positions; return the index of the first token
    that is not ``[+-]?[0-9]{1,18}``, or ``len(starts)``."""
    first = b[starts]
    signed = (first == ord("+")) | (first == ord("-"))
    at, digits = starts + signed, lens - signed  # the next digit, and the digits left
    bad = (digits < 1) | (digits > 18)
    out[:] = 0
    for _ in range(min(int(digits.max(initial=0)), 18)):  # a longer token is bad already
        live = digits > 0
        digit = np.take(b, at, mode="clip") - np.uint8(ord("0"))
        bad |= live & (digit > 9)
        np.multiply(out, 10, out=out, where=live)
        np.add(out, digit, out=out, where=live)
        at += 1
        digits -= 1
    np.negative(out, out=out, where=first == ord("-"))
    return _first(bad)


def _parse_literals(
    b: np.ndarray, starts: np.ndarray, lens: np.ndarray, allowed: tuple[str, ...], out: np.ndarray
) -> int:
    """Write each token's index in `allowed` into `out`; return the index of
    the first token that is none of them, or ``len(starts)``."""
    out[:] = -1
    for i, token in enumerate(t.encode("ascii") for t in allowed):
        hit = lens == len(token)
        for j, char in enumerate(token):
            hit &= np.take(b, starts + j, mode="clip") == char
        out[hit] = i
    return _first(out < 0)


class Rows:
    """The non-blank body lines of a text file as one ``(rows, width)`` int64 array.

    The body is ASCII, its lines end in ``\\n`` or ``\\r\\n``, and its tokens
    are separated by spaces and tabs. Every non-blank line holds `width`
    tokens, each an integer ``[+-]?[0-9]{1,18}``, except that a column keyed
    in `literals` holds one of its tokens and stores that token's index. Any
    other byte, a ``\\r`` that does not end a line included, is part of a
    token, which then fails. `data` holds the rows before the first line that
    breaks this; `check` names that line unless a reader's own check fails on
    an earlier row. On that line a wrong field count is named first, then a
    bad literal, then a bad integer. The body is parsed by numpy passes over
    its bytes.
    """

    def __init__(self, body: bytes, width: int, literals: Mapping[int, tuple[str, ...]] = {}):
        self._body = body
        b = np.frombuffer(body, dtype=np.uint8)
        inside = np.zeros(len(b) + 2, dtype=bool)  # token bytes, padded by one blank each side
        inside[1:-1] = (b != ord(" ")) & (b != ord("\t")) & (b != ord("\n"))
        if b"\r" in body:  # a "\r" before a "\n" is a blank too; byte i is inside[i + 1]
            inside[1:-2] &= (b[:-1] != ord("\r")) | (b[1:] != ord("\n"))
        # the blank padding makes the flips alternate: a token's start, then its end
        bounds = np.flatnonzero(inside[1:] != inside[:-1]).reshape(-1, 2)
        del inside  # this pass's memory peak is what `clusterpack.MAX_EDGES` is sized by
        bounds[:, 1] -= bounds[:, 0]  # the token ends, made lengths in place
        starts, lens = bounds.T
        # the tokens on each line, from the tokens before each newline
        before = np.searchsorted(starts, np.flatnonzero(b == ord("\n")))
        per_line = np.diff(before, prepend=0, append=len(starts))
        wrong = np.flatnonzero((per_line != 0) & (per_line != width))  # lines of the wrong width
        stop, why = np.count_nonzero(per_line), ""  # the first row that does not parse, and why
        if wrong.size:
            stop, why = np.count_nonzero(per_line[: wrong[0]]), f"expected {width} fields"
        starts = starts[: stop * width].reshape(stop, width)
        lens = lens[: stop * width].reshape(stop, width)
        data = np.empty((stop, width), dtype=np.int64)
        # literal columns first, so a row's bad literal is named before its bad
        # integer; a header may declare any width, but no more columns than
        # tokens hold data
        for col in sorted(range(min(width, starts.size)), key=lambda c: c not in literals):
            at, size, out = starts[:stop, col], lens[:stop, col], data[:stop, col]
            if col in literals:
                bad = _parse_literals(b, at, size, literals[col], out)
                message = f"field {col + 1} must be one of {literals[col]}"
            else:
                bad = _parse_ints(b, at, size, out)
                message = "field is not an integer of at most 18 digits"
            if bad < stop:
                stop, why = bad, message
        self.data, self._index, self._error = data[:stop], np.flatnonzero(per_line), (stop, why)

    def check(self, *checks: tuple[np.ndarray, str]) -> None:
        """Raise `FormatError` at the first row that a ``(bad, message)``
        check flags or that did not parse; on one row the first check wins."""
        row, message = first_fault(checks, *self._error)
        if row < len(self._index):
            i = int(self._index[row])  # the row's line, counted from 0 after the header
            ends = np.flatnonzero(np.frombuffer(self._body, dtype=np.uint8) == ord("\n"))
            bounds = np.concatenate(([-1], ends, [len(self._body)]))
            text = self._body[bounds[i] + 1 : bounds[i + 1]]
            if i < len(ends):
                text = text.removesuffix(b"\r")
            raise FormatError(f"{message}: {text.decode('ascii', 'backslashreplace')!r}", line=i + 2)


def format_rows(arr: np.ndarray, literals: Mapping[int, tuple[str, ...]] = {}) -> bytes:
    """An ``(m, width)`` array of non-negative integers as the rows `Rows`
    reads: fields joined by one space, each row ended by ``\\n``, integers in
    decimal, and a column keyed in `literals` written as the token it indexes.

    Each column fills a slot of one ``(m, bytes per row)`` uint8 buffer as wide
    as its widest field, right-aligned; the zero bytes left over are dropped.
    """
    if arr.size and arr.min() < 0:
        raise ArgumentError("rows must hold non-negative integers")
    tokens = {col: [t.encode("utf-8") for t in allowed] for col, allowed in literals.items()}
    sizes = [
        max(map(len, tokens[col])) if col in tokens else len(str(arr[:, col].max(initial=0)))
        for col in range(arr.shape[1])
    ]
    buf = np.zeros((len(arr), sum(sizes) + len(sizes)), dtype=np.uint8)
    end = 0
    for col, size in enumerate(sizes):
        if col in tokens:
            table = np.frombuffer(b"".join(t.rjust(size, b"\0") for t in tokens[col]), np.uint8)
            buf[:, end : end + size] = table.reshape(-1, size).take(arr[:, col], axis=0)
        else:
            q = arr[:, col]
            for p in range(size):  # the digit of 10^p, right to left
                rest = q // 10
                buf[:, end + size - 1 - p] = q - rest * 10 + ord("0")
                if p:
                    buf[:, end + size - 1 - p][q == 0] = 0  # a leading zero
                q = rest
        buf[:, end + size] = ord(" ")
        end += size + 1
    buf[:, -1] = ord("\n")
    return buf[buf != 0].tobytes()


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of 1-D int64 `keys`.

    When the keys are non-negative and ``(max + 1) * m < 2**63``, the packed
    values ``key * m + index`` are distinct and ordered as the stable sort
    orders the entries, so one plain sort of them and a ``% m`` give the
    order; otherwise, as near `MAX_VERTICES`, it is the stable argsort.
    """
    m = len(keys)
    if m and keys.min() >= 0 and (int(keys.max()) + 1) * m < 2**63:
        packed = keys * m
        packed += np.arange(m)
        packed.sort()
        packed %= m
        return packed
    return np.argsort(keys, kind="stable")


def repeats(keys: np.ndarray) -> np.ndarray:
    """True at each entry whose key an earlier entry holds, read off one
    `stable_order` of the keys."""
    order = stable_order(keys)
    out = np.zeros(len(keys), dtype=bool)
    out[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return out


def write_graph(g: Graph, path: str) -> None:
    """Graph text format: header ``#graph v1 n=<N>``, then ``u v`` lines."""
    with open(path, "wb") as f:
        f.write(f"{GRAPH_HEADER} n={g.n}\n".encode("utf-8"))
        f.write(format_rows(g.edge_array()))


def read_graph(path: str) -> Graph:
    fields, body = read_header(path, GRAPH_HEADER)
    n = header_int(fields, "n")
    rows = Rows(body, 2)
    u, v = rows.data.T
    keys = u * n + v
    checks = [((u < 0) | (u >= v) | (v >= n), f"edge must satisfy 0 <= u < v < {n}")]
    if not np.all(keys[1:] > keys[:-1]):  # increasing keys repeat none, as in every written graph
        checks.append((repeats(keys), "duplicate edge"))
    rows.check(*checks)
    return Graph(n, rows.data)


def coloring_to_json(c: Coloring) -> str:
    return canonical_json({"n": c.n, "num_colors": c.num_colors, "colors": c.colors.tolist()})


def write_coloring(c: Coloring, path: str) -> None:
    write_text(coloring_to_json(c), path)


def read_coloring(path: str) -> Coloring:
    payload = read_json(path)
    if not isinstance(payload, dict) or "colors" not in payload:
        raise FormatError("expected a JSON object with a 'colors' field")
    colors = payload["colors"]
    if not isinstance(colors, list) or any(type(x) is not int for x in colors):
        raise FormatError("'colors' must be a list of integers")
    c = Coloring.from_array(colors)
    if c.n != payload.get("n") or c.num_colors != payload.get("num_colors"):
        raise FormatError("coloring fields are inconsistent with the colors array")
    return c
