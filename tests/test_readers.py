"""The shared text reader and writer: differential and robustness tests.

The text formats share one grammar: tokens are printable ASCII separated by
spaces and tabs, lines end in ``\\n`` or ``\\r\\n``, and every integer is
``[+-]?[0-9]{1,18}``. The references below are earlier readers: the first
per-line readers `reference_read_graph` and `reference_read_stream`, and the
per-line header and row parsers `line_read_header` and `LineRows`, which read
every body outside that grammar until the byte path became the only path. On
a file inside the grammar the shared reader must do what a reference does:
both reject with `FormatError` at the same line, or both return equal
objects. On a file outside it the shared reader raises `FormatError` at the
first line outside the grammar, or at the reference's error line if that
comes first. Both name the line of an insertion stream's first -1 or
repeated pair and of a dynamic stream's first deletion that outruns its
pair's insertions. Byte-mutated files of every format may raise only
`FormatError`.

The `reference_write_*` functions are the earlier per-row f-string writers;
`format_rows` must reproduce their bytes.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamcolor as sc
from streamcolor.cli import main
from streamcolor.errors import ArgumentError, FormatError
from streamcolor.graph import (
    MAX_VERTICES,
    Graph,
    Rows,
    format_rows,
    read_coloring,
    read_graph,
    write_graph,
)
from streamcolor.streams import Stream, read_stream, write_stream

from oracles import peak_bytes


def reference_read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("#graph v1"):
        raise FormatError("missing header", line=1)
    try:
        n = int(lines[0].split("n=")[1])
    except (IndexError, ValueError):
        raise FormatError("header must carry n=<N>", line=1)
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError("vertex count out of range", line=1)
    edges = []
    seen = set()
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected 'u v'", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError("non-integer endpoint", line=i)
        if u == v:
            raise FormatError("self-loop", line=i)
        if not (u < v):
            raise FormatError("endpoints must satisfy u < v", line=i)
        if (u, v) in seen:
            raise FormatError("duplicate edge", line=i)
        if v >= n or u < 0:
            raise FormatError("edge out of range", line=i)
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def reference_read_stream(path: str) -> Stream:
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("#stream v1"):
        raise FormatError("missing header", line=1)
    header: dict[str, str] = {}
    for token in lines[0][len("#stream v1") :].split():
        if "=" not in token:
            raise FormatError(f"bad header token {token!r}", line=1)
        key, val = token.split("=", 1)
        header[key] = val
    try:
        n = int(header["n"])
        model = header["model"]
    except (KeyError, ValueError):
        raise FormatError("header must carry n=<N> model=<ins|dyn>", line=1)
    if not 0 <= n <= MAX_VERTICES:
        raise FormatError("vertex count out of range", line=1)
    if model not in ("ins", "dyn"):
        raise FormatError(f"unknown model {model!r}", line=1)
    events, multiplicity = [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError("expected '<u> <v> <+1|-1>'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError("non-integer endpoint", line=lineno)
        if parts[2] == "+1":
            delta = 1
        elif parts[2] == "-1":
            delta = -1
        else:
            raise FormatError("delta must be +1 or -1", line=lineno)
        if u == v:
            raise FormatError("self-loop", line=lineno)
        if min(u, v) < 0 or max(u, v) >= n:
            raise FormatError("pair out of range", line=lineno)
        if model == "ins" and delta == -1:
            raise FormatError("deletion in an insertion stream", line=lineno)
        pair = (min(u, v), max(u, v))
        multiplicity[pair] = multiplicity.get(pair, 0) + delta
        if model == "ins" and multiplicity[pair] > 1:
            raise FormatError("pair inserted twice", line=lineno)
        if model == "dyn" and multiplicity[pair] < 0:
            raise FormatError("pair deleted more than inserted", line=lineno)
        events.append((u, v, delta))
    return Stream(n, model, events)


# ---------------------------------------------------------------------------
# the per-line header and row parsers, which read every body outside the byte
# path's grammar until the byte path became the only path
# ---------------------------------------------------------------------------


def line_read_bytes(path: str) -> bytes:
    """The file's bytes, checked to be UTF-8; other bytes raise `FormatError` at their line."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
            raise FormatError(f"not UTF-8: {exc.reason}", line=line) from None
    return data


# the first line end as `str.splitlines` finds it, searched in UTF-8 bytes
_LINE_END = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e]|\xc2\x85|\xe2\x80[\xa8\xa9]")


def line_read_header(path: str, magic: str) -> tuple[dict[str, str], bytes]:
    """A text file's header fields and its body, the bytes after line 1, where
    lines end as ``str.splitlines`` ends them. The header's leading tokens must
    be exactly `magic`'s; each other token is a ``key=value`` field."""
    data = line_read_bytes(path)
    end = _LINE_END.search(data)
    head, body = (data[: end.start()], data[end.end() :]) if end else (data, b"")
    tokens, want = head.decode("utf-8").split(), magic.split()
    fields = [token.partition("=") for token in tokens[len(want) :]]
    if tokens[: len(want)] != want or not all(eq for _, eq, _ in fields):
        raise FormatError(f"header must be '{magic}' and key=value fields", line=1)
    return {key: value for key, _, value in fields}, body


def line_header_int(fields, key: str, lo: int = 0) -> int:
    """The header field `key` as an integer in ``[lo, MAX_VERTICES]``."""
    try:
        value = int(fields[key])
        if lo <= value <= MAX_VERTICES:
            return value
    except (KeyError, ValueError):
        pass
    raise FormatError(f"header must carry {key}=<integer in [{lo}, {MAX_VERTICES}]>", line=1)


class LineRows:
    """The non-blank body lines as `Rows` read them line by line: every field
    is an integer as `int` reads it, lines end as ``str.splitlines`` ends them
    and tokens are split on any whitespace."""

    def __init__(self, body: bytes, width: int, literals={}):
        self._body = body
        self._from_lines(width, literals)

    def _from_lines(self, width: int, literals) -> None:
        """Parse any body by splitting each line into Python strings."""
        parts = [line.split() for line in self._body.decode("utf-8").splitlines()]
        sizes = np.fromiter(map(len, parts), np.int64, len(parts))
        self._index = np.flatnonzero(sizes)  # the non-blank lines
        stop, why = len(self._index), ""  # the first row that does not parse, and why
        wrong = np.flatnonzero(sizes[self._index] != width)
        if wrong.size:
            stop, why = int(wrong[0]), f"expected {width} fields"
        tokens = list(itertools.chain.from_iterable(parts))[: stop * width]
        for col, allowed in literals.items():
            match = np.array(tokens[col::width], dtype=str)[:, None] == np.array(allowed)
            if not match.any(1).all():
                stop, why = int(np.argmin(match.any(1))), f"field {col + 1} must be one of {allowed}"
                del tokens[stop * width :]
            tokens[col::width] = match[:stop].argmax(1).astype(str).tolist()
        try:
            data = np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError):
            lo, hi = 0, len(tokens)  # the first token that does not parse is in [lo, hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    np.array(tokens[lo:mid], dtype=np.int64)
                    lo = mid
                except (ValueError, OverflowError):
                    hi = mid
            stop, why = lo // width, "field is not a 64-bit integer"
            data = np.array(tokens[: stop * width], dtype=np.int64)
        self.data, self._error = data.reshape(stop, width), (stop, why)

    def check(self, *checks: tuple[np.ndarray, str]) -> None:
        """Raise `FormatError` at the first row that a ``(bad, message)``
        check flags or that did not parse; on one row the first check wins."""
        row, message = self._error
        for bad, msg in checks:
            hits = np.flatnonzero(bad[:row])
            if hits.size:
                row, message = int(hits[0]), msg
        if row < len(self._index):
            i = int(self._index[row])
            text = self._body.decode("utf-8").splitlines()[i]
            raise FormatError(f"{message}: {text!r}", line=i + 2)


def on_line_path(reader):
    """`reader` with the per-line header and row parsers above in place of the
    shared ones, run on a copy of the file whose bytes that are not UTF-8 are
    replaced by U+FFFD. Such a byte is outside the grammar where it stands,
    but `line_read_bytes` names it before any check on an earlier line."""
    parsers = dict(Rows=LineRows, read_header=line_read_header, header_int=line_header_int)

    def read(path):
        with open(path, "rb") as f:
            data = f.read().decode("utf-8", "replace").encode()
        with open(path + ".utf8", "wb") as f:
            f.write(data)
        with mock.patch.multiple(sc.graph, **parsers), mock.patch.multiple(
            sc.streams, **parsers
        ), mock.patch.multiple(sc.clusterpack, **parsers):
            return reader(path + ".utf8")

    return read


# ---------------------------------------------------------------------------
# the grammar
# ---------------------------------------------------------------------------

CLEAN_INT = re.compile(rb"[+-]?[0-9]{1,18}")
# each text reader's header magic, its integer header fields, and its body's
# width and literal columns given the header fields
GRAMMARS = {
    read_graph: ("#graph v1", (b"n",), lambda fields: (2, {})),
    read_stream: ("#stream v1", (b"n",), lambda fields: (3, {2: ("-1", "+1")})),
    sc.read_cpg: (
        "#cpg v1",
        (b"n", b"t", b"k", b"r"),
        lambda fields: (3 + int(fields.get(b"k", b"0")), {0: ("C",)}),
    ),
}


def text_lines(data: bytes) -> list[bytes]:
    """The lines of `data`: each ends at a ``\\n``, less one ``\\r`` before it."""
    *lines, last = data.split(b"\n")
    return [line.removesuffix(b"\r") for line in lines] + [last]


def tokens_of(line: bytes) -> list[bytes]:
    return re.findall(rb"[^ \t]+", line)


def first_row_outside(lines: list[bytes], width: int, literals) -> tuple[int | None, int]:
    """The index of the first line outside the row grammar, or None, and the
    non-blank lines before it. A non-blank line is inside it if it holds
    `width` tokens, each ``[+-]?[0-9]{1,18}`` or, in a column keyed in
    `literals`, one of that column's tokens."""
    rows = 0
    for i, line in enumerate(lines):
        tokens = tokens_of(line)
        if tokens and (
            len(tokens) != width
            or not all(
                token.decode("latin-1") in literals[col] if col in literals else CLEAN_INT.fullmatch(token)
                for col, token in enumerate(tokens)
            )
        ):
            return i, rows
        rows += bool(tokens)
    return None, rows


def first_line_outside(data: bytes, reader) -> int | None:
    """The first line of `reader`'s file `data` outside the grammar, or None.

    Line 1 is inside it if it is printable ASCII tokens, separated by spaces
    and tabs: the header magic's, then ``key=value`` fields, whose integer
    fields are ``[+-]?[0-9]{1,18}``. The other lines are rows."""
    magic, integers, layout = GRAMMARS[reader]
    head, *body = text_lines(data)
    tokens, want = tokens_of(head), magic.encode().split()
    fields = [token.partition(b"=") for token in tokens[len(want) :]]
    values = {key: value for key, _, value in fields}
    if (
        not re.fullmatch(rb"[\t -~]*", head)
        or tokens[: len(want)] != want
        or not all(eq for _, eq, _ in fields)
        or not all(CLEAN_INT.fullmatch(values[key]) for key in integers if key in values)
    ):
        return 1
    row, _ = first_row_outside(body, *layout(values))
    return None if row is None else row + 2


def outcome(reader, path, message: bool = False):
    """What a reader does with a file: the returned object or the error kind;
    a `FormatError` also gives its line and, if asked, its message."""
    try:
        return reader(path)
    except FormatError as exc:
        return ("FormatError", exc.line, str(exc) if message else mock.ANY)


def required(want, outside: int | None):
    """What the shared reader must do with a file, from what a reference does
    with it (`want`, an `outcome`) and its first line outside the grammar:
    inside it, the same; outside it, raise `FormatError` at that line, or at
    the reference's error line if that comes first."""
    if outside is None or (isinstance(want, tuple) and want[0] == "FormatError" and want[1] < outside):
        return want
    return ("FormatError", outside, mock.ANY)


def assert_reads_as(reader, reference, path, message: bool = False) -> None:
    """Assert that `reader` does with the file at `path` what `required` asks,
    given `reference`."""
    want = required(outcome(reference, str(path), message), first_line_outside(path.read_bytes(), reader))
    assert outcome(reader, str(path), message) == want


# tokens int() reads (signs, underscores, other scripts' digits, values past
# int64) and tokens it rejects
ODD_TOKENS = ["+1", "-1", "+2", "-0", "00", "1_0", "٣", "99999999999999999999",
              "-99999999999999999999", "x", "C", "1.0", "+", "0x1", "1__0", "²"]
# str.split whitespace, some of which str.splitlines also breaks lines on
SPACES = [" ", "  ", "\t", "\xa0", "\x1f", "　"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


SPACE, BREAK = st.sampled_from(SPACES), st.sampled_from(BREAKS)


@functools.cache
def body_rows(n: int, width: int):
    """Rows of `width` fields or of up to `width + 1`: integers near ``[0, n)``, signs and odd tokens."""
    field = st.one_of(st.integers(-1, n + 1).map(str), st.sampled_from(["+1", "-1"]),
                      st.sampled_from(ODD_TOKENS))
    return st.one_of(
        st.lists(field, min_size=width, max_size=width),
        st.lists(field, max_size=width + 1),
    )


@st.composite
def body(draw, n: int, width: int) -> str:
    """Rows of mostly well-formed fields, with wrong widths, odd tokens,
    blank lines and mixed line breaks mixed in."""
    text = ""
    for fields in draw(st.lists(body_rows(n, width), max_size=8)):
        line = "".join(tok + draw(SPACE) for tok in fields)
        text += draw(BREAK) + line
    return text + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file that each hypothesis example overwrites."""
    return tmp_path_factory.mktemp("readers") / "f"


class TestSharedReaderMatchesPerLineReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_graph(self, path, n, data):
        path.write_bytes(f"#graph v1 n={n}{data.draw(body(n, 2))}".encode())
        assert_reads_as(read_graph, reference_read_graph, path)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.sampled_from(["ins", "dyn"]), st.data())
    def test_stream(self, path, n, model, data):
        path.write_bytes(f"#stream v1 n={n} model={model}{data.draw(body(n, 3))}".encode())
        assert_reads_as(read_stream, reference_read_stream, path)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0 1\n\n2 2\n0 1\n", 4),  # a self-loop, then a duplicate
            ("0 1\r\n\x0b0 1 2\n", 3),  # \x0b is a token byte, not a line end
            ("1 0\n0 2\n0 2\n", 2),  # a bad pair, then a duplicate
            ("0 x\n1 0\n", 2),
            ("0 1\n0 99999999999999999999\n", 3),
            ("0 1\n0 1_0\n", 3),  # outside the grammar, though int() reads it
            ("0 ٣\n", 2),
            ("0 1\r0 2\n", 2),  # a \r that ends no line
            ("0 1\n0 0000000000000000003\n", 3),  # 19 digits
        ],
    )
    def test_first_malformed_line_is_named(self, tmp_path, body, line):
        path = tmp_path / "g.graph"
        path.write_bytes(f"#graph v1 n=4\n{body}".encode())
        with pytest.raises(FormatError) as err:
            read_graph(str(path))
        assert err.value.line == line
        want = outcome(reference_read_graph, str(path))
        outside = first_line_outside(path.read_bytes(), read_graph)
        assert required(want, outside) == ("FormatError", line, mock.ANY)


class TestHeaderGrammar:
    @pytest.mark.parametrize(
        "reader, header",
        [
            (read_graph, "#graph v10 n=3"),
            (read_graph, "#graph v1 nn=3"),
            (read_graph, "#graph v1 n=3 extra"),
            (read_graph, "#graph v1n=3"),
            (read_stream, "#stream v10 n=3 model=ins"),
            (read_stream, "#stream v1n=3 model=ins"),
            (sc.read_cpg, "#cpg v10 n=4 k=2 r=1 t=1 layout=basic"),
            (read_graph, "#graph v1 n=1_0"),
            (read_graph, "#graph v1 n=٣"),
            (read_graph, "#graph v1 n=3 note=a\x0cb"),  # not a line end, and not printable
        ],
    )
    def test_rejected(self, tmp_path, reader, header):
        path = tmp_path / "f"
        path.write_bytes((header + "\n").encode())
        with pytest.raises(FormatError) as err:
            reader(str(path))
        assert err.value.line == 1
        if reader is read_graph:
            coloring = tmp_path / "c.json"
            coloring.write_text('{"n": 3, "num_colors": 1, "colors": [0, 0, 0]}')
            assert main(["verify", "coloring", "--graph", str(path), "--coloring", str(coloring)]) == 3

    def test_the_per_line_reader_read_both_graph_headers_as_n_3(self, tmp_path):
        for header in ("#graph v10 n=3", "#graph v1 nn=3"):
            path = tmp_path / "g.graph"
            path.write_text(header + "\n0 2\n")
            assert reference_read_graph(str(path)) == Graph(3, [(0, 2)])

    def test_unknown_keys_are_ignored(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("#graph v1 n=3 m=1 note=x\n0 2\n")
        assert read_graph(str(path)) == Graph(3, [(0, 2)])


def cpg_text(header: str, rows: str = "") -> str:
    return f"#cpg v1 {header}\n{rows}"


class TestCpgReader:
    @pytest.mark.parametrize(
        "header",
        [
            f"n={MAX_VERTICES + 1} k=2 r=1 t=1 layout=basic",
            "n=4 k=0 r=1 t=1 layout=basic",
            "n=4 k=-2 r=1 t=1 layout=basic",
            "n=4 k=2 r=1 t=-1 layout=basic",
            "n=4 k=2 r=1 t=1000000000 layout=basic",
            "n=4 k=2 r=0 t=1000000000 layout=basic",
            "n=4 k=2 r=1 t=1 layout=other",
        ],
    )
    def test_bad_header_is_format_error_and_exit_3(self, tmp_path, header):
        path = tmp_path / "bad.cpg"
        path.write_text(cpg_text(header, "C 0 0 0 1\n"))
        with pytest.raises(FormatError) as err:
            sc.read_cpg(str(path))
        assert err.value.line == 1
        assert main(["verify", "cpg", "--file", str(path)]) == 3

    @pytest.mark.parametrize(
        "rows, line",
        [
            ("X 0 0 0 1\n", 2),
            ("C 0 0 0 1 2\n", 2),
            ("C 0 0 0 1\nC 2 0 2 3\n", 3),  # cluster index
            ("C 0 0 0 1\nC 0 1 2 3\n", 3),  # clique index
            ("C 0 0 0 1\n\nC 0 0 2 3\n", 4),  # the same clique twice
            ("C 0 0 0 4\n", 2),  # vertex out of range
            ("C 0 0 1 1\n", 2),  # a clique repeating a vertex
            ("C 0 0 0 1\nC 1 0 1 0\n", 3),  # an edge implied twice
        ],
    )
    def test_first_malformed_row_is_named(self, tmp_path, rows, line):
        path = tmp_path / "bad.cpg"
        path.write_text(cpg_text("n=4 k=2 r=1 t=2 layout=basic", rows))
        with pytest.raises(FormatError) as err:
            sc.read_cpg(str(path))
        assert err.value.line == line

    def test_no_rows_allocate_nothing_by_k(self, tmp_path):
        path = tmp_path / "empty.cpg"
        path.write_text(cpg_text(f"n={MAX_VERTICES} k={MAX_VERTICES} r=1 t=0 layout=basic"))
        cpg = sc.read_cpg(str(path))
        assert (cpg.graph.num_edges, cpg.t, cpg.clusters.size) == (0, 0, 0)

    def test_missing_cliques(self, tmp_path):
        path = tmp_path / "short.cpg"
        path.write_text(cpg_text("n=4 k=2 r=1 t=2 layout=basic", "C 1 0 2 3\n"))
        with pytest.raises(FormatError):
            sc.read_cpg(str(path))

    @pytest.fixture
    def no_pairs(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("pairs built before the header's edge count was checked")

        monkeypatch.setattr(sc.clusterpack, "_clique_pairs", forbidden)

    @pytest.mark.parametrize(
        "header",
        [
            "n=4 k=3 r=1 t=3 layout=basic",  # 9 edges, 6 pairs
            "n=4 k=2 r=1 t=7 layout=basic",  # 7 edges, 6 pairs
            "n=100 k=100 r=1 t=2 layout=basic",  # 2 * 4950 edges, 4950 pairs
        ],
    )
    def test_more_edges_than_pairs_is_format_error(self, tmp_path, header, no_pairs):
        path = tmp_path / "bad.cpg"
        path.write_text(cpg_text(header, "C 0 0 0 1 2\n"))
        with pytest.raises(FormatError) as err:
            sc.read_cpg(str(path))
        assert err.value.line == 1
        assert main(["verify", "cpg", "--file", str(path)]) == 3

    def test_as_many_edges_as_pairs_is_read(self, tmp_path):
        path = tmp_path / "k4.cpg"
        pairs = itertools.combinations(range(4), 2)
        rows = "".join(f"C {i} 0 {u} {v}\n" for i, (u, v) in enumerate(pairs))
        path.write_text(cpg_text("n=4 k=2 r=1 t=6 layout=basic", rows))
        assert sc.read_cpg(str(path)).graph.num_edges == 6

    def test_edges_above_the_guard_are_refused_before_any_pair(self, tmp_path, no_pairs):
        # one clique of 10^5 vertices implies about 5 * 10^9 edges, 80 GB of pairs
        k = 100_000
        path = tmp_path / "huge.cpg"
        row = f"C 0 0 {' '.join(map(str, range(k)))}\n"
        path.write_text(cpg_text(f"n={k} k={k} r=1 t=1 layout=basic", row))
        with pytest.raises(sc.errors.ResourceLimitError):
            sc.read_cpg(str(path))
        assert main(["gen", "lift", "-i", str(path), "-o", str(tmp_path / "out.cpg")]) == 2
        assert not (tmp_path / "out.cpg").exists()

    def test_edge_guard_is_one_rule_for_constructions_and_the_reader(self, tmp_path, monkeypatch):
        # dense k=2 on fano(3) implies 1875 edges; its lift, k = 2 times as many
        params = sc.DenseParams(k=2, d=7, p=5, family=sc.fano_family(3))
        dense = sc.construct_dense(params)
        assert dense.graph.num_edges == 1875
        path, lifted = tmp_path / "dense.cpg", tmp_path / "lifted.cpg"
        sc.write_cpg(dense, str(path))
        lift = ["gen", "lift", "-i", str(path), "-o", str(lifted)]
        monkeypatch.setattr(sc.clusterpack, "MAX_EDGES", 1875 * 2 - 1)
        assert sc.read_cpg(str(path)) == dense
        assert main(lift) == 2 and not lifted.exists()
        monkeypatch.setattr(sc.clusterpack, "MAX_EDGES", 1875 * 2)  # exactly at the guard
        assert main(lift) == 0
        assert sc.read_cpg(str(lifted)).graph.num_edges == 1875 * 2
        monkeypatch.setattr(sc.clusterpack, "MAX_EDGES", 1875)
        assert sc.construct_dense(params) == dense
        monkeypatch.setattr(sc.clusterpack, "MAX_EDGES", 1874)
        with pytest.raises(sc.errors.ResourceLimitError):
            sc.construct_dense(params)
        with pytest.raises(sc.errors.ResourceLimitError):
            sc.read_cpg(str(path))
        again = tmp_path / "again.cpg"
        gen = ["gen", "dense", "--k", "2", "--d", "7", "--p", "5", "--fano", "3"]
        assert main([*gen, "-o", str(again)]) == 2 and not again.exists()
        assert main(["verify", "cpg", "--file", str(path)]) == 2
        # the line constructions share it: basic n=64 k=2 implies 64 edges
        monkeypatch.setattr(sc.clusterpack, "MAX_EDGES", 64)
        assert sc.construct_lines_basic(64, 2).graph.num_edges == 64
        monkeypatch.setattr(sc.clusterpack, "MAX_EDGES", 63)
        with pytest.raises(sc.errors.ResourceLimitError):
            sc.construct_lines_basic(64, 2)

    def test_rows_past_the_header_count_build_no_pairs_for_them(self, tmp_path, monkeypatch):
        built = []
        clique_pairs = sc.clusterpack._clique_pairs
        monkeypatch.setattr(
            sc.clusterpack, "_clique_pairs", lambda c, n: built.append(len(c)) or clique_pairs(c, n)
        )
        path = tmp_path / "long.cpg"
        rows = "C 0 0 0 1\nC 0 0 2 3\nC 0 0 4 5\n"
        path.write_text(cpg_text("n=6 k=2 r=1 t=1 layout=basic", rows))
        with pytest.raises(FormatError):
            sc.read_cpg(str(path))
        assert built == [1]

    def test_rows_in_any_order(self, tmp_path):
        cpg = sc.construct_lines_grouped(36, 2, 3)
        path = tmp_path / "a.cpg"
        sc.write_cpg(cpg, str(path))
        head, *rows = path.read_text().splitlines()
        path.write_text("\n".join([head] + rows[::-1]) + "\n")
        again = sc.read_cpg(str(path))
        assert again.graph == cpg.graph and np.array_equal(again.clusters, cpg.clusters)


NOT_UTF8 = [
    (read_graph, b"#graph v1 n=3\n0 1\n\xff 2\n", 3),
    (read_stream, b"#stream v1 n=3 model=ins\r\n0 1 +1\r\n1 2 +1 \xc3\n", 3),
    (sc.read_cpg, b"#cpg v1 n=4 k=2 r=1 t=1 layout=basic\n\xffC 0 0 0 1\n", 2),
    (read_coloring, b'{"n": 1, "num_colors": 1,\n "colors": [0\xff]}', 2),
    (sc.read_instance, b'\n\n{"variant": "two-player\xff"}', 3),
]


@pytest.mark.parametrize("reader, data, line", NOT_UTF8)
def test_bytes_that_are_not_utf8_are_a_format_error(tmp_path, reader, data, line):
    path = tmp_path / "f"
    path.write_bytes(data)
    with pytest.raises(FormatError) as err:
        reader(str(path))
    assert err.value.line == line


@pytest.mark.parametrize("colors, entry", [
    ("[1000000000000000000000000000000, 5, 1000000000000000000000000000000]", "colors[0] is 10"),
    ("[0, 9223372036854775808]", "colors[1] is 9223372036854775808"),
    ("[0, 1, -9223372036854775809]", "colors[2] is -9223372036854775809"),
    ("[0, 1.5]", "colors[1] is 1.5"),
    ('[0, 1, "2"]', "colors[2] is '2'"),
    ("[0, true]", "colors[1] is True"),
])
def test_coloring_entry_that_is_not_int64_is_named(tmp_path, colors, entry):
    path = tmp_path / "c.json"
    path.write_text(f'{{"n": 3, "num_colors": 2, "colors": {colors}}}')
    with pytest.raises(FormatError, match=re.escape(f"'colors' must be a list of int64 integers: {entry}")):
        read_coloring(str(path))


def test_coloring_labels_at_the_int64_ends_read(tmp_path):
    path = tmp_path / "c.json"
    ends = [2**63 - 1, -(2**63), 2**63 - 1]
    path.write_text(json.dumps({"n": 3, "num_colors": 2, "colors": ends}))
    assert read_coloring(str(path)).colors.tolist() == [0, 1, 0]


def test_cli_exits_3_on_bytes_that_are_not_utf8(tmp_path):
    stream, graph, coloring = tmp_path / "s", tmp_path / "g", tmp_path / "c"
    stream.write_bytes(b"#stream v1 n=3 model=ins\n0 1 +1\xff\n")
    assert main(["run", "random-order", "--stream", str(stream), "--q", "2", "--t", "2"]) == 3
    graph.write_bytes(b"#graph v1 n=2\n0 1\n")
    coloring.write_bytes(b'{"colors": [0, 1], "n": 2, "num_colors": 2\xff}')
    assert main(["verify", "coloring", "--graph", str(graph), "--coloring", str(coloring)]) == 3


class TestInstancePayloads:
    @pytest.fixture
    def payload(self):
        return sc.instances.instance_to_dict(sc.gen_two_player(16, 2, seed=1))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("players"),
            lambda p: p["params"].pop("n"),
            lambda p: p.pop("variant"),
            lambda p: p.update(variant="three-player"),
            lambda p: p.update(params=[16, 2]),
            lambda p: p.update(params={"n": "16", "k": 2}),
            lambda p: p.update(params={"n": 16, "k": 0}),
            lambda p: p.update(params={"n": 3, "k": 2}),
            lambda p: p.update(players=[[[0, "x"]]]),
            lambda p: p.update(players=5),
            lambda p: p.update(seed="seed"),
        ],
    )
    def test_bad_payload_is_format_error_and_exit_3(self, tmp_path, payload, edit):
        edit(payload)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            sc.read_instance(str(path))
        assert main(["verify", "instance", "--file", str(path)]) == 3

    def test_json_syntax_error_names_its_line(self, tmp_path, capsys):
        # line 3 holds a value that is not JSON
        path = tmp_path / "inst.json"
        path.write_text('{\n  "variant": "two-player",\n  "seed": one,\n  "ans": 0\n}\n')
        with pytest.raises(FormatError, match="^line 3: invalid JSON: Expecting value at column 11$") as err:
            sc.read_instance(str(path))
        assert err.value.line == 3
        assert main(["verify", "instance", "--file", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: line 3: invalid JSON: ")

    @pytest.mark.parametrize("text", ["[1, 2]", '"two-player"', "3", "null"])
    def test_payload_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            sc.read_instance(str(path))
        assert main(["verify", "instance", "--file", str(path)]) == 3


@functools.cache
def seed_files():
    """Small valid files of every format, each with its reader, with ``\\n``
    and with ``\\r\\n`` line ends."""
    g = sc.GraphSpec.parse("gnm:n=8,m=12").build(sc.seeds.rng_for(1, 0))
    writers = [
        (sc.read_cpg, sc.write_cpg, sc.construct_lines_basic(16, 2)),
        (sc.read_cpg, sc.write_cpg, sc.lift_to_k_colorable(sc.construct_lines_grouped(36, 2, 3))),
        (sc.read_instance, sc.write_instance, sc.gen_two_player(16, 2, seed=1)),
        (sc.read_instance, sc.write_instance, sc.gen_simultaneous(4, 3, seed=1)),
        (read_coloring, sc.write_coloring, sc.Coloring.from_array([0, 1, 0, 2])),
        (read_graph, sc.write_graph, g),
        (read_stream, sc.write_stream, sc.to_dynamic_stream(g, extra_pairs=3, seed=1)),
    ]
    out = []
    with tempfile.TemporaryDirectory() as d:
        for reader, write, obj in writers:
            path = os.path.join(d, "f")
            write(obj, path)
            with open(path, "rb") as f:
                data = f.read()
            out += [(reader, data), (reader, data.replace(b"\n", b"\r\n"))]
    return out


@st.composite
def mutated(draw):
    """A seed file with a few bytes replaced, deleted or inserted. Inserted
    bytes are never digits, so no number grows past the seed's size."""
    reader, data = draw(st.sampled_from(seed_files()))
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "replace" and i < len(data):
            data[i] = draw(st.sampled_from(b"0123456789 \n\r-+C=,[]{}\":x\xff\xc3"))
        elif op == "delete":
            del data[i : i + draw(st.integers(1, 5))]
        else:
            data[i:i] = draw(st.sampled_from([b" ", b"\n", b"-", b"=", b",", b"[", b"{", b'"', b"\xff",
                                              b"\r\n", b"\r", b"\xa0", b"\xc2\x85"]))
    return reader, bytes(data)


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_mutated_files_raise_only_format_error(path, case):
    """Any file raises only `FormatError`; a text file reads as `required`
    asks, with the per-line parsers as the reference and the same message
    inside the grammar."""
    reader, data = case
    path.write_bytes(data)
    if reader in GRAMMARS:
        assert_reads_as(reader, on_line_path(reader), path, message=True)
    try:
        reader(str(path))
    except FormatError:
        pass


# ---------------------------------------------------------------------------
# `Rows` against the per-line row parser
# ---------------------------------------------------------------------------

# (width, literals) of the .graph body, the .stream body and .cpg bodies for k = 1, 2, 3
LAYOUTS = [(2, {}), (3, {2: ("-1", "+1")}), *((3 + k, {0: ("C",)}) for k in (1, 2, 3))]


@st.composite
def int_token(draw, min_digits: int = 1, max_digits: int = 18) -> str:
    """An integer token: an optional sign, then digits, leading zeros allowed."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    return sign + draw(st.text("0123456789", min_size=min_digits, max_size=max_digits))


INT_FIELD = st.one_of(int_token(), st.sampled_from(["+3", "-0", "007", "9" * 18]))


@st.composite
def clean_or_near_body(draw, width: int, literals) -> tuple[str, bool]:
    """A body of `width`-token rows separated by spaces, tabs and ``\\n``, and
    whether it is clean. Half the bodies get one defect: a row one token short
    or long, a row split over two lines, a token of 19 or 20 digits, a sign
    that is not first, or a literal in the wrong column, another format's
    literal or a literal with a suffix."""
    fields = {col: st.sampled_from(allowed) for col, allowed in literals.items()}

    def token(col):
        return draw(fields[col] if col in fields else INT_FIELD)

    rows = [[token(col) for col in range(width)] for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, width - 1))
        defect = draw(st.sampled_from(["short", "long", "split", "digits", "sign", "literal"]))
        if defect == "split":  # the row's tokens stay, but a line ends before one
            row[col] = "\n" + row[col]
        elif defect == "short":
            del row[col]
        elif defect == "long":
            row.insert(col, token(col))
        elif defect == "digits":
            row[col] = draw(int_token(19, 20))
        elif defect == "sign":
            digits = draw(st.text("0123456789", min_size=1, max_size=4))
            i = draw(st.integers(1, len(digits)))
            row[col] = digits[:i] + draw(st.sampled_from("+-")) + digits[i:]
        else:
            row[col] = draw(st.sampled_from(["C", "+1", "-1", "1", "c", "+C", "C1", "+10", "-1-"]))
    # a line end before a row's first token only adds a blank line
    clean = all(
        len(row) == width
        and all(tok in literals[col] if col in literals else CLEAN_INT.fullmatch(tok.encode()) is not None
                for col, tok in enumerate([row[0].removeprefix("\n"), *row[1:]]))
        for row in rows
    )
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    edge = st.sampled_from(["", " ", "\t"])
    lines = [draw(edge) + "".join(tok + draw(space) for tok in row[:-1]) + row[-1] + draw(edge)
             if row else draw(edge) for row in rows]
    for _ in range(draw(st.integers(0, 3))):  # blank lines anywhere
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t \t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), clean


def parsed(parser, body: bytes, width: int, literals) -> list:
    """The rows `parser` reads, and the `FormatError` that `check` raises, as
    an `outcome`, with no reader check and with one that flags some rows."""
    rows = parser(body, width, literals)
    out = [rows.data.tolist()]
    for checks in ((), ((rows.data[:, -1] % 3 == 1, "flagged"),)):
        try:
            rows.check(*checks)
            out.append(None)
        except FormatError as exc:
            out.append(("FormatError", exc.line, str(exc)))
    return out


class TestBytePathMatchesLinePath:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(LAYOUTS), st.data())
    def test_clean_and_near_clean_bodies(self, layout, data):
        width, literals = layout
        text, clean = data.draw(clean_or_near_body(width, literals))
        body = text.encode()
        got, *errors = parsed(Rows, body, width, literals)
        want, *references = parsed(LineRows, body, width, literals)
        row, rows = first_row_outside(text_lines(body), width, literals)
        assert (row is None) == clean
        # the rows before the first line outside the grammar, as the reference reads them
        assert got == want[:rows] and len(got) == rows
        for error, reference in zip(errors, references):
            assert error == required(reference, None if row is None else row + 2)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0 1\n\n\t2  3\n0 1", 5),  # the last row repeats the first
            ("0 1\n 0  1 \n", 3),
            ("0 1\r\n0 1\n", 3),  # a \r\n line end
        ],
    )
    def test_reader_checks_name_file_lines(self, tmp_path, body, line):
        path = tmp_path / "g.graph"
        path.write_bytes(f"#graph v1 n=4\n{body}".encode())
        with pytest.raises(FormatError) as err:
            read_graph(str(path))
        assert err.value.line == line
        assert outcome(reference_read_graph, str(path)) == ("FormatError", line, mock.ANY)

    def test_writer_output_round_trips(self, tmp_path):
        path = tmp_path / "f"

        def read_back(write, read, obj) -> list:
            """`obj` written, then read as written and with ``\\r\\n`` line ends."""
            write(obj, str(path))
            out = [read(str(path))]
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            return out + [read(str(path))]

        g = sc.GraphSpec.parse("gnm:n=300,m=2000").build(sc.seeds.rng_for(2, 0))
        for obj in (Graph(0), g):
            assert read_back(write_graph, read_graph, obj) == [obj, obj]
        for stream in (
            sc.to_insertion_stream(g, "shuffled", seed=1),
            sc.to_dynamic_stream(g, extra_pairs=500, cycles=2, seed=1),
        ):
            for again in read_back(write_stream, read_stream, stream):
                assert (again.n, again.model) == (stream.n, stream.model)
                assert np.array_equal(again.events, stream.events)
        grouped = sc.construct_lines_grouped(36, 2, 3)
        for cpg in (sc.construct_lines_basic(64, 2), grouped, sc.lift_to_k_colorable(grouped)):
            assert read_back(sc.write_cpg, sc.read_cpg, cpg) == [cpg, cpg]


# what str.splitlines ends a line on; of these, the header ends only at "\n"
# and at "\r\n"
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LINE_ENDS), st.lists(st.sampled_from(LINE_ENDS + ["0 1", " ", "é", "x"])))
def test_header_is_the_first_line_up_to_its_newline(path, end, rest):
    text = "#graph v1 n=3" + end + "".join(rest)
    head, newline, body = text.partition("\n")
    if (head.removesuffix("\r") if newline else head).rstrip(" ") == "#graph v1 n=3":
        path.write_bytes(f"#graph v1 n=3\n{body}".encode())
        want = outcome(read_graph, str(path), message=True)
    else:
        want = ("FormatError", 1, mock.ANY)
    path.write_bytes(text.encode())
    assert outcome(read_graph, str(path), message=True) == want


# ---------------------------------------------------------------------------
# the writers
# ---------------------------------------------------------------------------


def reference_write_graph(g: Graph, path: str) -> None:
    lines = [f"{u} {v}\n" for u, v in g.edge_array().tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join([f"#graph v1 n={g.n}\n", *lines]))


def reference_write_stream(stream: Stream, path: str) -> None:
    lines = [f"{u} {v} {'+1' if delta > 0 else '-1'}\n" for u, v, delta in stream.events.tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join([f"#stream v1 n={stream.n} model={stream.model}\n", *lines]))


def reference_write_cpg(cpg, path: str) -> None:
    header = f"#cpg v1 n={cpg.graph.n} k={cpg.k} r={cpg.r} t={cpg.t} layout={cpg.layout}\n"
    t, r, k = cpg.clusters.shape
    ci, ji = np.divmod(np.arange(t * r), r)
    rows = np.column_stack((ci, ji, cpg.clusters.reshape(t * r, k))).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join([header, *(f"C {' '.join(map(str, row))}\n" for row in rows)]))


def same_bytes(write, reference, obj, directory) -> bool:
    ours, theirs = os.path.join(directory, "ours"), os.path.join(directory, "theirs")
    write(obj, ours)
    reference(obj, theirs)
    with open(ours, "rb") as a, open(theirs, "rb") as b:
        return a.read() == b.read()


@functools.cache
def vertex_pairs(n: int):
    """Lists of up to 12 pairs of distinct ids below `n`, each id at a
    digit-count boundary or anywhere, reduced mod `n`; built once per `n`."""
    edge_ids = [0, 9, 10, 99, 100, MAX_VERTICES - 1]
    vertex_id = st.one_of(st.sampled_from(edge_ids), st.integers(0, MAX_VERTICES - 1))
    vertex_id = vertex_id.map(lambda v: v % n)
    return st.lists(st.tuples(vertex_id, vertex_id).filter(lambda p: p[0] != p[1]), max_size=12)


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return str(tmp_path_factory.mktemp("writers"))


class TestWritersMatchFStringReferences:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0, 1, 2, 11, 101, MAX_VERTICES]), st.data())
    def test_graph_and_streams(self, directory, n, data):
        pairs = data.draw(vertex_pairs(n)) if n > 1 else []
        g = Graph(n, pairs)
        assert same_bytes(write_graph, reference_write_graph, g, directory)
        inserted = Stream(n, "ins", [(*p, 1) for p in dict.fromkeys(map(tuple, map(sorted, pairs)))])
        assert same_bytes(write_stream, reference_write_stream, inserted, directory)
        events = [(u, v, 1) for u, v in pairs]
        deleted = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        events += [(u, v, -1) for (u, v), gone in zip(pairs, deleted) if gone]
        dynamic = Stream(n, "dyn", events)
        assert same_bytes(write_stream, reference_write_stream, dynamic, directory)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 3), st.integers(1, 4), st.data())
    def test_cpg(self, directory, t, r, k, data):
        # the writer reads only these fields, so ids may run to the packing bound
        n = sc.clusterpack.MAX_VERTICES
        ids = st.one_of(st.sampled_from([0, 9, 10, n - 1]), st.integers(0, n - 1))
        clusters = np.array(data.draw(st.lists(ids, min_size=t * r * k, max_size=t * r * k)), np.int64)
        layout = data.draw(st.sampled_from(["basic", "grouped", "dense", "lifted"]))
        cpg = SimpleNamespace(graph=SimpleNamespace(n=n), k=k, r=r, t=t, layout=layout,
                              clusters=clusters.reshape(t, r, k))
        assert same_bytes(sc.write_cpg, reference_write_cpg, cpg, directory)

    def test_constructions(self, directory):
        grouped = sc.construct_lines_grouped(36, 2, 3)
        for cpg in (sc.construct_lines_basic(64, 2), grouped, sc.lift_to_k_colorable(grouped)):
            assert same_bytes(sc.write_cpg, reference_write_cpg, cpg, directory)

    def test_format_rows_refuses_negative_fields(self):
        assert format_rows(np.zeros((0, 2), dtype=np.int64)) == b""
        assert format_rows(np.array([[0, 12]])) == b"0 12\n"
        with pytest.raises(ArgumentError):
            format_rows(np.array([[0, -1]]))


# tracemalloc peak of `read_cpg` on these packings, in bytes per edge, with
# each line end; the per-line parser peaked at about 540 (k = 2) and 200
# (k = 3), the byte path at about 180 and 120
PEAK_BYTES_PER_EDGE = {
    ((1024, 4, 2), b"\n"): 250,
    ((864, 4, 3), b"\n"): 150,
    ((1024, 4, 2), b"\r\n"): 250,
    ((864, 4, 3), b"\r\n"): 150,
}


@pytest.mark.parametrize("args, bound", PEAK_BYTES_PER_EDGE.items())
def test_read_cpg_peak_memory_per_edge(tmp_path, args, bound):
    grouped, end = args
    cpg = sc.construct_lines_grouped(*grouped)
    path = tmp_path / "grouped.cpg"
    sc.write_cpg(cpg, str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    path = str(path)
    again, peak = peak_bytes(lambda: sc.read_cpg(path))
    assert again == cpg
    assert peak / cpg.graph.num_edges <= bound
