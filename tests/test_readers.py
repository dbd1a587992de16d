"""The shared text reader: differential and robustness tests.

`reference_read_graph` and `reference_read_stream` are the earlier per-line
readers, kept here as references. On any body under a valid header the
shared reader must agree with them: both reject with `FormatError` at the
same line, both reject with `StreamValidationError`, or both return equal
objects. Byte-mutated files of every format may raise only `FormatError`
(and, for streams, `StreamValidationError`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamcolor as sc
from streamcolor.cli import main
from streamcolor.errors import FormatError, StreamValidationError
from streamcolor.graph import MAX_VERTICES, Graph, read_coloring, read_graph
from streamcolor.streams import Stream, read_stream


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
    events = []
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
        events.append((u, v, delta))
    return Stream(n, model, events)


def outcome(reader, path):
    """What a reader does with a file: the returned object or the error kind."""
    try:
        return reader(path)
    except FormatError as exc:
        return ("FormatError", exc.line)
    except StreamValidationError:
        return ("StreamValidationError",)


# tokens int() reads (signs, underscores, other scripts' digits, values past
# int64) and tokens it rejects
ODD_TOKENS = ["+1", "-1", "+2", "-0", "00", "1_0", "٣", "99999999999999999999",
              "-99999999999999999999", "x", "C", "1.0", "+", "0x1", "1__0", "²"]
# str.split whitespace, some of which str.splitlines also breaks lines on
SPACES = [" ", "  ", "\t", "\xa0", "\x1f", "　"]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " "]


@st.composite
def body(draw, n: int, width: int) -> str:
    """Rows of mostly well-formed fields, with wrong widths, odd tokens,
    blank lines and mixed line breaks mixed in."""
    field = st.one_of(st.integers(-1, n + 1).map(str), st.sampled_from(["+1", "-1"]),
                      st.sampled_from(ODD_TOKENS))
    rows = st.one_of(
        st.lists(field, min_size=width, max_size=width),
        st.lists(field, max_size=width + 1),
    )
    text = ""
    for fields in draw(st.lists(rows, max_size=8)):
        line = "".join(tok + draw(st.sampled_from(SPACES)) for tok in fields)
        text += draw(st.sampled_from(BREAKS)) + line
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
        assert outcome(read_graph, str(path)) == outcome(reference_read_graph, str(path))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.sampled_from(["ins", "dyn"]), st.data())
    def test_stream(self, path, n, model, data):
        path.write_bytes(f"#stream v1 n={n} model={model}{data.draw(body(n, 3))}".encode())
        assert outcome(read_stream, str(path)) == outcome(reference_read_stream, str(path))

    @pytest.mark.parametrize(
        "body, line",
        [
            ("0 1\n\n2 2\n0 1\n", 4),  # a self-loop, then a duplicate
            ("0 1\r\n\x0b0 1 2\n", 4),  # lines numbered as str.splitlines numbers them
            ("1 0\n0 2\n0 2\n", 2),  # a bad pair, then a duplicate
            ("0 x\n1 0\n", 2),
            ("0 1\n0 99999999999999999999\n", 3),
        ],
    )
    def test_first_malformed_line_is_named(self, tmp_path, body, line):
        path = tmp_path / "g.graph"
        path.write_bytes(f"#graph v1 n=4\n{body}".encode())
        with pytest.raises(FormatError) as err:
            read_graph(str(path))
        assert outcome(reference_read_graph, str(path)) == ("FormatError", err.value.line)
        assert err.value.line == line


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
        ],
    )
    def test_rejected(self, tmp_path, reader, header):
        path = tmp_path / "f"
        path.write_text(header + "\n")
        with pytest.raises(FormatError) as err:
            reader(str(path))
        assert err.value.line == 1

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

    @pytest.mark.parametrize("text", ["[1, 2]", '"two-player"', "3", "null"])
    def test_payload_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(FormatError):
            sc.read_instance(str(path))
        assert main(["verify", "instance", "--file", str(path)]) == 3


@functools.cache
def seed_files():
    """Small valid files of every format, each with its reader."""
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
                out.append((reader, f.read()))
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
            data[i:i] = draw(st.sampled_from([b" ", b"\n", b"-", b"=", b",", b"[", b"{", b'"', b"\xff"]))
    return reader, bytes(data)


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_mutated_files_raise_only_format_error(path, case):
    reader, data = case
    path.write_bytes(data)
    try:
        reader(str(path))
    except FormatError:
        pass
    except StreamValidationError:
        assert reader is read_stream
