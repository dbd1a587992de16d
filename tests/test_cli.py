from __future__ import annotations

import json
import os
import time

import pytest

import streamcolor.algorithms
import streamcolor.cli
from streamcolor import StreamSource
from streamcolor.cli import main
from streamcolor.graph import MAX_VERTICES, read_graph


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestParser:
    def test_built_once_and_reused_without_leftover_state(self):
        parser = streamcolor.cli.build_parser()
        assert streamcolor.cli.build_parser() is parser
        first = parser.parse_args(["gen", "graph", "--spec", "gnm:n=5,m=3", "--seed", "4"])
        second = parser.parse_args(["gen", "graph", "--spec", "gnm:n=5,m=3"])
        assert (first.seed, second.seed) == (4, None)


class TestGen:
    def test_basic_cpg_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.cpg", tmp_path / "b.cpg"
        assert run(["gen", "basic", "--n", "64", "--k", "2", "-o", str(a)]) == 0
        assert run(["gen", "basic", "--n", "64", "--k", "2", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_2(self, tmp_path, capsys):
        out = tmp_path / "a.cpg"
        assert run(["gen", "basic", "--n", "8", "--k", "2", "-o", str(out)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "basic", "--n", "64", "--k", "2"],
        ["gen", "lift", "-i", "{missing}"],
        ["gen", "graph", "--spec", "gnm:n=5,m=3"],
        ["stream", "shuffle", "--graph", "{missing}"],
        ["stream", "dynamic", "--graph", "{missing}"],
    ])
    def test_missing_out_refused_before_reading_or_building(self, tmp_path, monkeypatch, capsys, argv):
        def no_build(*args):
            raise AssertionError("a command without -o must not build its output")

        monkeypatch.setattr(streamcolor.clusterpack, "construct_lines_basic", no_build)
        missing = str(tmp_path / "missing")
        assert run([arg.replace("{missing}", missing) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {argv[0]} {argv[1]} needs -o <path>\n"

    def test_large_sparse_gnm(self, tmp_path):
        # no table of the 5 * 10**9 vertex pairs: the build is O(n + m)
        out = tmp_path / "g.graph"
        start = time.perf_counter()
        assert run(["gen", "graph", "--spec", "gnm:n=100000,m=10", "-o", str(out)]) == 0
        assert time.perf_counter() - start < 5
        g = read_graph(str(out))
        assert (g.n, g.num_edges) == (100000, 10)
        assert len(out.read_bytes().splitlines()) == 11

    def test_grouped_and_lift(self, tmp_path):
        cpg = tmp_path / "g.cpg"
        lifted = tmp_path / "l.cpg"
        assert run(["gen", "grouped", "--n", "64", "--r", "2", "--k", "2", "-o", str(cpg)]) == 0
        assert run(["gen", "lift", "-i", str(cpg), "-o", str(lifted)]) == 0
        header = lifted.read_text().splitlines()[0]
        assert "n=128" in header and "layout=lifted" in header

    def test_family_fano_and_dense(self, tmp_path):
        fam = tmp_path / "fam.json"
        assert run(["gen", "family", "--d", "7", "--w", "3", "--theta", "1",
                    "--count", "3", "--fano", "-o", str(fam)]) == 0
        payload = json.loads(fam.read_text())
        assert len(payload["sets"]) == 3
        dense = tmp_path / "dense.cpg"
        assert run(["gen", "dense", "--k", "2", "--d", "7", "--p", "5",
                    "--family", str(fam), "-o", str(dense)]) == 0
        assert "t=3" in dense.read_text().splitlines()[0]

    @pytest.mark.parametrize("d, w, theta", [(8, 3, 1), (7, 4, 1), (7, 3, 0)])
    def test_family_fano_needs_the_fano_parameters(self, tmp_path, capsys, d, w, theta):
        out = tmp_path / "fam.json"
        assert run(["gen", "family", "--d", str(d), "--w", str(w), "--theta", str(theta),
                    "--count", "3", "--fano", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: fano mode requires d=7, w=3, theta >= 1\n"
        assert not out.exists()

    def test_dense_fano_direct(self, tmp_path):
        dense = tmp_path / "dense.cpg"
        assert run(["gen", "dense", "--k", "2", "--d", "7", "--p", "5",
                    "--fano", "3", "-o", str(dense)]) == 0
        assert run(["verify", "cpg", "--file", str(dense)]) == 0

    @pytest.mark.parametrize("p", ["20", "21"])  # too many cliques, too many vertices
    def test_dense_guards_exit_2(self, tmp_path, p):
        out = tmp_path / "dense.cpg"
        assert run(["gen", "dense", "--k", "2", "--d", "7", "--p", p, "--fano", "3", "-o", str(out)]) == 2
        assert not out.exists()

    def test_dense_needs_family_or_fano(self, tmp_path):
        assert run(["gen", "dense", "--k", "2", "--d", "7", "--p", "5",
                    "-o", str(tmp_path / "x.cpg")]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            b"{}",
            b"[]",
            b'{"d": 7, "w": 3, "theta": 1}',
            b'{"d": "7", "w": 3, "theta": 1, "sets": [[0, 1, 2]]}',
            b'{"d": 7, "w": 3, "theta": 1, "sets": [[0, 1, "2"]]}',
            b'{"d": 7, "w": 3, "theta": 1, "sets": 5}',
            b'{"d": 7, "w": 3, "theta": 1, "sets": [[0, 1, 2\xff]]}',
            b"{",
        ],
    )
    def test_malformed_family_file_exits_3(self, tmp_path, content):
        fam = tmp_path / "fam.json"
        fam.write_bytes(content)
        assert run(["gen", "dense", "--k", "2", "--d", "7", "--p", "5",
                    "--family", str(fam), "-o", str(tmp_path / "x.cpg")]) == 3

    def test_family_breaking_its_own_bounds_exits_2(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text('{"d": 7, "w": 3, "theta": 0, "sets": [[0, 1, 2], [0, 3, 4]]}')
        assert run(["gen", "dense", "--k", "2", "--d", "7", "--p", "5",
                    "--family", str(fam), "-o", str(tmp_path / "x.cpg")]) == 2

    def test_family_seeded_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "family", "--d", "30", "--w", "6", "--theta", "2",
                "--count", "5", "--seed", "7"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_instances_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "two-player", "--n", "64", "--k", "2", "--seed", "3"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_recursive_and_simultaneous(self, tmp_path):
        rec = tmp_path / "rec.json"
        sim = tmp_path / "sim.json"
        assert run(["gen", "recursive", "--p", "3", "--k", "2", "--seed", "1",
                    "-o", str(rec)]) == 0
        assert run(["gen", "simultaneous", "--k", "4", "--n-base", "6",
                    "--seed", "1", "-o", str(sim)]) == 0
        assert json.loads(rec.read_text())["variant"] == "recursive"
        assert json.loads(sim.read_text())["variant"] == "simultaneous"


class TestVerify:
    def test_cpg_pass(self, tmp_path):
        cpg = tmp_path / "g.cpg"
        run(["gen", "basic", "--n", "64", "--k", "2", "-o", str(cpg)])
        assert run(["verify", "cpg", "--file", str(cpg)]) == 0

    def test_cpg_tampered_fails(self, tmp_path, capsys):
        cpg = tmp_path / "g.cpg"
        run(["gen", "basic", "--n", "64", "--k", "2", "-o", str(cpg)])
        lines = cpg.read_text().splitlines()
        # move one clique's vertex to break inducedness/partition
        parts = lines[1].split()
        parts[-1] = str((int(parts[-1]) + 1) % 64)
        lines[1] = " ".join(parts)
        cpg.write_text("\n".join(lines) + "\n")
        code = run(["verify", "cpg", "--file", str(cpg)])
        assert code in (1, 3)  # verification failure, or collision at parse

    def test_instance_pass(self, tmp_path):
        inst = tmp_path / "i.json"
        run(["gen", "two-player", "--n", "64", "--k", "2", "--seed", "5",
             "-o", str(inst)])
        assert run(["verify", "instance", "--file", str(inst)]) == 0

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert run(["verify", "cpg", "--file", str(tmp_path / "nope.cpg")]) == 3

    def test_coloring(self, tmp_path):
        g = tmp_path / "g.graph"
        c = tmp_path / "c.json"
        run(["gen", "graph", "--spec", "bipartite:n=10,m=20", "--seed", "1",
             "-o", str(g)])
        c.write_text('{"colors":[0,0,0,0,0,1,1,1,1,1],"n":10,"num_colors":2}\n')
        assert run(["verify", "coloring", "--graph", str(g), "--coloring", str(c)]) == 0
        c.write_text('{"colors":[0,0,0,0,0,0,0,0,0,0],"n":10,"num_colors":1}\n')
        assert run(["verify", "coloring", "--graph", str(g), "--coloring", str(c)]) == 1

    def test_malformed_coloring_exit_3(self, tmp_path, capsys):
        g = tmp_path / "g.graph"
        c = tmp_path / "c.json"
        g.write_text("#graph v1 n=2\n0 1\n")
        for text in ("[1,2]", '{"colors":5}', '{"colors":["a","b"],"n":2,"num_colors":2}',
                     '{"colors":[1.5,0],"n":2,"num_colors":2}'):
            c.write_text(text + "\n")
            assert run(["verify", "coloring", "--graph", str(g), "--coloring", str(c)]) == 3
            assert "error" in capsys.readouterr().err

    def test_negative_n_header_exit_3(self, tmp_path):
        g = tmp_path / "g.graph"
        c = tmp_path / "c.json"
        g.write_text("#graph v1 n=-2\n")
        c.write_text('{"colors":[],"n":0,"num_colors":0}\n')
        assert run(["verify", "coloring", "--graph", str(g), "--coloring", str(c)]) == 3
        s = tmp_path / "s.stream"
        s.write_text("#stream v1 n=-2 model=ins\n")
        assert run(["run", "random-order", "--stream", str(s), "--q", "2", "--t", "2"]) == 3

    def test_too_large_n_header_exit_3(self, tmp_path):
        g = tmp_path / "g.graph"
        c = tmp_path / "c.json"
        g.write_text(f"#graph v1 n={MAX_VERTICES + 1}\n0 1\n")
        c.write_text('{"colors":[0,1],"n":2,"num_colors":2}\n')
        assert run(["verify", "coloring", "--graph", str(g), "--coloring", str(c)]) == 3
        s = tmp_path / "s.stream"
        s.write_text(f"#stream v1 n={MAX_VERTICES + 1} model=ins\n0 1 +1\n")
        assert run(["run", "random-order", "--stream", str(s), "--q", "2", "--t", "2"]) == 3

    def test_overdrawn_dynamic_stream_exit_3(self, tmp_path, capsys):
        s = tmp_path / "s.stream"
        s.write_text("#stream v1 n=4 model=dyn\n2 3 +1\n\n3 1 -1\n")
        assert run(["run", "dynamic", "--stream", str(s), "--q", "2", "--t", "2"]) == 3
        assert "line 4: pair deleted more than inserted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1 +1\n\n1 0 +1\n", "line 4: pair inserted twice: '1 0 +1'"),
            ("0 1 +1\n1 2 -1\n", "line 3: ins stream carries delta -1; allowed: (1,): '1 2 -1'"),
        ],
    )
    def test_refused_insertion_stream_exit_3(self, tmp_path, capsys, body, message):
        s = tmp_path / "s.stream"
        s.write_text(f"#stream v1 n=3 model=ins\n{body}")
        assert run(["run", "random-order", "--stream", str(s), "--q", "2", "--t", "2"]) == 3
        assert message in capsys.readouterr().err


class TestStreamAndRun:
    def test_shuffle_run_roundtrip(self, tmp_path):
        g = tmp_path / "g.graph"
        s = tmp_path / "s.stream"
        out = tmp_path / "verdict.json"
        run(["gen", "graph", "--spec", "planted:n=60,clique=12", "--seed", "2",
             "-o", str(g)])
        assert run(["stream", "shuffle", "--graph", str(g), "--seed", "4",
                    "-o", str(s)]) == 0
        assert run(["run", "random-order", "--stream", str(s), "--q", "2",
                    "--t", "2", "-o", str(out)]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["label"] == "large"

    def test_dynamic_stream_and_run(self, tmp_path):
        g = tmp_path / "g.graph"
        s = tmp_path / "s.stream"
        out = tmp_path / "verdict.json"
        run(["gen", "graph", "--spec", "bipartite:n=64,m=300", "--seed", "3",
             "-o", str(g)])
        assert run(["stream", "dynamic", "--graph", str(g), "--extra-pairs", "20",
                    "--cycles", "2", "--seed", "5", "-o", str(s)]) == 0
        assert run(["run", "dynamic", "--stream", str(s), "--q", "2", "--t", "24",
                    "--seed", "6", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["label"] == "small"

    def test_multipass(self, tmp_path):
        g = tmp_path / "g.graph"
        s = tmp_path / "s.stream"
        run(["gen", "graph", "--spec", "bipartite:n=40,m=100", "--seed", "1",
             "-o", str(g)])
        run(["stream", "shuffle", "--graph", str(g), "--seed", "1", "-o", str(s)])
        assert run(["run", "multipass", "--stream", str(s), "--q", "2", "--t", "2",
                    "--seed", "1"]) == 0

    def test_multipass_pass_limit_exit_3(self, tmp_path, monkeypatch, capsys):
        g = tmp_path / "g.graph"
        s = tmp_path / "s.stream"
        run(["gen", "graph", "--spec", "planted:n=40,clique=3", "--seed", "3",
             "-o", str(g)])
        run(["stream", "shuffle", "--graph", str(g), "--seed", "3", "-o", str(s)])
        # a source that allows one pass where the runner asks for two
        monkeypatch.setattr(streamcolor.algorithms, "StreamSource",
                            lambda stream, max_passes: StreamSource(stream, max_passes=1))
        assert run(["run", "multipass", "--stream", str(s), "--q", "2", "--t", "2",
                    "--seed", "3", "--budget-multiplier", "0.0001"]) == 3
        assert "passes" in capsys.readouterr().err


class TestExperiments:
    def test_shrinkage_json_and_csv(self, tmp_path):
        j = tmp_path / "r.json"
        c = tmp_path / "r.csv"
        base = ["experiment", "shrinkage", "--graph-spec", "gnm:n=50,m=200",
                "--t", "2", "--trials", "3", "--seed", "1"]
        assert run(base + ["-o", str(j)]) == 0
        assert run(base + ["--format", "csv", "-o", str(c)]) == 0
        payload = json.loads(j.read_text())
        assert payload["trials"] == 3
        assert c.read_text().count("\n") == 4  # header + 3 rows

    def test_experiment_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["experiment", "vertex-sampling", "--graph-spec",
                "planted:n=50,clique=10", "--p", "0.5", "--trials", "5",
                "--seed", "2"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_distinguisher(self, tmp_path):
        out = tmp_path / "d.json"
        assert run([
            "experiment", "distinguisher", "--algorithm", "random-order",
            "--small", "bipartite:n=40,m=100", "--large", "planted:n=40,clique=10",
            "--q", "2", "--t", "2", "--trials", "3", "--seed", "3", "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["small_success_rate"] == 1.0

    @pytest.mark.parametrize("algorithm", ["random-order", "multipass"])
    def test_distinguisher_refuses_churn_flags_off_dynamic(self, tmp_path, capsys, algorithm):
        out = tmp_path / "d.json"
        assert run([
            "experiment", "distinguisher", "--algorithm", algorithm,
            "--small", "bipartite:n=40,m=100", "--large", "planted:n=40,clique=10",
            "--q", "2", "--t", "2", "--trials", "1", "--extra-pairs", "5", "-o", str(out),
        ]) == 2
        assert "churn" in capsys.readouterr().err
        assert not out.exists()


class TestRefusedArguments:
    """Values no command can use exit 2 with one ``error:`` line and write nothing."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {key: str(tmp_path / key) for key in ("graph", "stream", "dynamic", "out")}
        run(["gen", "graph", "--spec", "bipartite:n=30,m=60", "--seed", "1",
             "-o", paths["graph"]])
        run(["stream", "shuffle", "--graph", paths["graph"], "--seed", "1", "-o", paths["stream"]])
        run(["stream", "dynamic", "--graph", paths["graph"], "--seed", "1", "-o", paths["dynamic"]])
        return paths

    def refused(self, files, capsys, argv) -> str:
        assert run([arg.format(**files) for arg in argv] + ["-o", files["out"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists(files["out"])
        return err

    @pytest.mark.parametrize("argv", [
        ["gen", "family", "--d", "30", "--w", "6", "--theta", "2", "--count", "5"],
        ["gen", "two-player", "--n", "64", "--k", "2"],
        ["gen", "recursive", "--p", "3", "--k", "2"],
        ["gen", "simultaneous", "--k", "4", "--n-base", "6"],
        ["gen", "graph", "--spec", "gnm:n=5,m=3"],
        ["stream", "shuffle", "--graph", "{graph}"],
        ["stream", "dynamic", "--graph", "{graph}"],
        ["run", "multipass", "--stream", "{stream}", "--q", "2", "--t", "2"],
        ["run", "dynamic", "--stream", "{dynamic}", "--q", "2", "--t", "24"],
        ["experiment", "shrinkage", "--graph-spec", "gnm:n=30,m=60", "--t", "2",
         "--trials", "1"],
        ["experiment", "vertex-sampling", "--graph-spec", "planted:n=30,clique=5",
         "--p", "0.5", "--trials", "1"],
        ["experiment", "distinguisher", "--algorithm", "random-order", "--small",
         "bipartite:n=30,m=60", "--large", "planted:n=30,clique=5", "--q", "2", "--t", "2",
         "--trials", "1"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_negative_seed(self, files, capsys, argv):
        err = self.refused(files, capsys, argv + ["--seed", "-2"])
        assert err == "error: seed must be >= 0, got -2\n"

    @pytest.mark.parametrize("multiplier", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["run", "random-order", "--stream", "{stream}", "--q", "2", "--t", "2"],
        ["run", "multipass", "--stream", "{stream}", "--q", "2", "--t", "2"],
        ["experiment", "shrinkage", "--graph-spec", "gnm:n=30,m=60", "--t", "2",
         "--trials", "1"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_budget_multiplier_not_finite_and_positive(self, files, capsys, argv, multiplier):
        err = self.refused(files, capsys, argv + ["--budget-multiplier", multiplier])
        assert "budget multiplier must be finite and > 0" in err

    @pytest.mark.parametrize("argv", [
        ["experiment", "shrinkage", "--graph-spec", "gnm:n=30,m=60", "--t", "2"],
        ["experiment", "vertex-sampling", "--graph-spec", "planted:n=30,clique=5",
         "--p", "0.5"],
        ["experiment", "distinguisher", "--algorithm", "random-order", "--small",
         "bipartite:n=30,m=60", "--large", "planted:n=30,clique=5", "--q", "2", "--t", "2"],
    ], ids=lambda argv: argv[1])
    def test_negative_trials(self, files, capsys, argv):
        err = self.refused(files, capsys, argv + ["--trials", "-3", "--seed", "1"])
        assert err == "error: trial count must be >= 0, got -3\n"

    def test_shrinkage_t_below_two(self, files, capsys):
        err = self.refused(files, capsys, ["experiment", "shrinkage", "--graph-spec",
                                           "gnm:n=30,m=60", "--t", "0", "--trials", "1"])
        assert err == "error: iteration count t must be >= 2\n"
