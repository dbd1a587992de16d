"""Command-line front end.

Subcommands: ``gen``, ``stream``, ``run``, ``verify``, ``experiment``.
Exit codes: 0 success, 1 verification failure, 2 argument error,
3 I/O or parse error. Identical flags and seed always produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algorithms import Verdict, run_dynamic, run_multipass, run_random_order
from .errors import (
    ArgumentError,
    FormatError,
    GenerationError,
    PassLimitError,
    ResourceLimitError,
    StreamValidationError,
    UnsupportedInputError,
)
from .graph import canonical_json, is_proper_coloring, read_coloring, read_graph, read_json
from .graph import write_graph, write_text
from .harness import (
    GraphSpec,
    experiment_distinguisher,
    experiment_edge_shrinkage,
    experiment_vertex_sampling,
)
from .seeds import rng_for
from .streams import read_stream, to_dynamic_stream, to_insertion_stream, write_stream

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_ARGUMENT = 2
EXIT_IO = 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcolor",
        description="Streaming coloring algorithms, cluster packing graphs, "
        "hard instances, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate graphs, families, and instances")
    gen_sub = gen.add_subparsers(dest="target", required=True)

    g_basic = gen_sub.add_parser("basic", help="lines construction with r = k")
    g_basic.add_argument("--n", type=int, required=True)
    g_basic.add_argument("--k", type=int, required=True)
    _out(g_basic, required=True)

    g_grouped = gen_sub.add_parser("grouped", help="lines construction with free r")
    g_grouped.add_argument("--n", type=int, required=True)
    g_grouped.add_argument("--r", type=int, required=True)
    g_grouped.add_argument("--k", type=int, required=True)
    _out(g_grouped, required=True)

    g_dense = gen_sub.add_parser("dense", help="dense construction from a set family")
    g_dense.add_argument("--k", type=int, required=True)
    g_dense.add_argument("--d", type=int, required=True)
    g_dense.add_argument("--p", type=int, required=True)
    g_dense.add_argument("--family", type=str, help="set-family JSON produced by 'gen family'")
    g_dense.add_argument("--fano", type=int, metavar="COUNT", help="use COUNT Fano lines")
    _out(g_dense, required=True)

    g_lift = gen_sub.add_parser("lift", help="k-colorability lift of a CPG file")
    g_lift.add_argument("--input", "-i", dest="input", type=str, required=True)
    _out(g_lift, required=True)

    g_family = gen_sub.add_parser("family", help="low-intersection set family")
    g_family.add_argument("--d", type=int, required=True)
    g_family.add_argument("--w", type=int, required=True)
    g_family.add_argument("--theta", type=int, required=True)
    g_family.add_argument("--count", type=int, required=True)
    g_family.add_argument("--fano", action="store_true", help="deterministic Fano mode")
    g_family.add_argument("--seed", type=int, default=None)
    _out(g_family)

    g_two = gen_sub.add_parser("two-player", help="two-player hard instance")
    g_two.add_argument("--n", type=int, required=True)
    g_two.add_argument("--k", type=int, required=True)
    g_two.add_argument("--seed", type=int, default=None)
    g_two.add_argument("--ans", type=int, choices=(0, 1), default=None)
    _out(g_two)

    g_rec = gen_sub.add_parser("recursive", help="p-player recursive hard instance")
    g_rec.add_argument("--p", type=int, required=True)
    g_rec.add_argument("--k", type=int, required=True)
    g_rec.add_argument("--seed", type=int, default=None)
    g_rec.add_argument("--ans", type=int, choices=(0, 1), default=None)
    g_rec.add_argument("--n2", type=int, default=None, help="base-case vertex count")
    g_rec.add_argument(
        "--level-n", type=int, nargs="*", default=(),
        help="host vertex counts for levels 3..p",
    )
    g_rec.add_argument(
        "--level-t", type=int, nargs="*", default=(),
        help="materialized cluster counts for levels 3..p",
    )
    _out(g_rec)

    g_sim = gen_sub.add_parser("simultaneous", help="simultaneous-model hard instance")
    g_sim.add_argument("--k", type=int, required=True)
    g_sim.add_argument("--n-base", type=int, required=True)
    g_sim.add_argument("--seed", type=int, default=None)
    g_sim.add_argument("--theta", type=int, choices=(0, 1), default=None)
    _out(g_sim)

    g_graph = gen_sub.add_parser("graph", help="graph from a spec string")
    g_graph.add_argument("--spec", type=str, required=True, help="e.g. gnm:n=300,m=20000")
    g_graph.add_argument("--seed", type=int, default=None)
    _out(g_graph, required=True)

    st = sub.add_parser("stream", help="build streams from graph files")
    st_sub = st.add_subparsers(dest="target", required=True)
    s_shuffle = st_sub.add_parser("shuffle", help="seeded random-order insertion stream")
    s_shuffle.add_argument("--graph", type=str, required=True)
    s_shuffle.add_argument("--seed", type=int, default=None)
    _out(s_shuffle, required=True)
    s_dyn = st_sub.add_parser("dynamic", help="dynamic stream with churn")
    s_dyn.add_argument("--graph", type=str, required=True)
    s_dyn.add_argument("--extra-pairs", type=int, default=0)
    s_dyn.add_argument("--cycles", type=int, default=1)
    s_dyn.add_argument("--seed", type=int, default=None)
    _out(s_dyn, required=True)

    run = sub.add_parser("run", help="run a distinguishing algorithm on a stream file")
    run_sub = run.add_subparsers(dest="target", required=True)
    for name in ("random-order", "multipass", "dynamic"):
        r = run_sub.add_parser(name)
        r.add_argument("--stream", type=str, required=True)
        r.add_argument("--q", type=int, required=True)
        r.add_argument("--t", type=int, required=True)
        if name != "random-order":
            r.add_argument("--seed", type=int, default=None)
        if name != "dynamic":
            r.add_argument("--budget-multiplier", type=float, default=1.0)
        _out(r)

    ver = sub.add_parser("verify", help="verify serialized artifacts")
    ver_sub = ver.add_subparsers(dest="target", required=True)
    v_cpg = ver_sub.add_parser("cpg")
    v_cpg.add_argument("--file", type=str, required=True)
    v_inst = ver_sub.add_parser("instance")
    v_inst.add_argument("--file", type=str, required=True)
    v_col = ver_sub.add_parser("coloring")
    v_col.add_argument("--graph", type=str, required=True)
    v_col.add_argument("--coloring", type=str, required=True)

    exp = sub.add_parser("experiment", help="Monte Carlo experiments")
    exp_sub = exp.add_subparsers(dest="target", required=True)
    e_shr = exp_sub.add_parser("shrinkage")
    e_shr.add_argument("--graph-spec", type=str, required=True)
    e_shr.add_argument("--t", type=int, required=True)
    e_shr.add_argument("--trials", type=int, required=True)
    e_shr.add_argument("--seed", type=int, default=None)
    e_shr.add_argument("--budget-multiplier", type=float, default=1.0)
    _fmt(e_shr)
    e_vs = exp_sub.add_parser("vertex-sampling")
    e_vs.add_argument("--graph-spec", type=str, required=True)
    e_vs.add_argument("--p", type=float, required=True)
    e_vs.add_argument("--trials", type=int, required=True)
    e_vs.add_argument("--seed", type=int, default=None)
    _fmt(e_vs)
    e_dis = exp_sub.add_parser("distinguisher")
    e_dis.add_argument("--algorithm", choices=("random-order", "multipass", "dynamic"), required=True)
    e_dis.add_argument("--small", type=str, required=True, help="graph spec with chi <= q")
    e_dis.add_argument("--large", type=str, required=True, help="graph spec with large chi")
    e_dis.add_argument("--q", type=int, required=True)
    e_dis.add_argument("--t", type=int, required=True)
    e_dis.add_argument("--trials", type=int, required=True)
    e_dis.add_argument("--seed", type=int, default=None)
    e_dis.add_argument("--extra-pairs", type=int, default=0)
    e_dis.add_argument("--cycles", type=int, default=1)
    _fmt(e_dis)

    return parser


def _out(p: argparse.ArgumentParser, required: bool = False) -> None:
    """Add ``-o``; a command whose output only goes to a file sets `required`."""
    p.add_argument("-o", "--out", type=str, default=None, help="output path")
    p.set_defaults(out_required=required)


def _fmt(p: argparse.ArgumentParser) -> None:
    _out(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_text(text, path)


def _family_from_args(args) -> clusterpack.SetFamily:
    from . import clusterpack

    if args.fano is not None:
        return clusterpack.fano_family(args.fano)
    if not args.family:
        raise ArgumentError("dense construction needs --family FILE or --fano COUNT")
    payload = read_json(args.family)
    if not (
        isinstance(payload, dict)
        and all(type(payload.get(key)) is int for key in ("d", "w", "theta"))
        and isinstance(payload.get("sets"), list)
        and all(isinstance(s, list) and all(type(e) is int for e in s) for s in payload["sets"])
    ):
        raise FormatError("family must be a JSON object of integers d, w, theta and lists 'sets'")
    return clusterpack.SetFamily(
        d=payload["d"],
        w=payload["w"],
        theta=payload["theta"],
        sets=tuple(tuple(s) for s in payload["sets"]),
    )


def _verdict_json(verdict: Verdict) -> str:
    payload: dict = {"label": verdict.label, "metadata": verdict.metadata}
    if verdict.coloring is not None:
        payload["num_colors"] = verdict.coloring.num_colors
        payload["colors"] = verdict.coloring.colors.tolist()
    if verdict.evidence is not None:
        payload["evidence"] = {
            "kind": verdict.evidence.kind,
            "index": verdict.evidence.index,
            "subgraph_edges": verdict.evidence.subgraph.edge_array().tolist(),
        }
    return canonical_json(payload)


def _dispatch(args) -> int:
    if getattr(args, "out_required", False) and args.out is None:
        raise ArgumentError(f"{args.command} {args.target} needs -o <path>")
    if args.command == "gen":
        return _dispatch_gen(args)
    if args.command == "stream":
        g = read_graph(args.graph)
        if args.target == "shuffle":
            stream = to_insertion_stream(g, "shuffled", seed=args.seed)
        else:
            stream = to_dynamic_stream(
                g, extra_pairs=args.extra_pairs, cycles=args.cycles, seed=args.seed
            )
        write_stream(stream, args.out)
        return EXIT_OK
    if args.command == "run":
        stream = read_stream(args.stream)
        if args.target == "random-order":
            verdict = run_random_order(
                stream, args.q, args.t, budget_multiplier=args.budget_multiplier
            )
        elif args.target == "multipass":
            verdict = run_multipass(
                stream, args.q, args.t, seed=args.seed,
                budget_multiplier=args.budget_multiplier,
            )
        else:
            verdict = run_dynamic(stream, args.q, args.t, seed=args.seed)
        _emit(_verdict_json(verdict), args.out)
        return EXIT_OK
    if args.command == "verify":
        return _dispatch_verify(args)
    return _dispatch_experiment(args)


def _dispatch_gen(args) -> int:
    if args.target == "graph":
        write_graph(GraphSpec.parse(args.spec).build(rng_for(args.seed, 0)), args.out)
        return EXIT_OK
    from . import clusterpack, instances

    if args.target == "basic":
        clusterpack.write_cpg(clusterpack.construct_lines_basic(args.n, args.k), args.out)
    elif args.target == "grouped":
        clusterpack.write_cpg(clusterpack.construct_lines_grouped(args.n, args.r, args.k), args.out)
    elif args.target == "dense":
        family = _family_from_args(args)
        params = clusterpack.DenseParams(k=args.k, d=args.d, p=args.p, family=family)
        clusterpack.write_cpg(clusterpack.construct_dense(params), args.out)
    elif args.target == "lift":
        cpg = clusterpack.read_cpg(args.input)
        clusterpack.write_cpg(clusterpack.lift_to_k_colorable(cpg), args.out)
    elif args.target == "family":
        if args.fano:
            if (args.d, args.w) != (7, 3) or args.theta < 1:
                raise ArgumentError("fano mode requires d=7, w=3, theta >= 1")
            fam = clusterpack.fano_family(args.count)
        else:
            fam = clusterpack.gen_intersection_family(
                args.d, args.w, args.theta, args.count, seed=args.seed
            )
        payload = {
            "d": fam.d,
            "w": fam.w,
            "theta": fam.theta,
            "sets": [list(s) for s in fam.sets],
        }
        _emit(canonical_json(payload), args.out)
    elif args.target == "two-player":
        inst = instances.gen_two_player(args.n, args.k, seed=args.seed, ans_override=args.ans)
        _emit(instances.instance_to_json(inst), args.out)
    elif args.target == "recursive":
        plan = instances.default_level_plan(
            args.p, args.k, n2=args.n2, level_n=args.level_n, level_t=args.level_t
        )
        inst = instances.gen_recursive(
            args.p, args.k, plan=plan, seed=args.seed, ans_override=args.ans
        )
        _emit(instances.instance_to_json(inst), args.out)
    elif args.target == "simultaneous":
        inst = instances.gen_simultaneous(
            args.k, args.n_base, seed=args.seed, theta_override=args.theta
        )
        _emit(instances.instance_to_json(inst), args.out)
    return EXIT_OK


def _dispatch_verify(args) -> int:
    if args.target in ("cpg", "instance"):
        from . import clusterpack, instances

        if args.target == "cpg":
            report = clusterpack.verify_cluster_packing(clusterpack.read_cpg(args.file))
        else:
            report = instances.verify_instance(instances.read_instance(args.file))
        print(report)
        return EXIT_OK if report.ok else EXIT_VERIFY_FAIL
    g = read_graph(args.graph)
    c = read_coloring(args.coloring)
    if c.n != g.n:
        print(f"coloring has n={c.n}, graph has n={g.n}: FAIL")
        return EXIT_VERIFY_FAIL
    ok = is_proper_coloring(g, c)
    print(f"proper: {'pass' if ok else 'FAIL'} ({c.num_colors} colors)")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _dispatch_experiment(args) -> int:
    if args.target == "shrinkage":
        result = experiment_edge_shrinkage(
            GraphSpec.parse(args.graph_spec),
            args.t,
            args.trials,
            seed=args.seed,
            budget_multiplier=args.budget_multiplier,
        )
    elif args.target == "vertex-sampling":
        result = experiment_vertex_sampling(
            GraphSpec.parse(args.graph_spec), args.p, args.trials, seed=args.seed
        )
    else:
        result = experiment_distinguisher(
            args.algorithm,
            GraphSpec.parse(args.small),
            GraphSpec.parse(args.large),
            args.q,
            args.t,
            args.trials,
            seed=args.seed,
            extra_pairs=args.extra_pairs,
            cycles=args.cycles,
        )
    _emit(result.to_json() if args.format == "json" else result.to_csv(), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ArgumentError, GenerationError, ResourceLimitError, UnsupportedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except (FormatError, StreamValidationError, PassLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
