"""streamcolor benchmark: closed-loop Monte Carlo trials, one at a time.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload insertion-q2 --seed 1 --seconds 25 --trace 0

One process and one thread run one trial at a time until ``--seconds`` of
wall time have passed. Each trial's graph build, stream build and runner
calls are timed; its outputs are checked after the timer stops (see
``workloads.py``). Between trials a fixed pure-Python reference loop is
timed, and trial times are also reported divided by its median, because the
speed of a shared machine drifts by tens of percent over seconds.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is a separate
run: it runs every trial twice, with and without spans around the public
functions of each module (``tracing.py``), alternating which goes first,
and prints per-layer metrics and the tracing overhead. Spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and the checks' details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WARMUP_TRIAL = 1 << 30  # a trial index the timed loop never reaches
SETUP_SAMPLES = 3  # this process plus two fresh ones
MIN_DETECT_RATE = 0.95
MAX_SHRINK_VIOLATIONS = 0.01
# setup_s is reported at this reference-loop speed (about this machine's
# typical speed), so that the shared machine's drift does not read as a
# change in set-up cost; the raw seconds are printed beside it.
REF_NOMINAL_MS = 3.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import plus one warm-up trial, print it and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def reference_loop() -> float:
    """Milliseconds for fixed pure-Python work: tuple keys into a set and a dict."""
    start = time.perf_counter()
    seen, degree = set(), {}
    x = 1
    for _ in range(4000):
        x = (x * 48271) % 2147483647
        u, v = x % 251, (x >> 8) % 241
        e = (u, v) if u < v else (v, u)
        seen.add(e)
        degree[u] = degree.get(u, 0) + 1
    elapsed = time.perf_counter() - start
    if not seen or not degree:
        raise RuntimeError("reference loop did no work")
    return elapsed * 1000


def load_program():
    """Import the benchmark's workloads, and through them streamcolor from ./src.

    Returns the module and the seconds the import took. numpy and networkx
    are imported first, so the time is streamcolor's own.
    """
    src = ROOT / "src"
    if not (src / "streamcolor" / "__init__.py").is_file():
        sys.exit(f"error: {src}/streamcolor not found; run from a streamcolor checkout")
    sys.path[:0] = [str(src), str(BENCH)]
    import networkx  # noqa: F401
    import numpy  # noqa: F401

    start = time.perf_counter()
    import workloads
    import streamcolor

    elapsed = time.perf_counter() - start
    if Path(streamcolor.__file__).resolve().parent != (src / "streamcolor").resolve():
        sys.exit(f"error: imported streamcolor from {streamcolor.__file__}, not {src}")
    return workloads, elapsed


def make_workload(workloads, name: str, workdir: str, size: str = "full"):
    """The named workload; `workdir` holds the CLI workload's files."""
    cls = workloads.WORKLOADS.get(name)
    if cls is None:
        sys.exit(f"error: unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    if cls is workloads.CliRoundtrip:
        return cls(size, workdir=workdir)
    return cls(size)


def reference_ms(samples: int = 5) -> float:
    return statistics.median(reference_loop() for _ in range(samples))


def setup_probe(args, workdir: str) -> dict:
    """Import plus one warm-up trial: raw seconds, the reference loop's
    milliseconds around it, and what the warm-up's check found."""
    ref_before = reference_ms()
    workloads, import_s = load_program()
    wl = make_workload(workloads, args.workload, workdir)
    start = time.perf_counter()
    out = wl.trial(args.seed, WARMUP_TRIAL)
    raw_s = import_s + time.perf_counter() - start
    ref = (ref_before + reference_ms()) / 2
    return {"raw_s": raw_s, "ref_ms": ref, "problems": wl.check(out).problems}


def scaled_setup_s(probe: dict) -> float:
    """Set-up seconds on a machine where the reference loop takes REF_NOMINAL_MS."""
    return probe["raw_s"] * REF_NOMINAL_MS / probe["ref_ms"]


def fresh_setup_probes(args, count: int) -> list[dict]:
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-300:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_commit() -> str:
    """HEAD of a git checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


class Tally:
    """Trials attempted and failed, and what their checks found."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.peak_stored = 0
        self.large_sides = self.large_detected = 0
        self.shrink_rounds = self.shrink_violations = 0
        self.problems: list[str] = []

    def record_warmup(self, problems: list[str]) -> None:
        """A warm-up trial whose check failed counts as a failed attempt."""
        if problems:
            self.attempted += 1
            self.failed += 1
            self.problems.extend(f"warm-up: {p}" for p in problems)

    def add(self, wl, run_trial, seed: int, i: int) -> float | None:
        """Run, time and check one trial; returns its seconds, or None if it raised."""
        self.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            out = run_trial(seed, i)
            elapsed = time.perf_counter() - start
            outcome = wl.check(out)
        except Exception as exc:  # a failed trial is counted, not fatal
            self.failed += 1
            self.problems.append(f"trial {i}: {type(exc).__name__}: {exc}")
            return None
        if outcome.problems:
            self.failed += 1
            self.problems.extend(f"trial {i}: {p}" for p in outcome.problems)
        self.peak_stored = max(self.peak_stored, outcome.peak_stored)
        self.large_sides += outcome.large_sides
        self.large_detected += outcome.large_detected
        self.shrink_rounds += outcome.shrink_rounds
        self.shrink_violations += outcome.shrink_violations
        return elapsed

    def details(self) -> dict:
        d = {"failed_fraction": self.failed / self.attempted if self.attempted else 1.0}
        if self.large_sides:
            d["detect_rate"] = self.large_detected / self.large_sides
        if self.shrink_rounds:
            d["shrink_violation_fraction"] = self.shrink_violations / self.shrink_rounds
        d["problems"] = self.problems[:20]
        return d

    def correct(self) -> bool:
        d = self.details()
        return (
            self.attempted > 0
            and self.failed == 0
            and d.get("detect_rate", 1.0) >= MIN_DETECT_RATE
            and d.get("shrink_violation_fraction", 0.0) <= MAX_SHRINK_VIOLATIONS
        )


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(wl, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of the closed loop, and raw timings for the record.

    Each trial's time is divided by the mean of the reference loops run just
    before and just after it, which cancels the machine's drift within a run.
    """
    ref_ms = reference_loop()
    trial_ms, ratios, refs = [], [], [ref_ms]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        elapsed = tally.add(wl, wl.trial, seed, i)
        ref_after = reference_loop()
        if elapsed is not None:
            trial_ms.append(elapsed * 1000)
            ratios.append(trial_ms[-1] / ((ref_ms + ref_after) / 2))
        ref_ms = ref_after
        refs.append(ref_ms)
        i += 1
        if time.perf_counter() >= deadline:
            break
    if not trial_ms:
        return {}, {}
    metrics = {
        "trial_ref_p50": (statistics.median(ratios), "ratio"),
        "trial_ref_p90": (percentile(ratios, 90), "ratio"),
        "peak_stored": (tally.peak_stored, "count"),
    }
    raw = {
        "trials_per_s": (len(trial_ms) / (sum(trial_ms) / 1000), "1/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_p90": (percentile(trial_ms, 90), "ms"),
        "ref_ms_p50": (statistics.median(refs), "ms"),
    }
    return metrics, raw


def traced_run(wl, seed: int, seconds: float, tally: Tally, spans_path: Path | None) -> dict:
    import tracing

    tracer = tracing.Tracer()

    def traced_trial(seed, i):
        tracer.trial = i
        tracer.install()
        try:
            with tracer.span("bench.trial"):
                return wl.trial(seed, i)
        finally:
            tracer.uninstall()

    ref_ms = [reference_loop()]
    plain_s = traced_s = 0.0
    trials = 0
    deadline = time.perf_counter() + seconds
    while True:
        plain, traced = (
            tally.add(wl, fn, seed, trials)
            for fn in ((wl.trial, traced_trial) if trials % 2 == 0 else (traced_trial, wl.trial))
        )
        if trials % 2:
            plain, traced = traced, plain
        if plain is not None and traced is not None:
            plain_s += plain
            traced_s += traced
        ref_ms.append(reference_loop())
        trials += 1
        if time.perf_counter() >= deadline:
            break
    if spans_path is not None:
        tracer.write(str(spans_path))
    metrics = tracing.layer_metrics(tracer, trials, "bench.trial")
    metrics["bench.ref_ms"] = (statistics.median(ref_ms), "ms")
    metrics["bench.trace_overhead"] = (traced_s / plain_s - 1 if plain_s else 0.0, "fraction")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        probe = setup_probe(args, workdir)
        if args.setup_probe:
            print(json.dumps(probe))
            return 0
        import workloads

        wl = make_workload(workloads, args.workload, workdir)
        # Objects alive after set-up are never garbage: keep the per-trial
        # collection from rescanning them.
        gc.freeze()
        tally = Tally()
        tally.record_warmup(probe["problems"])
        probes = [probe]
        raw = {}
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics = traced_run(wl, args.seed, args.seconds, tally, spans)
        else:
            probes += fresh_setup_probes(args, SETUP_SAMPLES - 1)
            metrics, raw = timed_run(wl, args.seed, args.seconds, tally)
            metrics["setup_s"] = (statistics.median(map(scaled_setup_s, probes)), "s")
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
            raw["setup_raw_s"] = (statistics.median(p["raw_s"] for p in probes), "s")
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "trials": tally.attempted,
        "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        **tally.details(),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": tally.correct() and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
