"""Benchmark of the wellfounded library: one workload per process.

    python3 bench/run.py --workload recurse --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25     # every workload

A run imports the library from ``src/`` of the checkout it sits in, builds
the workload's seeded operation list (set-up, repeated and reported as its
median), runs one untimed warm-up round, then times whole rounds of the
same list until ``--seconds`` have passed.  A round is never cut short, so
every run does whole rounds of identical work.  Every result is checked
against ``oracles``; a wrong result makes the run exit 1.  Times are
scaled to a reference host speed (see ``REFERENCE_S``); with
``--trace 0`` the unscaled figures are printed on the line before the
result.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced; the last line carries the per-module
metrics and the tracing overhead, and the spans are written to
``bench/out/``.  ``--all`` runs each workload in its own process, both
ways, and writes every result to one JSON report.
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
import time
from dataclasses import dataclass
from random import Random

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path[:0] = [BENCH, SOURCE]

from tracer import STEP_CALLS, NullTracer, Tracer  # noqa: E402
from workloads import BUILDERS, MODULES  # noqa: E402

SETUP_REPEATS = 11

# Times are reported at a reference host speed: each round's times are
# multiplied by REFERENCE_S over the median of the calibration kernel's
# timings during that round, and each set-up's by the same ratio for the
# timings after it.  On a shared host the speed of the same code shifts by
# up to half for minutes at a time; the kernel shifts with it, so the ratio
# holds steady where raw times do not.  Any one timing of the kernel is as
# noisy as the host, so it is timed often, between operations, and only
# the median counts.  It runs with the garbage collector off, so the
# library's heap does not change its time.
REFERENCE_S = 0.0006  # about the kernel's median time on the reference host
CALIBRATION_PERIOD_S = 0.02  # the kernel is timed between operations this often
SETUP_TIMINGS = 5  # kernel timings after each set-up repetition

# the metrics' names and units, as BENCHMARK.json declares them
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class WrongResult(Exception):
    pass


def import_library(modules):
    """Import the library afresh from ``src/``; the first import of a
    checkout also compiles it."""
    for name in [m for m in sys.modules if m == "wellfounded" or m.startswith("wellfounded.")]:
        del sys.modules[name]
    for module in modules:
        __import__(module)
    package = sys.modules["wellfounded"]
    if not os.path.abspath(package.__file__).startswith(SOURCE + os.sep):
        raise ImportError(f"wellfounded was imported from {package.__file__}, not {SOURCE}")
    return package


@dataclass(frozen=True)
class _Link:
    rest: object = None


def _kernel():
    # small allocations, calls and a sort: the mix the library spends its time on
    link = _Link()
    for _ in range(500):
        link = _Link(rest=link)

    def fib(n):
        return n if n < 2 else fib(n - 1) + fib(n - 2)

    fib(12)
    return link, sorted(((i * 7919) % 1009, i) for i in range(300))


class Calibration:
    """Timings of the calibration kernel in one phase of a run."""

    def __init__(self):
        self.times: list = []
        self.due = 0.0
        self.first = 0  # index of the current round's first timing

    def time_kernel(self):
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            self.times.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def between_ops(self):
        """Time the kernel if ``CALIBRATION_PERIOD_S`` has passed since the
        last timing."""
        if time.perf_counter() >= self.due:
            self.time_kernel()
            self.due = time.perf_counter() + CALIBRATION_PERIOD_S

    def start_round(self):
        self.first = len(self.times)
        self.time_kernel()
        self.due = time.perf_counter() + CALIBRATION_PERIOD_S

    def round_scale(self) -> float:
        """Factor from wall time to the reference host speed for the timings
        since ``start_round``."""
        return REFERENCE_S / statistics.median(self.times[self.first :])

    def describe(self) -> str:
        return (
            f"calibration kernel: median {statistics.median(self.times) * 1000:.3f} ms "
            f"(min {min(self.times) * 1000:.3f}, max {max(self.times) * 1000:.3f}) "
            f"over {len(self.times)} timings; times are scaled to {REFERENCE_S * 1000:.2f} ms"
        )


def set_up(workload, seed):
    """Import and build ``SETUP_REPEATS`` times; return the last build and
    the median set-up time, unscaled and scaled to the reference host speed."""
    raw, scaled, calibration = [], [], Calibration()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_library(MODULES[workload])
        ops = BUILDERS[workload](Random(f"{workload}:{seed}"), NullTracer(), package)
        raw.append(time.perf_counter() - start)
        calibration.start_round()
        for _ in range(SETUP_TIMINGS - 1):
            calibration.time_kernel()
        scaled.append(raw[-1] * calibration.round_scale())
    return package, ops, statistics.median(raw), statistics.median(scaled)


def run_round(ops, failures, calibration, tracer=None):
    """Run every operation once; return per-operation seconds, None for
    one that raised.  An operation that raises counts as failed; one that
    returns a wrong result stops the run."""
    latencies = []
    for index, op in enumerate(ops):
        calibration.between_ops()
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.call("bench.op", op.run)
        except Exception as error:  # counted, reported once per kind
            result = error
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        if isinstance(result, Exception):
            if op.kind not in failures:
                print(f"{op.kind} failed: {type(result).__name__}: {result}", file=sys.stderr)
            failures[op.kind] = failures.get(op.kind, 0) + 1
            latencies.append(None)
            continue
        latencies.append(elapsed)
        problem = op.check(result)
        if problem is not None:
            raise WrongResult(f"{op.kind} (operation {index}): {problem}")
    return latencies


def run_for(ops, seconds, failures, tracer=None):
    """Whole rounds until ``seconds`` have passed, at least one.  Returns
    each round's operation times with the factor that scales them to the
    reference host speed, and the kernel's timings."""
    rounds, calibration = [], Calibration()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        calibration.start_round()
        latencies = run_round(ops, failures, calibration, tracer)
        rounds.append((latencies, calibration.round_scale()))
        if tracer is not None:
            tracer.logging = False  # one round of spans is written out
    return rounds, calibration


def typical(rounds, scaled=True):
    """Each operation's median time over the rounds, scaled to the reference
    host speed or not; an operation that failed in every round is left out."""
    scales = [scale if scaled else 1.0 for _latencies, scale in rounds]
    per_op = []
    for column in zip(*(latencies for latencies, _scale in rounds)):
        times = [t * scale for t, scale in zip(column, scales) if t is not None]
        if times:
            per_op.append(statistics.median(times))
    return per_op


def latency_figures(per_op):
    per_op = sorted(per_op)
    tail_rank = len(per_op) - 11  # ten operations lie above this one
    return {
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1000.0,
        "op_tail_ms": per_op[tail_rank] * 1000.0,
    }


def end_to_end(rounds, calibration, setup_raw, setup_scaled):
    count = len(rounds[0][0])
    print(
        f"{count} operations x {len(rounds)} rounds; op_tail_ms is the "
        f"p{100.0 * (count - 10) / count:.1f} latency, 10 of {count} operations beyond it"
    )
    print(calibration.describe())
    unscaled = latency_figures(typical(rounds, scaled=False))
    print("unscaled:", json.dumps({**unscaled, "setup_s": setup_raw}))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        **latency_figures(typical(rounds)),
        "setup_s": setup_scaled,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer, traced, plain, operations):
    """Per-module metrics from the traced phase ``traced`` and the untraced
    phase ``plain``, each as ``run_for`` returns it.  Self times are scaled
    by the median of the traced rounds' factors."""
    counts = tracer.counts
    steps = counts.get(STEP_CALLS, 0)
    walk_steps = counts.get("core.fuzz_descent.preds.calls", 0)
    scale = statistics.median(factor for _latencies, factor in traced[0])
    traced_s = sum(typical(traced[0]))
    plain_s = sum(typical(plain[0]))
    derived = {
        "core.wfrec.distinct_ratio": tracer.distinct_total / steps if steps else 0.0,
        "core.fuzz_descent.preds_per_step": (
            counts.get("core.fuzz_descent.preds", 0) / walk_steps if walk_steps else 0.0
        ),
        "trace.overhead_pct": (traced_s / plain_s - 1.0) * 100.0,
    }
    metrics = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith("_ms"):  # span name: core.wfrec.self_ms reads span core.wfrec
            metrics[name] = tracer.median_ms(name[: -len("_ms")].removesuffix(".self")) * scale
        else:  # a count per operation
            metrics[name] = counts.get(name, 0) / operations
    return metrics


def run_workload(args):
    """Return operations attempted, operations failed and the metrics."""
    package, ops, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    warm_up = Calibration()
    warm_up.start_round()
    run_round(ops, {}, warm_up)  # untimed
    failures: dict = {}
    if not args.trace:
        rounds, calibration = run_for(ops, args.seconds, failures)
        metrics = end_to_end(rounds, calibration, setup_raw, setup_scaled)
        return len(ops) * len(rounds), sum(failures.values()), metrics
    plain = run_for(ops, args.seconds / 2, failures)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = BUILDERS[args.workload](Random(f"{args.workload}:{args.seed}"), tracer, package)
        traced = run_for(traced_ops, args.seconds / 2, failures, tracer)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    rounds = len(traced[0])
    tracer.dump(
        os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "rounds": rounds},
    )
    attempted = len(ops) * (len(plain[0]) + rounds)
    metrics = per_layer(tracer, traced, plain, len(ops) * rounds)
    return attempted, sum(failures.values()), metrics


def run_all(args):
    """Each workload in a fresh process, untraced and traced."""
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in BUILDERS:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            report["workloads"].setdefault(workload, {})["traced" if trace else "untraced"] = result
            print(workload, "traced" if trace else "untraced", json.dumps(result["metrics"]))
    path = args.out or os.path.join(OUT, "report.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as out:
        json.dump(report, out, indent=1)
    print("wrote", path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS))
    parser.add_argument("--all", action="store_true", help="run every workload, write a report")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="report path for --all (default bench/out/report.json)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "wellfounded", "__init__.py")):
        print(f"error: no library source at {SOURCE}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    try:
        attempted, failed, metrics = run_workload(args)
    except WrongResult as error:
        print(f"error: wrong result in {args.workload}: {error}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
