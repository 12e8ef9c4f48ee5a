"""Benchmark of the qaffpbw library: four workloads, end-to-end and per layer.

Run one workload (the form the metrics come from):

    python3 bench/run.py --workload cuspidal-build --seed 1 --seconds 10 --trace 0

or all of them, each in a fresh interpreter, with a table per workload:

    python3 bench/run.py --seed 1

Each workload runs in one process and one thread as a closed loop: the next
library call starts when the previous one returns.  An operation is one
timed public library call; ``workloads.py`` lists each workload's operations
and says why the workload was chosen.  The seed fixes a set of operations,
and a run repeats that set in whole passes until ``--seconds`` have passed
(at least MIN_PASSES).  Each pass runs on a fresh import of the library, so
every pass starts with the library's caches empty and no operation is timed
on results an earlier pass left behind.  An operation's time is its median
over the passes.  Every output is checked, in every pass, outside the timed
region; a failed check counts as a failed operation and the run never
aborts.

Times are scaled to a fixed machine speed.  On a shared machine the speed
of the processor flickers from one millisecond to the next between its best
and about 1.8 times slower, and the usual level shifts by a third for tens
of seconds at a time, as other tenants come and go.  Between operations,
at least every GAUGE_INTERVAL_S and outside the timed region, the runner
times a fixed pure-Python loop (``reference_loop``), which the library
cannot affect; each operation time of a pass is multiplied by REFERENCE_S
over the median loop time of that pass.  A time therefore reads as on a
machine where the loop takes REFERENCE_S, which is about the usual speed of
a 2-vCPU x86 VM under Python 3.11.  On such a VM, over ten 25-second runs
of label-compare, the distance between the quartiles of throughput_ops_s
was 19% of its median unscaled and 3% scaled.  The record line carries the
unscaled figures too.

``--trace 0`` reports the end-to-end metrics:

    setup_s           median of SETUP_REPEATS set-ups (input generation
                      from the seed with its expected outputs, on a fresh
                      import, then the first pass's inputs on another),
                      each scaled by the loop times beside it
    throughput_ops_s  operations per second of timed work
    latency_p90_ms    90th-percentile operation time
    peak_rss_mb       peak resident memory of the process

and prints, ungated, ``latency_p50_ms`` (median operation time), ``error_rate``
(failed over attempted operations, known defects included), ``decided_ratio``
(label-compare: share of EQUAL or DISTINCT verdicts) and the median
operation time per size class.  The median is not in the result: on a
shared machine the small operations it lands on slow down by up to 1.7x
from one process to the next, far beyond any useful bound.

``--trace 1`` runs one pass untraced, then the same pass on a fresh import
with spans and counters installed (``tracing.py``), and reports the
per-layer metrics and the tracing overhead as the difference in
throughput_ops_s.  The work is fixed, so counts repeat exactly for a seed.

``--profile`` prints the cProfile top 15 of one pass to stderr and reports
no metrics.

The last line of stdout is the result JSON: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a record of the run with
the git sha, Python version, nproc, seed and number of operations.
Operations marked as known defects (two CLI payloads that escape the exit
code contract when the data was recorded) count in ``error_rate`` and in the
record's ``known_defect_failures``, not in ``failed``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = "qaffpbw"
SETUP_REPEATS = 9
MIN_PASSES = 2
REFERENCE_ITERATIONS = 10000
REFERENCE_S = 0.0025
GAUGE_INTERVAL_S = 0.1

sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as workload_defs  # noqa: E402
from workloads import FAILED  # noqa: E402


def import_library() -> SimpleNamespace:
    """A fresh import of the library from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(
        **{layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in tracing.LAYERS}
    )


def reference_loop() -> float:
    """The time of one fixed pure-Python loop, with the cyclic collector off.

    The collector's cost grows with the heap the library leaves, so the
    loop runs without it and measures the machine alone.
    """
    gc.disable()
    try:
        start = perf_counter()
        counts: dict[int, int] = {}
        for i in range(REFERENCE_ITERATIONS):
            key = i % 97 * 13 + i % 13
            counts[key] = counts.get(key, 0) + 1
        return perf_counter() - start
    finally:
        gc.enable()


class Gauge:
    """The machine's speed beside the timed work, from ``reference_loop``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Time the loop if GAUGE_INTERVAL_S have passed since the last time."""
        if force or perf_counter() - self.last >= GAUGE_INTERVAL_S:
            self.samples.append(reference_loop())
            self.last = perf_counter()

    def scale(self) -> float:
        """REFERENCE_S over the median loop time since the previous scale."""
        factor = REFERENCE_S / statistics.median(self.samples)
        self.samples = []
        return factor


class Stats:
    """Per-operation timings of a run; an operation's time is its median pass.

    ``runs`` holds the scaled times of each operation, ``raw`` the measured
    ones and ``scales`` the factor of each pass.
    """

    def __init__(self) -> None:
        self.runs: dict = {}
        self.raw: dict = {}
        self.scales: list[float] = []
        self.size: dict = {}
        self.attempted = 0
        self.failed = 0
        self.known_defect_failures = 0
        self.failures: list[str] = []

    def add_pass(self, elapsed: dict, scale: float) -> None:
        self.scales.append(scale)
        for key, t in elapsed.items():
            self.runs.setdefault(key, []).append(t * scale)
            self.raw.setdefault(key, []).append(t)

    def median(self, raw: bool = False) -> dict:
        runs = self.raw if raw else self.runs
        return {key: statistics.median(v) for key, v in runs.items()}

    def times(self, raw: bool = False) -> list[float]:
        return list(self.median(raw).values())

    def throughput(self, raw: bool = False) -> float:
        return len(self.runs) / sum(self.times(raw))

    def size_medians_ms(self) -> dict[str, float]:
        by_size: dict[str, list[float]] = {}
        for key, t in self.median().items():
            by_size.setdefault(self.size[key], []).append(t)
        return {size: 1e3 * statistics.median(v) for size, v in sorted(by_size.items())}


def run_pass(workload, state, p: int, stats: Stats, tracer=None) -> None:
    """One pass: time each operation, check it, feed the result back.

    The loop of ``Gauge`` runs at the start, between operations and at the
    end, outside the timed region, and scales the pass's times.
    """
    gauge = Gauge()
    gauge.tick(force=True)
    elapsed: dict = {}
    gen = workload.operations(state, p)
    result = None
    while True:
        try:
            op = gen.send(result)
        except StopIteration:
            break
        if tracer is not None:
            tracer.on = True
        start = perf_counter()
        try:
            value = op.call()
            raised = None
        except Exception as exc:  # an uncaught library error is a failed operation
            value, raised = FAILED, exc
        elapsed[op.key] = perf_counter() - start
        if tracer is not None:
            tracer.on = False
        gauge.tick()
        stats.attempted += 1
        stats.size[op.key] = op.size
        ok = raised is None
        if ok:
            try:
                ok = bool(op.check(value))
            except Exception as exc:
                ok, raised = False, exc
        if not ok:
            if op.known_defect:
                stats.known_defect_failures += 1
            else:
                stats.failed += 1
                if len(stats.failures) < 5:
                    stats.failures.append(f"{op.size} {op.key}: {raised!r}")
            value = FAILED
        result = value
    gauge.tick(force=True)
    stats.add_pass(elapsed, gauge.scale())


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fresh_state(workload, ref):
    """The inputs of one pass, on a fresh import of the library.

    The previous pass's library and inputs are collected first, so that
    they add nothing to the peak memory of this one.
    """
    gc.collect()
    return workload.prepare(import_library(), ref)


def setup(workload, seed: int):
    """Set up SETUP_REPEATS times, each from fresh imports; keep the last.

    Each set-up is scaled by the loop of ``Gauge``, timed three times
    before it and three times after.
    """
    times = []
    gauge = Gauge()
    for _ in range(SETUP_REPEATS):
        ref = None
        gc.collect()
        for _ in range(3):
            gauge.tick(force=True)
        start = perf_counter()
        ref = workload.reference(import_library(), seed)
        workload.prepare(import_library(), ref)
        elapsed = perf_counter() - start
        for _ in range(3):
            gauge.tick(force=True)
        times.append(elapsed * gauge.scale())
    return ref, statistics.median(times)


def measure(workload, ref, seconds: float) -> tuple[Stats, int]:
    """Whole passes until ``seconds`` have passed; at least MIN_PASSES."""
    stats = Stats()
    deadline = perf_counter() + seconds
    p = 0
    while p < MIN_PASSES or perf_counter() < deadline:
        run_pass(workload, fresh_state(workload, ref), p, stats)
        p += 1
    return stats, p


def percentile_ms(values: list[float], pct: int) -> float:
    return 1e3 * statistics.quantiles(values, n=100)[pct - 1]


def run_workload(args) -> int:
    workload = workload_defs.WORKLOADS[args.workload]
    ref, setup_s = setup(workload, args.seed)

    if args.profile:
        state = fresh_state(workload, ref)
        profiler = cProfile.Profile()
        profiler.enable()
        run_pass(workload, state, 0, Stats())
        profiler.disable()
        print(f"== {workload.name}: cProfile top 15 of one pass", file=sys.stderr)
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("tottime").print_stats(15)
        return 0

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "trace": args.trace,
    }
    if args.trace:
        stats, metrics = traced(workload, ref)
    else:
        stats, passes = measure(workload, ref, args.seconds)
        times = stats.times()
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (stats.throughput(), "ops/s"),
            "latency_p90_ms": (percentile_ms(times, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        failures = stats.failed + stats.known_defect_failures
        record["latency_p50_ms"] = percentile_ms(times, 50)
        record["error_rate"] = failures / stats.attempted
        if "tally" in ref:
            record["decided_ratio"] = ref["tally"]["decided"] / ref["tally"]["verdicts"]
        record["passes"] = passes
        record["median_ms_by_size"] = stats.size_medians_ms()
        record["unscaled"] = {
            "throughput_ops_s": stats.throughput(raw=True),
            "latency_p90_ms": percentile_ms(stats.times(raw=True), 90),
            "latency_p50_ms": percentile_ms(stats.times(raw=True), 50),
        }
        record["scale_median"] = statistics.median(stats.scales)
    record.update(
        operations=len(stats.runs),
        attempted=stats.attempted,
        failed=stats.failed,
        known_defect_failures=stats.known_defect_failures,
        failure_examples=stats.failures,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    ungated = {"latency_p50_ms": "ms", "error_rate": "ratio", "decided_ratio": "ratio"}
    table = {name: (record[name], unit) for name, unit in ungated.items() if name in record}
    for name, (value, unit) in sorted({**metrics, **table}.items()):
        print(f"{workload.name:15} {name:40} {value:14.6g} {unit}")
    print(json.dumps({"record": record}, sort_keys=True))
    # a layer that a workload never enters has a self time of exactly 0 on
    # every run; the result carries its share instead, the record both
    reported = {name: v for name, v in metrics.items() if not name.endswith(".self_s")}
    print(
        json.dumps(
            {
                "correct": stats.failed == 0,
                "attempted": stats.attempted,
                "failed": stats.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
            }
        )
    )
    return 0


def traced(workload, ref):
    """An untraced pass, then the same pass with spans and counters."""
    plain = Stats()
    run_pass(workload, fresh_state(workload, ref), 0, plain)
    state = fresh_state(workload, ref)
    tracer = tracing.Tracer()
    tracer.install(PACKAGE, extra_modules=(workload_defs, sys.modules[__name__]))
    stats = Stats()
    run_pass(workload, state, 0, stats, tracer)
    metrics = tracer.metrics(sum(stats.times(raw=True)))
    metrics["trace.overhead_ops_s"] = (plain.throughput() - stats.throughput(), "ops/s")
    metrics["trace.untraced_ops_s"] = (plain.throughput(), "ops/s")
    stats.attempted += plain.attempted
    stats.failed += plain.failed
    stats.known_defect_failures += plain.known_defect_failures
    return stats, metrics


def run_all(args) -> int:
    """Every workload in its own interpreter; stop at the first error."""
    for name in workload_defs.WORKLOADS:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ] + (["--profile"] if args.profile else [])
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-2] if not args.profile else lines))
        if done.returncode:
            return done.returncode
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workload_defs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true", help="cProfile top 15, no metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
