"""Benchmark driver for pamsort.

    python3 perfbench/run.py --workload enum-brute --seed 1 --seconds 20 \
        --trace 0

runs one workload (see ``workloads.py`` and ``BENCHMARK.json``) against
the pamsort sources in ``src/`` of the checkout, in this one process and
with one thread.  Every result is checked against its reference; a wrong
answer or an exception counts as failed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it (``report: {...}``) holds
sample counts and the input properties of the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` takes a
fixed set of jobs, the first ``trace_passes`` passes of the workload for
the seed, so that the per-layer totals do not depend on how fast the
program is; it replays that set untraced for a quarter of the time, then
once with every public library function wrapped (see ``tracer.py``),
reports the per-layer metrics and writes the spans to
``perfbench/out/``.
``--smoke`` shrinks the inputs so that a run takes a few seconds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# A fresh interpreter pays this on every CLI call.
SETUP_CODE = ("import pamsort.cli\n"
              "from pamsort.enumeration import golden_ids, golden_table\n"
              "for t in golden_ids():\n"
              "    golden_table(t)\n")
SETUP_REPS = 15

# On a shared host the speed drifts by up to 40% over periods of seconds,
# and a fixed loop of interpreted code drifts with it.  Every timing is
# therefore divided by the loop's slowdown k around it, the loop's time
# over CAL_NOMINAL_MS; the report gives k.  This under-corrects: over 60
# runs of 30 s on a 2-core x86 host, the rescaled metrics still moved as
# k**0.26 to k**0.42 of each run's median k: on a slowed host they read
# somewhat slower than at nominal speed, not faster.  A memory-walking or
# an allocating loop did no better.  The loop runs after every
# CAL_EVERY_S of jobs and at the end of each pass.
CAL_ITERS = 100_000
CAL_NOMINAL_MS = 13.0
CAL_EVERY_S = 0.1
_CAL_TABLE = [(i * 7919) % 1009 for i in range(1024)]
LAYER_METRICS = ("words_core", "patterns", "machine", "oracles",
                 "enumeration", "paths_trees", "bijections")


def locate_source() -> None:
    """Put the checkout's ``src`` first on the path, or exit with 2."""
    if not (SRC / "pamsort" / "__init__.py").is_file():
        print(f"error: no pamsort sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def calibrate() -> float:
    """Milliseconds taken by a fixed loop that allocates nothing (so that
    it never triggers the garbage collector)."""
    table, acc = _CAL_TABLE, 0
    t0 = time.perf_counter_ns()
    for i in range(CAL_ITERS):
        acc = (acc + table[(acc ^ i) & 1023]) % 1000003
    return (time.perf_counter_ns() - t0) / 1e6


def slowdowns(cal_ms: list[float]) -> list[float]:
    """Host slowdown k during each interval between calibrations."""
    return [(a + b) / 2 / CAL_NOMINAL_MS for a, b in zip(cal_ms, cal_ms[1:])]


def measure_setup(reps: int) -> float:
    """Median time of a fresh interpreter importing the CLI and loading
    the golden tables, after one untimed start, each start rescaled by
    the calibration loop run before and after it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, cal_ms = [], [calibrate()]
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        cal_ms.append(calibrate())
    scaled = [t / k for t, k in zip(times, slowdowns(cal_ms))]
    return statistics.median(scaled[1:])


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q / 100) - 1)]


def summarize(jobs: list, latencies_ns: list) -> tuple[float, ...]:
    """(words/s, queries/s, p50 us, p99 us) of one pass."""
    busy = sum(latencies_ns) / 1e9
    lat = sorted(latencies_ns)
    return (sum(j.words for j in jobs) / busy, len(jobs) / busy,
            percentile(lat, 50) / 1e3, percentile(lat, 99) / 1e3)


@dataclass
class Pass:
    """Summary of one whole pass.  Per-job figures are dropped when the
    pass ends, so that the benchmark's own memory does not grow with the
    number of jobs a faster program gets through."""

    jobs: list               # the job list as the workload yielded it
    scaled: tuple[float, ...]
    scaled_busy_s: float


@dataclass
class Run:
    """Passes executed in one measured loop and what they returned."""

    passes: list[Pass] = field(default_factory=list)
    int_results: list = field(default_factory=list)   # (job, int result)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    cal_ms: list[float] = field(default_factory=list)

    def jobs(self) -> Iterator[Any]:
        return (job for p in self.passes for job in p.jobs)

    @property
    def words(self) -> int:
        return sum(job.words for job in self.jobs())

    @property
    def scaled_busy_s(self) -> float:
        return sum(p.scaled_busy_s for p in self.passes)


def execute(job: Any, run: Run, tracer: Any = None) -> int:
    """Time one job's library call, check its result untimed, and return
    the call's latency in nanoseconds."""
    call = job.call if tracer is None else \
        (lambda: tracer.root("job", job.call))
    t0 = time.perf_counter_ns()
    try:
        result = call()
    except Exception as exc:
        result = exc
    dt = time.perf_counter_ns() - t0
    run.attempted += 1
    if isinstance(result, Exception):
        run.failures.append(f"{job.label}: {result!r}")
        return dt
    if isinstance(result, int):
        run.int_results.append((job, result))
    try:
        ok = job.check(result, job.expected)
    except Exception as exc:
        ok = False
        result = exc
    if not ok:
        run.failures.append(f"{job.label}: got {result!r:.200}")
    return dt


def run_pass(run: Run, jobs: list, tracer: Any = None) -> None:
    """Execute one pass, running the calibration loop after every
    CAL_EVERY_S of jobs and at the end of the pass."""
    if not run.cal_ms:
        run.cal_ms.append(calibrate())
    latencies, segments = [], []
    since = time.perf_counter()
    for job in jobs:
        latencies.append(execute(job, run, tracer))
        segments.append(len(run.cal_ms) - 1)
        if time.perf_counter() - since >= CAL_EVERY_S:
            run.cal_ms.append(calibrate())
            since = time.perf_counter()
    if segments[-1] == len(run.cal_ms) - 1:
        run.cal_ms.append(calibrate())
    k = slowdowns(run.cal_ms)
    scaled = [lat / k[seg] for lat, seg in zip(latencies, segments)]
    run.passes.append(Pass(jobs, summarize(jobs, scaled),
                           sum(scaled) / 1e9))


def measure(passes: Iterable[list], seconds: float) -> Run:
    """Run whole passes until ``seconds`` have elapsed (at least one)."""
    run = Run()
    deadline = time.perf_counter() + seconds
    for jobs in passes:
        run_pass(run, jobs)
        if time.perf_counter() >= deadline:
            break
    return run


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    """Each rate and percentile is taken per pass from latencies rescaled
    by the host's slowdown around each job; the metric is the median over
    the run's passes, which keeps a short stall of the machine from moving
    it."""
    words_s, queries_s, p50, p99 = (statistics.median(col) for col in
                                    zip(*(p.scaled for p in run.passes)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "words_per_s": (words_s, "1/s"),
        "queries_per_s": (queries_s, "1/s"),
        "query_p50_us": (p50, "us"),
        "query_p99_us": (p99, "us"),
    }
    queries = sum(len(p.jobs) for p in run.passes)
    k = slowdowns(run.cal_ms)
    samples = {
        "setup_starts": SETUP_REPS, "passes": len(run.passes),
        "queries": queries, "queries_per_pass": queries / len(run.passes),
        "words": run.words,
        "host_slowdown": {"min": min(k), "median": statistics.median(k),
                          "max": max(k)},
    }
    return metrics, samples


def per_layer(untraced: Run, traced: Run, tracer: Any) -> dict:
    """Totals over the fixed job set of the traced replay; the overhead
    is taken against the median untraced replay of the same set."""
    totals = tracer.layer_totals()
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYER_METRICS:
        metrics[f"{layer}.calls"] = (totals[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (totals[layer]["self_s"], "s")
    checks = tracer.calls("patterns.contains_classical")
    dispatch = tracer.calls("oracles.oracle_for")
    fallbacks = tracer.raised_count("oracles.oracle_for")
    metrics.update({
        "patterns.checks_per_word": (checks / traced.words, "count/word"),
        "oracles.dispatch_calls": (dispatch, "count"),
        "oracles.fallbacks": (fallbacks, "count"),
        "oracles.fallback_share": (fallbacks / dispatch if dispatch else 0.0,
                                   "ratio"),
        "trace_overhead_ratio": (traced.scaled_busy_s / statistics.median(
            p.scaled_busy_s for p in untraced.passes), "ratio"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    locate_source()
    import pamsort
    from tracer import Tracer
    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke
                                        else FULL)
    warm = Run()
    for job in workload.warmup():
        execute(job, warm)

    report: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "trace": args.trace}
    if args.trace == 0:
        setup_s = measure_setup(2 if args.smoke else SETUP_REPS)
        run = measure(workload.passes(), args.seconds)
        metrics, report["samples"] = end_to_end(run, setup_s)
        runs = [warm, run]
    else:
        passes = 1 if args.smoke else workload.trace_passes
        jobs = [job for p in itertools.islice(workload.passes(), passes)
                for job in p]
        untraced = measure(itertools.repeat(jobs), args.seconds / 4)
        tracer = Tracer()
        tracer.install(pamsort)
        run = Run()
        try:
            run_pass(run, jobs, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, run, tracer)
        spans = OUT / f"{args.workload}.spans"
        tracer.write(spans)
        report["spans"] = {"file": str(spans.relative_to(ROOT)),
                           "count": len(tracer.span_start)}
        report["untraced_replays"] = len(untraced.passes)
        runs = [warm, untraced, run]

    report["properties"] = workload.properties(run.jobs(), run.int_results)
    failures = [f for r in runs for f in r.failures]
    report["failures"] = failures[:20]
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    attempted = sum(r.attempted for r in runs)
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
