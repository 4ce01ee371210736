"""One workload run in a fresh process: a closed loop with one client.

Started by run.py with the thread counts and hash seed pinned. Runs
whole passes of seeded jobs until --seconds have passed, at least
MIN_JOBS jobs ran and at least RSS_PASSES passes ran; checks every output
against the benchmark's own reference, and prints one JSON summary line.

The calibration kernel runs between jobs, at most every CAL_INTERVAL_S,
and the reported job times are rescaled by its local speed to reference
seconds (see calibrate.py); the raw times are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from calibrate import CAL_REF_S, kernel_seconds, normalised
from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

#: wall-clock cap on one job; the slowest workload job takes about 0.9 s
JOB_CAP_S = 5.0
#: enough samples that ten lie beyond p90
MIN_JOBS = 100
#: passes after which peak_rss_mb is read, so that it measures the same
#: work however many passes a faster or slower program fits in the run
RSS_PASSES = 3
#: seconds between two samples of the calibration kernel
CAL_INTERVAL_S = 0.1


class JobTimeout(BaseException):
    """Raised by the interval timer inside a job that ran past the cap.

    A BaseException, so that no `except Exception` in the library swallows it.
    """


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def run_capped(fn, cap: float = JOB_CAP_S):
    """fn() under a wall-clock cap enforced in this thread by SIGALRM."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_job(job: workloads.Job, cap: float = JOB_CAP_S):
    """(seconds, reason or None); a timed-out job counts at the cap."""
    start = time.perf_counter()
    try:
        out = run_capped(job.run, cap)
    except JobTimeout:
        return cap, workloads.TIMEOUT
    except Exception:
        return time.perf_counter() - start, workloads.EXCEPTION
    elapsed = time.perf_counter() - start
    try:
        return elapsed, job.check(out)
    except Exception:
        return elapsed, workloads.EXCEPTION


def summary(times: list[float], correct: int) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "jobs_per_s": correct / sum(times),
        "job_s.p50": statistics.median(times),
        "job_s.p90": deciles[8],
    }


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer | None = None):
    make_pass = workloads.WORKLOADS[name]
    starts: list[float] = []
    times: list[float] = []
    samples: list[tuple[float, float]] = []
    reasons: Counter = Counter()
    failures: list[str] = []

    def probe():
        samples.append((time.perf_counter(), kernel_seconds()))

    start = time.perf_counter()
    passes = 0
    peak_rss_mb = None
    probe()
    while True:
        for job in make_pass(seed, passes):
            if time.perf_counter() - samples[-1][0] >= CAL_INTERVAL_S:
                probe()
            if tracer is not None:
                tracer.begin_job(len(times))
            starts.append(time.perf_counter())
            elapsed, reason = run_job(job)
            times.append(elapsed)
            if reason is not None:
                reasons[reason] += 1
                failures.append(f"{reason}: {job.label}")
            # a broken program must still end the run in time
            if time.perf_counter() - start > 2 * seconds + 30:
                break
        else:
            passes += 1
            if passes == RSS_PASSES:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if (
                time.perf_counter() - start < seconds
                or len(times) < MIN_JOBS
                or passes < RSS_PASSES
            ):
                continue
        break
    probe()
    if peak_rss_mb is None:  # the hard stop came first
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(times)
    failed = sum(reasons.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "reasons": dict(reasons),
        "failures": failures[:20],
        "passes": passes,
        "wall_s": time.perf_counter() - start,
        "busy_s": sum(times),
        "speed": CAL_REF_S / statistics.median(k for _, k in samples),
        "raw": summary(times, attempted - failed),
        **summary(normalised(starts, times, samples), attempted - failed),
        "peak_rss_mb": peak_rss_mb,
    }


def check_defects() -> list[dict]:
    """Run each known defect case once; report what it does today."""
    out = []
    for job, expected in workloads.known_defects():
        elapsed, reason = run_job(job)
        out.append(
            {"job": job.label, "reason": reason, "expected": expected, "s": elapsed}
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file to write the traced spans to")
    parser.add_argument("--defects", action="store_true")
    args = parser.parse_args()

    import numpy
    import toricfloer

    source = Path(toricfloer.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"toricfloer imported from {source}, not this checkout", file=sys.stderr)
        return 2
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "toricfloer": toricfloer.__version__,
        "nproc": os.cpu_count(),
    }
    if args.defects:
        print(json.dumps({"env": env, "defects": check_defects()}))
        return 0
    if args.trace:
        with Tracer() as tracer:
            result = run_workload(args.workload, args.seed, args.seconds, tracer)
        result["layers"] = layer_metrics(tracer.spans, result["attempted"])
        if args.spans:
            tracer.write(args.spans)
    else:
        result = run_workload(args.workload, args.seed, args.seconds)
    result["env"] = env
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
