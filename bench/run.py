"""Benchmark of toricfloer: one workload, one seed, one fresh process.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --defects

Run from the root of a checkout. The program is used from the checkout's
`src/` tree (no build step). The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPS = 11
#: a run must end within this many seconds
DEADLINE_S = 170.0

# Times the import first, in a fresh interpreter with nothing else imported
# yet, then the calibration kernel; prints the raw seconds and the same in
# reference seconds.
SETUP_CODE = f"""\
import time
start = time.perf_counter()
import toricfloer, toricfloer.cli
elapsed = time.perf_counter() - start
import statistics, sys
sys.path.insert(0, {str(HERE)!r})
from calibrate import CAL_REF_S, kernel_seconds
local = statistics.median(kernel_seconds() for _ in range(3))
print(elapsed, elapsed * CAL_REF_S / local)
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a fresh interpreter in the checkout; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args[:2])} exited with {proc.returncode}: {proc.stderr.strip()}"
        )
    return proc.stdout.strip().splitlines()[-1]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(deadline: float) -> tuple[float, float]:
    """Medians of the raw and the reference-second import times."""
    reps = [
        [float(x) for x in run_child(["-c", SETUP_CODE], deadline).split()]
        for _ in range(SETUP_REPS)
    ]
    return tuple(statistics.median(rep[i] for rep in reps) for i in (0, 1))


def worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    args = [
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        args += ["--spans", str(out / f"spans-{workload}-seed{seed}.jsonl")]
    return json.loads(run_child(args, deadline))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        # the untraced half gives the overhead; both halves in fresh processes
        half = args.seconds / 2
        plain = worker(args.workload, args.seed, half, 0, deadline)
        result = worker(args.workload, args.seed, half, 1, deadline)
        overhead = 100 * (plain["jobs_per_s"] / result["jobs_per_s"] - 1)
        metrics = {
            name: metric(value, "s/job" if name.endswith("self_s") else "1/job")
            for name, value in result["layers"].items()
        }
        metrics["trace.jobs_per_s"] = metric(result["jobs_per_s"], "1/ref_s")
        metrics["trace.untraced_jobs_per_s"] = metric(plain["jobs_per_s"], "1/ref_s")
        metrics["trace.overhead_pct"] = metric(overhead, "%")
        runs = [plain, result]
    else:
        raw_setup_s, setup_s = measure_setup(deadline)
        result = worker(args.workload, args.seed, args.seconds, 0, deadline)
        result["raw"]["setup_s"] = raw_setup_s
        # BENCHMARK.json fixes this unit name; the value is in reference seconds
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "jobs_per_s": metric(result["jobs_per_s"], "1/ref_s"),
            "job_s.p50": metric(result["job_s.p50"], "ref_s"),
            "job_s.p90": metric(result["job_s.p90"], "ref_s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
        runs = [result]

    env = dict(result["env"], git=git_revision())
    print(f"# env {json.dumps(env, sort_keys=True)}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in r["raw"].items())
        print(
            f"# {args.workload} seed {args.seed}: {r['attempted']} jobs in "
            f"{r['passes']} passes, {r['busy_s']:.3f} s in jobs of {r['wall_s']:.3f} s, "
            f"failed_frac {r['failed'] / r['attempted']:.4f} {r['reasons']}\n"
            f"#   machine speed {r['speed']:.4f} x reference; raw (s): {raw}"
        )
        for line in r["failures"]:
            print(f"#   {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def defects(deadline: float) -> int:
    report = json.loads(run_child([str(HERE / "worker.py"), "--defects"], deadline))
    for d in report["defects"]:
        state = "still present" if d["reason"] == d["expected"] else "changed"
        print(f"{d['reason'] or 'pass'} ({state}; {d['s']:.3f} s): {d['job']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--defects", action="store_true", help="run the known defect cases instead"
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "toricfloer" / "__init__.py").is_file():
        print(f"error: no toricfloer source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.defects:
        return defects(time.monotonic() + DEADLINE_S)
    if args.workload is None or args.seconds < 1:
        parser.error("--workload is required and --seconds must be at least 1")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
