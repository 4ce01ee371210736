"""Repeat benchmark runs and compare sets of them against BENCHMARK.json.

    python3 bench/compare.py collect --workload scan --seeds 1-10 --out A.jsonl
    python3 bench/compare.py report A.jsonl            # spread of each metric
    python3 bench/compare.py report A.jsonl B.jsonl    # B against A

`collect` runs bench/run.py once per seed, each in a fresh process, and
appends one JSON line per run. `report` gives, per workload and end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median of the runs,
as `statistics.quantiles(values, n=4)` gives them. With two files it also
gives how much worse B's median is than A's, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args) -> int:
    with open(args.out, "a", encoding="utf-8") as fh:
        for seed in seeds(args.seeds):
            cmd = [
                sys.executable, str(ROOT / "bench" / "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            row = {"workload": args.workload, "seed": seed, "trace": args.trace, **result}
            fh.write(json.dumps(row) + "\n")
            fh.flush()
            summary = " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                if not args.trace or k.startswith("trace.")
            )
            print(f"{args.workload} seed {seed}: correct={result['correct']} {summary}")
    return 0


def load(path: str) -> dict:
    """{(workload, metric): [values]} over the untraced runs of a file."""
    values = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["trace"]:
                continue
            for name, m in row["metrics"].items():
                values[row["workload"], name].append(m["value"])
    return values


def spread(xs: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, (q3 - q1) / q2


def report(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load(args.files[0])
    other = load(args.files[1]) if len(args.files) > 1 else None
    for (workload, name), xs in sorted(base.items()):
        m = metrics[name]
        median, rel = spread(xs)
        flag = "ok" if rel < m["bound"] / 3 else ("noisy" if rel < m["bound"] else "OVER")
        line = (
            f"{workload:8} {name:12} n={len(xs):2} median {median:.6g} {m['unit']:4} "
            f"spread {rel:7.2%} (bound {m['bound']:.0%}) {flag}"
        )
        if other is not None and (workload, name) in other:
            new, _ = spread(other[workload, name])
            worse = (new - median) / median * (1 if m["better"] == "lower" else -1)
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            line += f" | B median {new:.6g}, worse by {worse:+.2%} {verdict}"
        print(line)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10", help="like 1-10")
    c.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    r = sub.add_parser("report")
    r.add_argument("files", nargs="+")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
