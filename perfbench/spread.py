"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 --out spread.json \\
        [--workload market-study ...] [--trace 0]

For every workload and end-to-end metric it prints the median of the
per-seed values and the distance between their first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of that
median, beside the metric's bound from ``BENCHMARK.json``.  Each run's
last JSON line is kept in ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for name in names:
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = ok and proc.returncode == 0 and result.get("correct", False)
            runs.setdefault(name, {})[seed] = result
            print(f"{name} seed {seed}: exit {proc.returncode}, "
                  f"correct {result.get('correct')}", flush=True)
    summary = {}
    for name, by_seed in runs.items():
        metrics = [r["metrics"] for r in by_seed.values() if r]
        for metric in metrics[0] if metrics else ():
            values = [m[metric]["value"] for m in metrics]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else None
            summary.setdefault(name, {})[metric] = {
                "median": median, "iqr_share": spread,
                "bound": bounds.get(metric)}
            shown = "n/a" if spread is None else f"{spread:.2%}"
            print(f"{name:15} {metric:28} median {median:12.6g} "
                  f"spread {shown:>7} bound {bounds.get(metric)}")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"seconds": args.seconds, "trace": args.trace,
                   "runs": runs, "summary": summary}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
