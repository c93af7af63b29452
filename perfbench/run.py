"""The repository benchmark: one command, two workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload market-study --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``BENCHMARK.json`` and ``perfbench/README.md``).
The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any op failed or its output was wrong.

The untraced run starts ``SETUP_RUNS`` fresh interpreters
(``session.py``); each sets the workload up and reports its set-up
time, and the last one also measures.  ``setup_s`` is the median over
them.  Times are in reference seconds: scaled by a speed gauge run
beside the workload (``gauge.py``).  The traced run starts two measuring interpreters on the same
seed, each for half of ``--seconds``: one untraced, then one traced,
so both run the same ops and their mean latencies give the tracing
overhead.  Everything the run writes goes under ``.bench_tmp/`` in the
checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 3
#: The whole run, every child included, ends within this many seconds.
RUN_TIMEOUT_S = 170.0


def _metric_units(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def _child(args, role: str, scratch: str, env: dict, deadline: float,
           trace: int = 0, seconds: float = 0.0) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "session.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds or args.seconds), "--trace", str(trace),
         "--t0", repr(t0), "--role", role, "--scratch", scratch],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise SystemExit(f"{role} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _overhead(untraced: dict, traced: dict) -> float:
    """Traced minus untraced mean op latency, over untraced, on the ops
    both children ran (the same seed gives the same ops in order), each
    child's latencies in reference seconds."""
    common = min(len(untraced["latencies"]), len(traced["latencies"]))
    base, with_trace = (
        statistics.fmean(child["latencies"][:common]) * child["scale"]
        for child in (untraced, traced))
    return (with_trace - base) / base


def _slope(values: list) -> float:
    """Least-squares slope of ``values`` against their index."""
    if len(values) < 2:
        return 0.0
    return statistics.linear_regression(range(len(values)), values).slope


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    units = _metric_units(args.trace)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    scratch = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(scratch)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("FRAGDROID_")}
    env["TMPDIR"] = scratch
    env["FRAGDROID_RUNS_DIR"] = os.path.join(scratch, "runs")
    try:
        if args.trace:
            half = args.seconds / 2
            children = [_child(args, "measure", scratch, env, deadline,
                               trace=0, seconds=half),
                        _child(args, "measure", scratch, env, deadline,
                               trace=1, seconds=half)]
        else:
            children = [_child(args, "setup", scratch, env, deadline)
                        for _ in range(SETUP_RUNS - 1)]
            children.append(_child(args, "measure", scratch, env, deadline))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it
    result = children[-1]
    values = dict(result["metrics"])
    setup_times = [round(c["setup_s"], 4) for c in children]
    unscaled_setup_times = [round(c["setup_unscaled_s"], 4)
                            for c in children]
    if args.trace:
        untraced, traced = children
        values["trace_overhead_share"] = _overhead(untraced, traced)
        values["proc.rss_growth_mb_per_pass"] = _slope(untraced["rss_mb"])
    else:
        values["setup_s"] = statistics.median(c["setup_s"] for c in children)
        children = children[-1:]  # set-up children ran no ops
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for child in children:
        for failure in child["failures"]:
            print(f"failed op: {failure}", file=sys.stderr)
    detail = dict(result["detail"], setup_s=setup_times,
                  unscaled_setup_s=unscaled_setup_times)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
