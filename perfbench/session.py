"""One benchmark child: a fresh interpreter that sets a workload up and,
as the measuring child, runs it and computes its metrics.

``run.py`` starts this script several times per run.  Each child
reports ``setup_s``: from ``--t0`` (the parent's monotonic clock just
before it started this interpreter) to the moment the first timed op
could start, so interpreter start, ``import repro.cli``, input
generation, server start and the warm-up op are all inside it, scaled
to reference seconds by speed-gauge runs that follow it.  The
measuring child goes on to run the workload for ``--seconds``, with
the layer wrappers installed when ``--trace 1``, and prints its
metrics, op latencies and RSS series as one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quantile(values, q: int) -> float:
    """The ``q``-th percentile (``q`` a multiple of 5)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[q // 5 - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


#: Speed-gauge runs right after set-up, to scale the set-up time.
SETUP_GAUGE_RUNS = 15


def speed_scale(gauge_times) -> float:
    """Seconds measured while the speed gauge took ``gauge_times``,
    times this, give reference seconds (see ``gauge.py``)."""
    from gauge import GAUGE_EXPONENT, GAUGE_S

    return (GAUGE_S / statistics.median(gauge_times)) ** GAUGE_EXPONENT


def end_to_end(phase) -> dict:
    from workloads import peak_rss_mb

    scale = speed_scale(phase.gauge_s)
    return {
        "op_p50_s": _median(phase.latencies) * scale,
        "op_p75_s": _quantile(phase.latencies, 75) * scale,
        "apps_per_s": phase.apps / (phase.busy_s * scale),
        "rss_peak_mb": peak_rss_mb(),
    }


def per_layer(traced, trace) -> dict:
    """The traced child's metrics.  ``run.py`` adds the two that need
    the untraced child: ``trace_overhead_share`` and
    ``proc.rss_growth_mb_per_pass``."""
    import resource

    from layers import LAYERS
    from workloads import peak_rss_mb

    passes = max(traced.passes, 1)
    metrics = {}
    for name, _, _ in LAYERS:
        metrics[f"{name}.calls"] = trace.calls.get(name, 0) / passes
        metrics[f"{name}.busy_s"] = trace.busy.get(name, 0.0) / passes
    sums = trace.sums
    test_cases = sums.get("core.test_cases", 0.0)
    metrics.update({
        "core.explore.self_s": trace.self_s.get("core.explore", 0.0) / passes,
        "core.test_cases": test_cases / passes,
        "core.events": sums.get("core.events", 0.0) / passes,
        "core.failed_item_share": (sums.get("core.failed_items", 0.0)
                                   / test_cases if test_cases else 0.0),
        "core.nodes_per_test_case": (sums.get("core.nodes", 0.0)
                                     / test_cases if test_cases else 0.0),
        "bench.pool_overhead_s": sums.get("bench.pool_overhead_s", 0.0)
        / passes,
        "bench.worker_rss_peak_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    })
    samples = traced.samples
    metrics.update({
        "serve.queue_wait_s": _median(samples.get("queue_wait_s")),
        "serve.submit_s": _median(samples.get("submit_s")),
        "serve.done_to_recorded_s": _median(trace.done_to_recorded),
        "serve.explanation_get_s": _median(samples.get("explanation_get_s")),
        "serve.backlog_end": _median(samples.get("backlog_end")),
        "loadgen.lag_p90_s": _quantile(samples.get("lag_s") or [], 90),
        "loadgen.submitted": float(traced.attempted),
        "loadgen.completed": float(len(traced.latencies)),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro.cli  # noqa: F401 - part of set-up, as for every command

    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {src}")
    import gauge
    import workloads

    workload = workloads.make(args.workload, args.seed,
                              os.path.join(args.scratch, "serve"))
    try:
        workload.warm_up()
        setup_s = time.monotonic() - args.t0
        setup_scale = speed_scale([gauge.run()
                                   for _ in range(SETUP_GAUGE_RUNS)])
        out = {"setup_s": setup_s * setup_scale,
               "setup_unscaled_s": setup_s}
        if args.role == "measure":
            trace = None
            if args.trace:
                from layers import LayerTrace

                worker_dir = os.path.join(args.scratch, "workers")
                os.makedirs(worker_dir, exist_ok=True)
                trace = LayerTrace(worker_dir)
                trace.install()
                workload.trace_installed(trace)
            phase = workload.run(args.seconds)
            if trace:
                trace.merge_workers()
                out["metrics"] = per_layer(phase, trace)
            else:
                out["metrics"] = end_to_end(phase)
            out.update(attempted=phase.attempted, failed=phase.failed,
                       failures=phase.failures,
                       latencies=phase.latencies, rss_mb=phase.rss_mb)
            out["scale"] = speed_scale(phase.gauge_s)
            out["detail"] = {
                "ops": len(phase.latencies), "passes": phase.passes,
                "busy_s": phase.busy_s, "gauge_runs": len(phase.gauge_s),
                "speed_scale": out["scale"],
                "unscaled_op_p50_s": _median(phase.latencies),
                "unscaled_op_p75_s": _quantile(phase.latencies, 75),
                "unscaled_apps_per_s": phase.apps / phase.busy_s}
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
