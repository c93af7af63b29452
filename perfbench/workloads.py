"""The benchmark's two workloads, their parameters and output checks.

Every workload draws its inputs from ``--seed``; the program under test
receives only the generated inputs.  Each op's output is checked
against a reference the program did not compute:

* ``serve-jobs``: the paper's Table I counts (``TABLE1_EXPECTED``),
  the numbers the paper measured;
* ``market-study``: the market generator's own ``packed`` and
  ``uses_fragments`` flags, which the study never reads — it decodes
  each APK and classifies it.

A failed check, an exception, an HTTP error or a timeout makes the op
failed; failed ops count in ``failed`` and the run exits non-zero.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import gauge

#: serve-jobs: arrival rate.  One scheduler runs 3-app
#: process-backend jobs at 4.3-4.8 jobs/s with its queue full and about
#: 3 jobs/s from idle (its poll is 50 ms).  At 1.5 and 2.0 jobs/s the
#: queueing made the op p50 and p90 spread 20-54% across seeds on a
#: 2-CPU machine, too wide for their bounds.
SERVE_RATE_PER_S = 1.0
#: Arrival gaps are spread evenly over this share either side of the
#: mean gap.  The shortest gap, 0.75 s at 1 job/s, is longer than all
#: but the slowest jobs, so a job seldom queues behind another.
SERVE_GAP_JITTER = 0.25
SERVE_APPS_PER_JOB = 3
SERVE_BACKEND = "process"
#: One pool worker, so a job's explores take one CPU of the two and the
#: service's own threads the other.  With two workers (as many as the
#: CPUs) the same seed's op p50 and throughput moved by 20% between two
#: runs at the same machine speed; with one, 7% and 4% over five runs,
#: and a job was no slower: forking a second worker costs about as
#: much as it saves on three apps.
SERVE_WORKERS = 1
#: The explorer's own default budget, so a job explores each app
#: exactly as ``FragDroid(Device()).explore`` does.
SERVE_MAX_EVENTS = 20000
SERVE_OP_TIMEOUT_S = 30.0
SERVE_POLL_S = 0.02
#: The speed gauge runs in an idle gap only if the next job is due at
#: least this much later (a gauge run takes 4-10 ms).
SERVE_GAUGE_MARGIN_S = 0.05

MARKET_COUNT = 217


@dataclass
class Phase:
    """What one measured phase of a workload did."""

    latencies: List[float] = field(default_factory=list)  # passed ops
    apps: int = 0
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0       # program busy time (throughput denominator)
    passes: int = 0
    rss_mb: List[float] = field(default_factory=list)  # after each pass
    failures: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    gauge_s: List[float] = field(default_factory=list)  # gauge.run() times

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(why)


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _table1_mismatch(package: str, got: tuple) -> Optional[str]:
    from repro.corpus import TABLE1_EXPECTED

    expected = TABLE1_EXPECTED[package][:4]
    if tuple(got) != expected:
        return f"{package}: got {tuple(got)}, Table I has {expected}"
    return None


class MarketStudy:
    """Closed loop, one caller: one ``run_usage_study(count=217,
    seed=s)`` per op with ``s = seed + pass``, so every pass is a
    corpus the process has not seen."""

    name = "market-study"

    trace = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.next_pass = 0

    def warm_up(self) -> None:
        phase = Phase()
        self._pass(phase)
        if phase.failed:
            raise RuntimeError(f"warm-up failed: {phase.failures}")

    def run(self, seconds: float) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:  # whole passes only
            self._pass(phase)
        return phase

    def trace_installed(self, trace) -> None:
        self.trace = trace

    def close(self) -> None:
        pass

    def _pass(self, phase: Phase) -> None:
        from repro.bench import run_usage_study
        from repro.corpus import generate_market

        seed = self.seed + self.next_pass
        self.next_pass += 1
        # The reference is generated off the clock and outside the
        # trace, so it adds to no layer; so is the speed gauge.
        with self.trace.paused() if self.trace else contextlib.nullcontext():
            reference = generate_market(count=MARKET_COUNT, seed=seed)
            phase.gauge_s.append(gauge.run())
        packed = sum(app.packed for app in reference)
        with_fragments = sum(app.uses_fragments and not app.packed
                             for app in reference)
        del reference
        phase.attempted += 1
        start = time.perf_counter()
        try:
            study = run_usage_study(count=MARKET_COUNT, seed=seed)
        except Exception as exc:  # noqa: BLE001 - counted as failed op
            phase.busy_s += time.perf_counter() - start
            phase.fail(f"seed {seed}: {exc!r}")
            return
        elapsed = time.perf_counter() - start
        phase.busy_s += elapsed
        phase.apps += study.total
        phase.passes += 1
        phase.rss_mb.append(current_rss_mb())
        got = (study.total, study.packed, study.with_fragments)
        want = (MARKET_COUNT, packed, with_fragments)
        if got != want:
            phase.fail(f"seed {seed}: (total, packed, with_fragments) "
                       f"{got}, generator flags give {want}")
        else:
            phase.latencies.append(elapsed)


class ServeJobs:
    """Open loop against an in-process ``ReproServer`` on loopback.

    Jobs arrive on a jittered schedule: a run of ``n`` jobs over ``s``
    seconds takes as its gaps ``n`` values spread evenly over
    ``s / n`` times ``1 ± SERVE_GAP_JITTER``, in a seeded order.  Every
    seed thus offers the same gaps and only their order and the job
    mix vary.  The jitter keeps arrivals out of step with the
    scheduler's 50 ms idle poll.  Exponential (Poisson) gaps, even
    stratified, made about a third of the jobs queue behind another, and
    how many did grew with the machine's speed of the moment: the same
    seed gave an op p50 of 0.31 s and 0.44 s in two runs.  Every block of
    five consecutive jobs covers the 15 Table-I apps once, so each run
    explores the same apps whatever the seed.  One thread sends every
    request, one at a time.  An op runs from its due time until
    the job is terminal with its ``run_id`` set and its explanation has
    been fetched.
    """

    name = "serve-jobs"

    def __init__(self, seed: int, scratch: str) -> None:
        from repro.corpus import TABLE1_EXPECTED, TABLE1_PLANS
        from repro.serve import ReproServer, ServeClient

        self.rng = random.Random(seed)
        self.packages = [plan.package for plan in TABLE1_PLANS]
        # Size tiers by Activities plus Fragments in Table I, largest
        # first; each job takes one app of each tier, so every job has
        # one large, one middle and one small app.
        by_size = sorted(self.packages, key=lambda p: (
            -(TABLE1_EXPECTED[p][1] + TABLE1_EXPECTED[p][3]), p))
        per_tier = len(by_size) // SERVE_APPS_PER_JOB
        self.tiers = [by_size[i:i + per_tier]
                      for i in range(0, len(by_size), per_tier)]
        # The warm-up job is the largest app of each tier whatever the
        # seed, so set-up time does not depend on the seed's draw.
        self.warm_up_job = [tier[0] for tier in self.tiers]
        self.scratch = scratch
        self.server = ReproServer(
            journal_dir=os.path.join(scratch, "journal"),
            registry_dir=os.path.join(scratch, "runs"))
        self.server.start()
        self.client = ServeClient(self.server.url,
                                  timeout_s=SERVE_OP_TIMEOUT_S)

    def _job_apps(self, blocks: int) -> List[List[str]]:
        jobs = []
        for _ in range(blocks):
            for tier in self.tiers:
                self.rng.shuffle(tier)
            jobs.extend([list(job) for job in zip(*self.tiers)])
        return jobs

    def warm_up(self) -> None:
        phase = self._drive([0.0], [self.warm_up_job], window_s=0.0)
        if phase.failed:
            raise RuntimeError(f"warm-up failed: {phase.failures}")

    def run(self, seconds: float) -> Phase:
        per_block = len(self.packages) // SERVE_APPS_PER_JOB
        blocks = max(1, round(SERVE_RATE_PER_S * seconds / per_block))
        jobs = blocks * per_block
        rate = jobs / seconds
        gaps = [(1.0 + SERVE_GAP_JITTER * (2.0 * (i + 0.5) / jobs - 1.0))
                / rate for i in range(jobs)]
        self.rng.shuffle(gaps)
        arrivals = list(itertools.accumulate(gaps))
        phase = self._drive(arrivals, self._job_apps(blocks), seconds)
        phase.passes = blocks
        return phase

    def _drive(self, arrivals: List[float], job_apps: List[List[str]],
               window_s: float) -> Phase:
        from repro.serve import ServeClientError

        phase = Phase()
        samples = phase.samples
        for key in ("submit_s", "explanation_get_s", "queue_wait_s",
                    "lag_s"):
            samples[key] = []
        client = self.client
        origin = time.perf_counter()
        due = [origin + offset for offset in arrivals]
        inflight: Dict[str, tuple] = {}
        sent = finished = 0
        gauged = -1  # the last arrival gap the speed gauge ran in
        backlog_end: Optional[int] = None
        while sent < len(due) or inflight:
            now = time.perf_counter()
            if backlog_end is None and now - origin >= window_s:
                backlog_end = len(inflight) + len(due) - sent
            if sent < len(due) and now >= due[sent]:
                apps = job_apps[sent]
                samples["lag_s"].append(now - due[sent])
                phase.attempted += 1
                try:
                    job = client.submit(apps, backend=SERVE_BACKEND,
                                        workers=SERVE_WORKERS,
                                        max_events=SERVE_MAX_EVENTS)
                except ServeClientError as exc:
                    phase.fail(f"submit {apps}: {exc}")
                else:
                    samples["submit_s"].append(time.perf_counter() - now)
                    inflight[job["job_id"]] = (due[sent], apps)
                sent += 1
                continue
            for job_id, (job_due, apps) in list(inflight.items()):
                try:
                    job = client.job(job_id)
                    if job["state"] not in ("done", "failed", "cancelled"):
                        if time.perf_counter() - job_due > SERVE_OP_TIMEOUT_S:
                            del inflight[job_id]
                            phase.fail(f"job {job_id} timed out")
                        continue
                    if not job["run_id"] and job["state"] != "cancelled":
                        continue  # terminal but not yet recorded
                    asked = time.perf_counter()
                    explanation = client.explanation(job_id)
                    done = time.perf_counter()
                except ServeClientError as exc:
                    del inflight[job_id]
                    phase.fail(f"job {job_id}: {exc}")
                    continue
                del inflight[job_id]
                samples["explanation_get_s"].append(done - asked)
                samples["queue_wait_s"].append(
                    max(0.0, (job["started"] or job["created"])
                        - job["created"]))
                phase.apps += len(job["completed"])
                # The scheduler runs one job at a time, so the jobs'
                # run times add up to its busy time.
                if job["started"] and job["finished"]:
                    phase.busy_s += job["finished"] - job["started"]
                problem = _check_job(job, apps, explanation)
                if problem:
                    phase.fail(f"job {job_id}: {problem}")
                else:
                    phase.latencies.append(done - job_due)
                finished += 1
                if finished % (len(self.packages) // SERVE_APPS_PER_JOB) == 0:
                    phase.rss_mb.append(current_rss_mb())
            now = time.perf_counter()
            if (not inflight and sent < len(due) and gauged != sent
                    and due[sent] - now > SERVE_GAUGE_MARGIN_S):
                # Idle: no job runs, so the gauge shares no CPU.
                phase.gauge_s.append(gauge.run())
                gauged = sent
                continue
            pause = SERVE_POLL_S
            if sent < len(due):
                pause = min(pause, max(0.0, due[sent] - now))
            if pause > 0:
                time.sleep(pause)
        phase.busy_s = max(phase.busy_s, 1e-9)
        phase.samples["backlog_end"] = [float(backlog_end or 0)]
        return phase

    def trace_installed(self, trace) -> None:
        from repro.bench import parallel

        # The scheduler bound its sweep function when it was built.
        self.server.scheduler.sweep_fn = parallel.explore_many

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)


def _check_job(job: dict, apps: List[str], explanation: dict) -> Optional[str]:
    if job["state"] != "done":
        return f"state {job['state']!r}: {job.get('error')}"
    rows = job["completed"]
    if sorted(rows) != sorted(apps):
        return f"rows for {sorted(rows)}, submitted {sorted(apps)}"
    for package, row in rows.items():
        mismatch = _table1_mismatch(package, (
            row["activities_visited"], row["activities_sum"],
            row["fragments_visited"], row["fragments_sum"]))
        if mismatch:
            return mismatch
    if explanation.get("source_run_id") != job["run_id"]:
        return "explanation is not the job's recorded run"
    unclassified = [t["name"] for t in explanation.get("targets", ())
                    if t.get("cause") == "unclassified"]
    if unclassified:
        return f"unclassified misses: {unclassified[:3]}"
    return None


def make(name: str, seed: int, scratch: str):
    if name == MarketStudy.name:
        return MarketStudy(seed)
    if name == ServeJobs.name:
        return ServeJobs(seed, scratch)
    names = (MarketStudy.name, ServeJobs.name)
    raise SystemExit(f"unknown workload {name!r}; expected one of "
                     f"{', '.join(names)}")
