"""Per-layer tracing for the benchmark's traced run.

The program has no in-code spans at every layer boundary yet, so the
traced run wraps the public functions of each layer from here, around
the calls the workloads make.  A wrapper counts calls and busy time,
and a per-thread stack of open calls gives each layer its self time
(busy time that no wrapped child covers).

Process-backend sweeps run explores in forked pool workers.  The
wrappers are inherited across ``fork``; a worker zeroes its counters
when it starts and writes a snapshot after every ``explore_one`` into
``worker_dir``, which the parent folds back in with
:meth:`LayerTrace.merge_workers`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (metric name, module, attribute path) of every wrapped callable.  A
#: class path wraps the method on the class; a bare function is
#: replaced in every loaded ``repro`` module that bound it by name.
LAYERS: List[Tuple[str, str, str]] = [
    ("apk.build", "repro.apk.builder", "build_apk"),
    ("apk.resources_parse", "repro.apk.resources",
     "ResourceTable.from_public_xml"),
    ("smali.decode", "repro.smali.apktool", "Apktool.decode"),
    ("smali.parse_class", "repro.smali.assemble", "parse_class"),
    ("static.extract", "repro.static.extractor", "extract_static_info"),
    ("static.fragment_scan", "repro.static.effective",
     "fragment_subclasses"),
    ("android.process_start", "repro.android.app_runtime",
     "AppProcess.__init__"),
    ("android.on_create", "repro.android.activity",
     "ActivityInstance.on_create"),
    ("android.visible_widgets", "repro.android.activity",
     "ActivityInstance.visible_widgets"),
    ("android.ui_dump", "repro.android.device", "Device.ui_dump"),
    ("adb.am_start", "repro.adb.bridge", "Adb.am_start"),
    ("adb.am_instrument", "repro.adb.bridge", "Adb.am_instrument"),
    ("adb.install", "repro.adb.bridge", "Adb.install"),
    ("robotium.click", "repro.robotium.solo", "Solo.click_on_view"),
    ("robotium.go_back", "repro.robotium.solo", "Solo.go_back"),
    ("core.explore", "repro.core.explorer", "FragDroid.explore"),
    ("core.snapshot", "repro.core.ui_driver", "UiDriver.snapshot"),
    ("bench.explore_many", "repro.bench.parallel", "explore_many"),
    ("serve.run_job", "repro.serve.scheduler", "Scheduler.run_job"),
    ("serve.journal_write", "repro.serve.journal", "JobJournal.write"),
    ("obs.registry_record", "repro.obs.registry", "RunRegistry.record"),
    ("obs.explain", "repro.obs.attribution", "explain_outcomes"),
    ("obs.explanation_save", "repro.obs.attribution",
     "ExplanationStore.save"),
    ("obs.explanation_load", "repro.obs.attribution",
     "ExplanationStore.load"),
    ("corpus.generate_market", "repro.corpus.market", "generate_market"),
    ("corpus.build_app", "repro.corpus.synth", "build_app"),
]


class LayerTrace:
    """Call counts, busy and self time per layer, for one process."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.worker_file = ""  # set in a forked pool worker
        self._reset()
        # Wall-clock end of the last run-record or explanation write;
        # only the scheduler thread writes them, one job at a time.
        self.last_persist_end = 0.0
        self.done_to_recorded: List[float] = []

    def _reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.sums: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _after_fork(self) -> None:
        # A forked pool worker starts from the parent's totals and from
        # the stack of the thread that forked it: neither is its own.
        self._reset()
        self.worker_file = os.path.join(
            self.worker_dir,
            f"worker-{os.getpid()}-{time.monotonic_ns()}.json")

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(trace._local, "paused", False):
                return fn(*args, **kwargs)
            stack = getattr(trace._local, "stack", None)
            if stack is None:
                stack = trace._local.stack = []
            if any(frame[0] == name for frame in stack):
                # Re-entry: count the call, not its time twice.
                with trace._lock:
                    trace.calls[name] += 1
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with trace._lock:
                    trace.calls[name] += 1
                    trace.busy[name] += elapsed
                    trace.self_s[name] += elapsed - frame[1]
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run the body on this thread without recording anything."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS`."""
        hooks = {
            "core.explore": self._after_explore,
            "bench.explore_many": self._after_explore_many,
            "serve.run_job": self._after_run_job,
            "obs.registry_record": self._after_persist,
            "obs.explanation_save": self._after_persist,
        }
        for name, module_name, path in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(
                        self.wrap(name, raw.__func__, hooks.get(name))))
                else:
                    setattr(owner, attr, self.wrap(name, raw, hooks.get(name)))
            else:
                original = getattr(module, attr)
                _rebind(original, self.wrap(name, original, hooks.get(name)))
        parallel = importlib.import_module("repro.bench.parallel")
        explore_one = parallel.explore_one
        _rebind(explore_one, self.wrap("bench.explore_one", explore_one,
                                       self._after_explore_one))
        os.register_at_fork(after_in_child=self._after_fork)

    # -- result hooks ----------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.sums[key] += value

    def _after_explore(self, args, kwargs, result, elapsed) -> None:
        stats = result.stats
        self._add("core.test_cases", stats.test_cases)
        self._add("core.events", stats.events)
        self._add("core.failed_items", stats.failed_items)
        self._add("core.nodes", len(result.visited_activities)
                  + len(result.visited_fragments))

    def _after_explore_many(self, args, kwargs, outcomes, elapsed) -> None:
        workers = kwargs.get("max_workers") or min(
            len(outcomes), os.cpu_count() or 1) or 1
        self._add("bench.pool_overhead_s", elapsed - sum(
            o.duration for o in outcomes.values()) / workers)

    def _after_persist(self, args, kwargs, result, elapsed) -> None:
        self.last_persist_end = time.time()

    def _after_run_job(self, args, kwargs, job, elapsed) -> None:
        # Scheduler._finish marks the job terminal before the run record
        # and explanation are written; until then GET .../explanation
        # answers 409.  The gap is that window.
        if job.run_id and job.finished:
            self.done_to_recorded.append(
                max(0.0, self.last_persist_end - job.finished))

    def _after_explore_one(self, args, kwargs, result, elapsed) -> None:
        if not self.worker_file:
            return
        snapshot = {"calls": dict(self.calls), "busy": dict(self.busy),
                    "self_s": dict(self.self_s), "sums": dict(self.sums)}
        with open(self.worker_file + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
        os.replace(self.worker_file + ".tmp", self.worker_file)

    # -- results ---------------------------------------------------------------

    def merge_workers(self) -> None:
        """Fold every pool worker's final snapshot into this trace."""
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.endswith(".json"):
                continue
            with open(os.path.join(self.worker_dir, entry),
                      encoding="utf-8") as handle:
                snapshot = json.load(handle)
            for field in ("calls", "busy", "self_s", "sums"):
                totals = getattr(self, field)
                for key, value in snapshot[field].items():
                    totals[key] += value
            os.remove(os.path.join(self.worker_dir, entry))


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at
    ``replacement`` (modules bind functions by value on import)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
