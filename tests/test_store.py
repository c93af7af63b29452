"""The on-disk bytes of every store, pinned by golden fixtures, and the
atomic-write failure path of each store.

Each artifact kind is written from fixed inputs (fixed ``created``
timestamps, ids and digests) through its store's public entry point
and compared byte for byte with ``tests/store_golden/``.  Regenerate a
fixture only when an artifact's format changes on purpose.
"""

import contextlib
import os
import pathlib

import pytest

from repro.apk import build_apk
from repro.corpus import demo_tabbed_app
from repro.obs.attribution import CoverageExplanation, ExplanationStore
from repro.obs.registry import PIN_FILE, RunRecord, RunRegistry
from repro.serve.jobs import Job
from repro.serve.journal import JobJournal
from repro.static.cache import StaticCache
from repro.static.extractor import extract_static_info

GOLDEN = pathlib.Path(__file__).parent / "store_golden"

CREATED = 1700000000.0
ENTRY_DIGEST = "ab" * 32
NOTE_DIGEST = "cd" * 32


def _record() -> RunRecord:
    record = RunRecord(
        label="golden",
        corpus_digest="ef" * 32,
        apps=[{"package": "com.golden.app", "ok": True,
               "activity_rate": 0.5, "fragment_rate": 0.25}],
        coverage={"activity_rate": 0.5, "fragment_rate": 0.25},
        counters={"adb.am_start": 3.0},
        fault_census={"none": 1},
        meta={"created": CREATED, "backend": "thread"},
    )
    record.run_id = record.compute_id()
    return record


def _job() -> Job:
    return Job(apps=["com.golden.app", "com.golden.other"],
               job_id="job-golden-0001", state="done", created=CREATED,
               started=CREATED + 1, finished=CREATED + 2,
               completed={"com.golden.app": {"package": "com.golden.app",
                                             "ok": True}},
               run_id="0123456789abcdef", trace_id=7)


def _explanation(run_id: str) -> CoverageExplanation:
    return CoverageExplanation(
        label="golden", source_run_id=run_id,
        apps=[{"package": "com.golden.app", "ok": True,
               "missed_activities": 1}],
        targets=[{"package": "com.golden.app", "kind": "activity",
                  "name": "com.golden.app.Hidden",
                  "cause": "no-static-path"}],
        cause_census={"no-static-path": 1},
        meta={"backend": "thread"},
    )


def write_artifacts(base: pathlib.Path):
    """One artifact of each kind under ``base``; golden name -> path."""
    registry = RunRegistry(base / "runs")
    run_id = registry.record(_record())
    registry.pin(run_id)
    journal = JobJournal(base / "journal")
    job = _job()
    journal.write(job)
    ExplanationStore(registry.directory).save(_explanation(run_id))
    cache = StaticCache(base / "cache")
    cache.store(ENTRY_DIGEST,
                extract_static_info(build_apk(demo_tabbed_app())))
    cache.store_notes("usage", {NOTE_DIGEST: "fragments"})
    return {
        "run_record.json": registry.path_of(run_id),
        "BASELINE": registry.directory / PIN_FILE,
        "journal_entry.json": journal.path_of(job.job_id),
        "explanation.json": ExplanationStore(registry.directory)
        .path_of(run_id),
        "cache_entry.json": base / "cache" / f"{ENTRY_DIGEST}.json",
        "notes-usage.json": base / "cache" / "notes-usage.json",
        "cache_stats.json": base / "cache" / "stats.json",
    }


def test_every_artifact_kind_matches_its_golden_bytes(tmp_path):
    written = write_artifacts(tmp_path)
    assert sorted(written) == sorted(p.name for p in GOLDEN.iterdir())
    for name, path in written.items():
        assert path.read_bytes() == (GOLDEN / name).read_bytes(), name


def _refuse_replace(src, dst):
    raise OSError(f"refusing to replace {dst}")


def _save_record(base):
    RunRegistry(base).record(_record())


def _save_job(base):
    JobJournal(base).write(_job())


def _save_explanation(base):
    ExplanationStore(base).save(_explanation("0123456789abcdef"))


def _save_cache(base):
    # A cache whose disk refuses writes keeps serving from memory.
    cache = StaticCache(base)
    cache.store(ENTRY_DIGEST,
                extract_static_info(build_apk(demo_tabbed_app())))
    cache.store_notes("usage", {NOTE_DIGEST: "fragments"})
    assert cache.lookup(ENTRY_DIGEST) is not None
    assert cache.load_notes("usage") == {NOTE_DIGEST: "fragments"}


@pytest.mark.parametrize("save, raises", [
    (_save_record, True),
    (_save_job, True),
    (_save_explanation, True),
    (_save_cache, False),
], ids=["registry", "journal", "explanation", "static-cache"])
def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch, save,
                                            raises):
    monkeypatch.setattr(os, "replace", _refuse_replace)
    with (pytest.raises(OSError, match="refusing") if raises
          else contextlib.nullcontext()):
        save(tmp_path)
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == []
