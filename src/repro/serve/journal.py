"""Crash-safe persistence of job state.

The journal is what makes ``repro serve`` restartable: every job
transition — admission, each completed round of apps, the terminal
state — is written as one ``<job_id>.json`` file under the journal
directory, atomically (:func:`repro.store.atomic_write`, like every
other store), so a crash between writes leaves either the previous
consistent snapshot or the new one, never interleaved bytes.

On restart the service loads every entry; jobs in a non-terminal state
are re-admitted with their ``completed`` app rows intact, so work that
was already journaled is never re-analyzed and never lands twice in
the run registry (the registry record is written exactly once, at the
job's terminal transition).

A corrupt, truncated, or foreign-schema entry is *skipped with a
warning* and tallied on ``self.skipped`` — a damaged journal degrades,
it never prevents the service from starting.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import List, Optional, Tuple

from repro.serve.jobs import ACTIVE_STATES, Job
from repro.store import atomic_write, read_entries


def default_journal_dir() -> pathlib.Path:
    """``$FRAGDROID_SERVE_DIR`` or ``~/.cache/fragdroid/serve``."""
    env = os.environ.get("FRAGDROID_SERVE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "fragdroid" / "serve"


class JobJournal:
    """One atomically-written JSON snapshot per job."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = (pathlib.Path(directory)
                          if directory is not None
                          else default_journal_dir())
        #: (file name, reason) of entries skipped by the last jobs().
        self.skipped: List[Tuple[str, str]] = []

    def path_of(self, job_id: str) -> pathlib.Path:
        return self.directory / f"{job_id}.json"

    # -- writing -------------------------------------------------------------

    def write(self, job: Job) -> None:
        """Persist the job's current snapshot (atomic replace)."""
        text = json.dumps(job.to_dict(), indent=2, sort_keys=True) + "\n"
        atomic_write(self.path_of(job.job_id), text)

    def remove(self, job_id: str) -> bool:
        try:
            self.path_of(job_id).unlink()
            return True
        except OSError:
            return False

    # -- reading -------------------------------------------------------------

    def load(self, job_id: str) -> Job:
        data = json.loads(self.path_of(job_id).read_text(encoding="utf-8"))
        return Job.from_dict(data)

    def jobs(self) -> List[Job]:
        """Every readable journal entry, oldest submission first;
        unreadable entries are skipped with a warning."""
        jobs, self.skipped = read_entries(self.directory, Job.from_dict,
                                          "job journal entry")
        jobs.sort(key=lambda j: (j.created, j.job_id))
        return jobs

    def in_flight(self) -> List[Job]:
        """Journaled jobs a restarted service must resume."""
        return [job for job in self.jobs() if job.state in ACTIVE_STATES]
