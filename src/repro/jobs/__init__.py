"""Durable, crash-resumable seed-selection jobs over a served index.

The subsystem in one breath: a :class:`~repro.jobs.manager.JobManager`
admits validated :class:`~repro.jobs.spec.JobSpec` submissions into
per-job :class:`~repro.jobs.journal.JobJournal` directories, schedules
them onto supervised workers (:mod:`repro.jobs.worker`) that drive the
stepwise selection engines of :mod:`repro.influence` (wired to a spec by
:mod:`repro.jobs.select`) one journalled greedy iteration at a time, and
— because each selection is a pure function of ``(spec, index)`` with
deterministic node-id tie-breaks (the resume purity contract of
:mod:`repro.influence.maxcover`) — resumes any crashed job
bit-identically from its last committed step.
HTTP wiring lives in :mod:`repro.serve.handlers`; client-visible errors
in :mod:`repro.jobs.errors`.
"""

from repro.jobs.errors import (
    JobConflict,
    JobJournalCorrupt,
    JobNotDone,
    JobNotFound,
    JobQueueFull,
)
from repro.jobs.journal import JobJournal, committed_steps, summarize
from repro.jobs.select import build_selection, run_to_completion
from repro.jobs.spec import MODELS, JobSpec


def __getattr__(name: str):
    # JobManager is loaded lazily so that ``python -m repro.jobs.worker``
    # does not pre-import the worker module through the manager before
    # runpy executes it as __main__ (which trips a RuntimeWarning).
    if name == "JobManager":
        from repro.jobs.manager import JobManager

        return JobManager
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "JobConflict",
    "JobJournal",
    "JobJournalCorrupt",
    "JobManager",
    "JobNotDone",
    "JobNotFound",
    "JobQueueFull",
    "JobSpec",
    "MODELS",
    "build_selection",
    "committed_steps",
    "run_to_completion",
    "summarize",
]
