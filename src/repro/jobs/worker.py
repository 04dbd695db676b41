"""The job worker: runs one attempt of one seed-selection job.

Runnable two ways with identical semantics:

* **process mode** — ``python -m repro.jobs.worker <job_dir> --index
  <path> --attempt N``: a supervised subprocess the manager respawns on
  crash; this is the mode the chaos gate SIGKILLs.  Exit codes:
  ``0`` (a terminal record was journalled), ``3`` (retryable failure —
  nothing terminal journalled, the manager repairs the journal and may
  respawn), ``4`` (permanent refusal: corrupt journal or index
  mismatch), ``87`` (injected crash).
* **thread mode** — the manager calls :func:`run_attempt` directly in a
  runner thread (unit tests, single-process deployments).

The attempt protocol, same both ways: recover the journal (truncating a
torn tail), journal an ``attempt`` record, rebuild the selection from the
committed ``step`` prefix (the resume purity contract of
:mod:`repro.influence.maxcover` — bit-identical to an uninterrupted run),
then loop: honour cancellation (the ``cancel`` marker
file, checked at step boundaries) and the wall-clock deadline, commit one
``step`` record per iteration, and finish with a ``result`` record.
Fault sites: ``jobs.step`` fires before each iteration, ``jobs.result``
before the result commit, ``jobs.commit`` inside every journal append —
all keyed with the *explicit* attempt number so plans target one attempt,
not every respawn.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Callable, Union

from repro.cascades.index import CascadeIndex
from repro.jobs.errors import JobJournalCorrupt
from repro.jobs.journal import JobJournal, committed_steps
from repro.jobs.select import build_selection
from repro.jobs.spec import JobSpec
from repro.runtime.faults import maybe_fire
from repro.store.provenance import IndexProvenance

#: Exit status of a retryable worker failure (manager may respawn).
RETRYABLE_EXIT = 3

#: Exit status of a permanent refusal (manager must not respawn).
PERMANENT_EXIT = 4

#: Marker file whose existence requests cooperative cancellation.
CANCEL_MARKER = "cancel"

IndexLike = Union[CascadeIndex, str, os.PathLike]


class PermanentJobError(Exception):
    """The job can never succeed as journalled (e.g. index mismatch)."""


def cancel_requested(job_dir: str | os.PathLike) -> bool:
    return (Path(os.fspath(job_dir)) / CANCEL_MARKER).is_file()


def request_cancel(job_dir: str | os.PathLike) -> None:
    """Atomically drop the cancellation marker (idempotent)."""
    marker = Path(os.fspath(job_dir)) / CANCEL_MARKER
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.touch()


def run_attempt(
    job_dir: str | os.PathLike,
    index: IndexLike,
    attempt: int,
    *,
    clock: Callable[[], float] = time.time,
) -> str:
    """Run one attempt to completion; returns the terminal outcome.

    Returns ``"done"``, ``"cancelled"`` or ``"failed"`` after journalling
    the matching terminal record.  Raises :class:`PermanentJobError` /
    :class:`~repro.jobs.errors.JobJournalCorrupt` for permanent refusals
    and lets any other exception propagate as a *retryable* failure — in
    that case nothing terminal was journalled (the journal may even hold
    a torn tail) and the caller owns repair and respawn policy.
    """
    journal = JobJournal(job_dir)
    records = journal.recover()
    submit = next((r for r in records if r.get("type") == "submit"), None)
    if submit is None:
        raise PermanentJobError(f"{journal.path} has no submit record")
    spec = JobSpec.from_mapping(submit["spec"])
    job_id = str(submit.get("job_id", Path(os.fspath(job_dir)).name))
    submitted_at = float(submit.get("submitted_at", clock()))

    if not isinstance(index, CascadeIndex):
        index = CascadeIndex.load(index)
    recorded_digest = submit.get("index_digest")
    if recorded_digest is not None:
        live_digest = IndexProvenance.from_index(index).content_digest
        if live_digest != recorded_digest:
            raise PermanentJobError(
                f"job {job_id} was submitted against index "
                f"{recorded_digest}, the worker loaded {live_digest} — "
                "refusing to resume across different indexes"
            )

    journal.append(
        {"type": "attempt", "attempt": int(attempt), "at": clock()},
        attempt=attempt,
    )

    def over_deadline() -> bool:
        return (
            spec.deadline is not None
            and clock() - submitted_at > spec.deadline
        )

    selection = build_selection(spec, index)
    selection.resume(committed_steps(records))

    while True:
        if cancel_requested(job_dir):
            journal.append(
                {
                    "type": "cancelled",
                    "reason": "cancellation requested",
                    "at": clock(),
                },
                attempt=attempt,
            )
            return "cancelled"
        if over_deadline():
            journal.append(
                {
                    "type": "failed",
                    "retryable": False,
                    "reason": (
                        f"deadline of {spec.deadline}s exceeded "
                        f"(submitted at {submitted_at})"
                    ),
                    "at": clock(),
                },
                attempt=attempt,
            )
            return "failed"
        maybe_fire("jobs.step", key=job_id, attempt=attempt)
        step = selection.step()
        if step is None:
            break
        journal.append(
            {"type": "step", **step, "at": clock()}, attempt=attempt
        )

    maybe_fire("jobs.result", key=job_id, attempt=attempt)
    journal.append(
        {"type": "result", **selection.finalize(), "at": clock()},
        attempt=attempt,
    )
    return "done"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs.worker",
        description="Run one attempt of a journalled seed-selection job.",
    )
    parser.add_argument("job_dir", help="job directory holding journal.jsonl")
    parser.add_argument(
        "--index", required=True, help="index store path the job runs over"
    )
    parser.add_argument(
        "--attempt", type=int, default=0, help="attempt number (for resume)"
    )
    args = parser.parse_args(argv)
    try:
        outcome = run_attempt(args.job_dir, args.index, args.attempt)
    except (PermanentJobError, JobJournalCorrupt) as exc:
        print(f"[jobs] permanent failure: {exc}", file=sys.stderr)
        return PERMANENT_EXIT
    except Exception as exc:  # noqa: BLE001 - retryable by contract
        print(
            f"[jobs] attempt {args.attempt} failed "
            f"({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        return RETRYABLE_EXIT
    print(f"[jobs] attempt {args.attempt}: {outcome}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
