"""The durable job manager: admission, scheduling, supervision, recovery.

:class:`JobManager` owns a jobs directory (one subdirectory per job, each
holding a :class:`~repro.jobs.journal.JobJournal`) and drives every job
through the journalled state machine::

    queued -> running -> {done, cancelled, failed-retryable, failed-permanent}

The journal is the only durable state; everything in memory — the queue,
the running set, the idempotency map — is rebuilt from the journals at
startup, which is what makes the manager itself crash-safe: a SIGKILLed
server restarts, scans the jobs directory, re-enqueues every non-terminal
job and resumes it from its last committed step.

Supervision: each admitted job gets a runner thread that executes worker
attempts — in-process (``mode="thread"``) or as a supervised subprocess
(``mode="process"``, the deployment the chaos gate SIGKILLs).  A crashed
or retryably-failed attempt is journalled post-mortem and respawned with
bounded deterministic backoff (:func:`~repro.runtime.supervisor.
backoff_delay`) up to ``max_retries`` times; the respawned attempt resumes
from the committed step prefix, bit-identical to an uninterrupted run.
Cancellation and per-job deadlines always release the admission slot: the
running/queued gauges return to zero once every job settles.

Locking discipline: one condition (``_cond``) guards all mutable maps;
journal I/O, subprocess management and backoff sleeps happen strictly
outside it (REP703), with the single-writer rule — a journal is appended
by the worker while one is alive, by the manager only post-mortem, and
always after :meth:`~repro.jobs.journal.JobJournal.recover`.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

from repro.cascades.index import CascadeIndex
from repro.jobs.errors import (
    JobConflict,
    JobJournalCorrupt,
    JobNotDone,
    JobNotFound,
    JobQueueFull,
)
from repro.jobs.journal import JobJournal, summarize
from repro.jobs.spec import JobSpec, check_idempotency_key
from repro.jobs.worker import (
    PERMANENT_EXIT,
    PermanentJobError,
    cancel_requested,
    request_cancel,
    run_attempt,
)
from repro.runtime.faults import maybe_fire
from repro.runtime.locksan import make_condition
from repro.runtime.supervisor import SupervisorConfig, backoff_delay
from repro.serve.errors import ComputeUnavailable
from repro.serve.metrics import MetricsRegistry
from repro.store.provenance import IndexProvenance

PathLike = Union[str, os.PathLike]

#: Job ids the HTTP surface accepts (also blocks path traversal).
JOB_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: States from which a job never leaves.
TERMINAL_STATES = ("done", "cancelled", "failed-permanent")

#: Poll cadence of the subprocess supervision loop, seconds.
_POLL_SECONDS = 0.02


@dataclass
class _Running:
    """Book-keeping of one live runner."""

    thread: threading.Thread
    pid: int | None = None


class JobManager:
    """Durable seed-selection jobs over one served cascade index."""

    def __init__(
        self,
        index: CascadeIndex,
        jobs_dir: PathLike,
        *,
        index_path: PathLike | None = None,
        registry: MetricsRegistry | None = None,
        mode: str = "thread",
        max_running: int = 2,
        max_queued: int = 16,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        retry_after: float = 1.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        if mode == "process" and index_path is None:
            raise ValueError("mode='process' needs index_path for the workers")
        if max_running < 1:
            raise ValueError(f"max_running must be >= 1, got {max_running}")
        if max_queued < 1:
            raise ValueError(f"max_queued must be >= 1, got {max_queued}")
        self._index = index
        self._index_path = os.fspath(index_path) if index_path else None
        self._index_digest = IndexProvenance.from_index(index).content_digest
        self._root = Path(os.fspath(jobs_dir))
        self._root.mkdir(parents=True, exist_ok=True)
        self._mode = mode
        self._max_running = int(max_running)
        self._max_queued = int(max_queued)
        self._retry_after = float(retry_after)
        self._clock = clock
        self._supervisor = SupervisorConfig(
            max_chunk_retries=max_retries,
            backoff_base=backoff_base,
            backoff_max=backoff_max,
        )
        self._max_retries = int(max_retries)

        self._cond = make_condition("JobManager._cond")
        self._queue: list[str] = []  # guarded-by: _cond
        # Admitted ids whose submit record is still being journalled.
        self._submitting: set[str] = set()  # guarded-by: _cond
        self._running: dict[str, _Running] = {}  # guarded-by: _cond
        self._idempotency: dict[str, tuple[str, str]] = {}  # guarded-by: _cond
        self._next_number = 1  # guarded-by: _cond
        self._stop = threading.Event()

        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.jobs_total = reg.counter(
            "repro_jobs_total",
            "Seed-selection jobs by lifecycle event "
            "(submitted / done / cancelled / failed-permanent).",
        )
        self.jobs_running = reg.gauge(
            "repro_jobs_running", "Seed-selection jobs currently running."
        )
        self.jobs_queued = reg.gauge(
            "repro_jobs_queued", "Seed-selection jobs waiting for a slot."
        )
        self.job_step_seconds = reg.histogram(
            "repro_jobs_step_seconds",
            "Committed greedy-iteration durations of finished jobs.",
        )
        self.job_retries_total = reg.counter(
            "repro_jobs_retries_total",
            "Worker attempts respawned after a retryable failure or crash.",
        )

        self._recover_existing()
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="jobs-scheduler", daemon=True
        )
        self._scheduler.start()

    # -- introspection -------------------------------------------------------

    @property
    def jobs_dir(self) -> Path:
        return self._root

    @property
    def mode(self) -> str:
        return self._mode

    def healthz(self) -> dict:
        with self._cond:
            queued = len(self._queue)
            running = len(self._running)
        return {
            "mode": self._mode,
            "queued": queued,
            "running": running,
            "max_queued": self._max_queued,
            "max_running": self._max_running,
        }

    # -- paths ---------------------------------------------------------------

    def _job_dir(self, job_id: str) -> Path:
        if not isinstance(job_id, str) or not JOB_ID_PATTERN.match(job_id):
            raise JobNotFound(f"malformed job id {job_id!r}")
        return self._root / job_id

    # -- startup recovery ----------------------------------------------------

    def _recover_existing(self) -> None:
        """Rebuild queue + idempotency map from the journals on disk.

        All journal reads happen before the lock is taken (file I/O never
        runs under ``_cond``); the scan results are then applied to the
        guarded maps in one short critical section.  Non-terminal jobs
        (including ones journalled as *running* when the previous manager
        died) are re-enqueued — the worker resumes them from their
        committed step prefix.
        """
        keys: list[tuple[str, str, str]] = []  # (key, job_id, digest)
        pending: list[str] = []
        highest = 0
        for job_dir in sorted(p for p in self._root.iterdir() if p.is_dir()):
            job_id = job_dir.name
            if not JOB_ID_PATTERN.match(job_id):
                continue
            journal = JobJournal(job_dir)
            if not journal.exists():
                continue
            try:
                view = summarize(journal.replay())
            except JobJournalCorrupt:
                continue  # refused explicitly at status/result time
            if view["spec"] is not None:
                key = view.get("idempotency_key")
                if key:
                    digest = JobSpec.from_mapping(view["spec"]).digest()
                    keys.append((key, job_id, digest))
            match = re.match(r"^j(\d+)$", job_id)
            if match:
                highest = max(highest, int(match.group(1)) + 1)
            if view["state"] not in TERMINAL_STATES:
                pending.append(job_id)
        with self._cond:
            for key, job_id, digest in keys:
                self._idempotency[key] = (job_id, digest)
            self._next_number = max(self._next_number, highest)
            for job_id in pending:
                self._queue.append(job_id)
                self.jobs_queued.inc()

    # -- submission ----------------------------------------------------------

    def submit(self, payload: object) -> dict:
        """Validate, admit, journal and enqueue one job (``POST /jobs/infmax``).

        Idempotent: resubmitting with the same ``idempotency_key`` and an
        identical spec returns the original job; the same key with a
        *different* spec is refused with 409.
        """
        spec = JobSpec.from_payload(payload, self._index.num_nodes)
        key = check_idempotency_key(
            payload.get("idempotency_key") if isinstance(payload, dict) else None
        )
        digest = spec.digest()
        with self._cond:
            if self._stop.is_set():
                raise ComputeUnavailable("job manager is shutting down")
            deduplicated_id = None
            if key is not None and key in self._idempotency:
                known_id, known_digest = self._idempotency[key]
                if known_digest != digest:
                    raise JobConflict(
                        f"idempotency key {key!r} was already used by job "
                        f"{known_id} with a different spec"
                    )
                deduplicated_id = known_id
            if deduplicated_id is None:
                if len(self._queue) + len(self._submitting) >= self._max_queued:
                    raise JobQueueFull(
                        f"job queue full ({self._max_queued} waiting); retry "
                        "shortly",
                        retry_after=self._retry_after,
                    )
                job_id = f"j{self._next_number:06d}"
                self._next_number += 1
                self._submitting.add(job_id)
                if key is not None:
                    self._idempotency[key] = (job_id, digest)
        if deduplicated_id is not None:
            return self._status_payload(deduplicated_id, deduplicated=True)
        try:
            maybe_fire("jobs.submit", key=job_id)
            journal = JobJournal(self._root / job_id)
            journal.append(
                {
                    "type": "submit",
                    "job_id": job_id,
                    "spec": spec.to_payload(),
                    "submitted_at": self._clock(),
                    "idempotency_key": key,
                    "index_digest": self._index_digest,
                }
            )
        except Exception:
            with self._cond:
                self._submitting.discard(job_id)
                if key is not None:
                    self._idempotency.pop(key, None)
            raise
        # Enqueue only once the submit record is durable: the scheduler
        # drops an id whose journal has nothing to run.
        with self._cond:
            self._submitting.discard(job_id)
            self._queue.append(job_id)
            self.jobs_queued.inc()
            self._cond.notify_all()
        self.jobs_total.inc(state="submitted")
        return self._status_payload(job_id)

    # -- status / result / cancel / list -------------------------------------

    def _status_payload(self, job_id: str, deduplicated: bool = False) -> dict:
        job_dir = self._job_dir(job_id)
        with self._cond:
            queued = job_id in self._queue or job_id in self._submitting
            live = self._running.get(job_id)
            pid = live.pid if live is not None else None
        journal = JobJournal(job_dir)
        if not journal.exists():
            if queued:
                # Reserved but not yet journalled (submit in flight).
                return {"id": job_id, "state": "queued", "steps": 0}
            raise JobNotFound(f"no job {job_id!r}")
        view = summarize(journal.replay())
        spec = view.get("spec") or {}
        payload = {
            "id": job_id,
            "state": view["state"],
            "model": spec.get("model"),
            "k": spec.get("k"),
            "steps": view["steps"],
            "attempts": view["attempts"],
            "submitted_at": view["submitted_at"],
            "finished_at": view["finished_at"],
            "error": view["error"],
            "worker_pid": pid,
        }
        if deduplicated:
            payload["deduplicated"] = True
        # The journal may still say "running"/"failed-retryable" after a
        # manager restart; until a runner owns it again it is queued.
        if queued and payload["state"] in ("running", "failed-retryable"):
            payload["state"] = "queued"
        # Once a runner owns it, it is running, even before the attempt
        # record lands (a cancel in that window settles at the first step).
        if live is not None and payload["state"] == "queued":
            payload["state"] = "running"
        return payload

    def status(self, job_id: str) -> dict:
        """``GET /jobs/{id}``."""
        return self._status_payload(job_id)

    def result(self, job_id: str) -> dict:
        """``GET /jobs/{id}/result`` — only once the job is ``done``."""
        job_dir = self._job_dir(job_id)
        journal = JobJournal(job_dir)
        if not journal.exists():
            raise JobNotFound(f"no job {job_id!r}")
        view = summarize(journal.replay())
        if view["state"] != "done":
            raise JobNotDone(
                f"job {job_id} is {view['state']}, not done"
                + (f" ({view['error']})" if view["error"] else "")
            )
        return {"id": job_id, "state": "done", "result": view["result"]}

    def cancel(self, job_id: str) -> dict:
        """``POST /jobs/{id}/cancel`` — cooperative, idempotent.

        A queued job is cancelled immediately (the manager is the journal
        writer while no worker exists); a running one gets the marker file
        and settles at its next step boundary.  Either way its admission
        slot is released.
        """
        job_dir = self._job_dir(job_id)
        journal = JobJournal(job_dir)
        with self._cond:
            was_queued = job_id in self._queue
            if was_queued:
                self._queue.remove(job_id)
                self.jobs_queued.dec()
        if not journal.exists():
            raise JobNotFound(f"no job {job_id!r}")
        if was_queued:
            self._append_post_mortem(
                journal,
                {
                    "type": "cancelled",
                    "reason": "cancelled while queued",
                    "at": self._clock(),
                },
            )
            self._settle_metrics(journal)
        else:
            request_cancel(job_dir)
        return self._status_payload(job_id)

    def list_jobs(self) -> dict:
        """``GET /jobs`` — id, state and progress of every known job."""
        jobs = []
        for job_dir in sorted(p for p in self._root.iterdir() if p.is_dir()):
            if not JOB_ID_PATTERN.match(job_dir.name):
                continue
            journal = JobJournal(job_dir)
            if not journal.exists():
                continue
            try:
                view = summarize(journal.replay())
            except JobJournalCorrupt:
                jobs.append(
                    {"id": job_dir.name, "state": "corrupt", "steps": 0}
                )
                continue
            spec = view.get("spec") or {}
            jobs.append(
                {
                    "id": job_dir.name,
                    "state": view["state"],
                    "model": spec.get("model"),
                    "steps": view["steps"],
                }
            )
        return {"count": len(jobs), "jobs": jobs}

    # -- scheduling ----------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stop.is_set() and not (
                    self._queue and len(self._running) < self._max_running
                ):
                    self._cond.wait(timeout=0.5)
                if self._stop.is_set():
                    return
                job_id = self._queue.pop(0)
                self.jobs_queued.dec()
                runner = threading.Thread(
                    target=self._run_job,
                    args=(job_id,),
                    name=f"job-runner-{job_id}",
                    daemon=True,
                )
                self._running[job_id] = _Running(thread=runner)
                self.jobs_running.inc()
            runner.start()

    def _run_job(self, job_id: str) -> None:
        try:
            self._drive(job_id)
        finally:
            with self._cond:
                self._running.pop(job_id, None)
                self.jobs_running.dec()
                self._cond.notify_all()

    def _append_post_mortem(self, journal: JobJournal, record: dict) -> None:
        """Manager-side append: repair the tail first, never double-settle.

        Only called when no worker is alive for this journal (the single-
        writer rule); a terminal record that beat us (e.g. the worker
        finished in the instant before a deadline kill) wins.
        """
        records = journal.recover()
        if summarize(records)["state"] in TERMINAL_STATES:
            return
        journal.append(record)

    def _settle_metrics(self, journal: JobJournal) -> None:
        records = journal.replay()
        view = summarize(records)
        if view["state"] not in TERMINAL_STATES:
            return
        self.jobs_total.inc(state=view["state"])
        previous_at = view["submitted_at"]
        for record in records:
            at = record.get("at")
            if record.get("type") == "step" and at is not None:
                if previous_at is not None:
                    self.job_step_seconds.observe(max(0.0, at - previous_at))
            if at is not None:
                previous_at = at

    def _drive(self, job_id: str) -> None:
        """Run worker attempts for one job until it settles (or we stop)."""
        job_dir = self._root / job_id
        journal = JobJournal(job_dir)
        records = journal.recover()
        view = summarize(records)
        if view["state"] in TERMINAL_STATES:
            return
        if view["spec"] is None:
            return  # journal has no submit record; nothing to run
        spec = JobSpec.from_mapping(view["spec"])
        submitted_at = view["submitted_at"]
        attempt = view["attempts"]
        failures = 0
        while not self._stop.is_set():
            if cancel_requested(job_dir):
                self._append_post_mortem(
                    journal,
                    {
                        "type": "cancelled",
                        "reason": "cancellation requested",
                        "at": self._clock(),
                    },
                )
                break
            outcome, reason = self._run_one_attempt(
                job_id, job_dir, journal, spec, submitted_at, attempt
            )
            attempt += 1
            if outcome == "stopped":
                return  # journal stays non-terminal: resumable on restart
            if outcome == "terminal":
                break
            failures += 1
            self.job_retries_total.inc()
            if failures > self._max_retries:
                self._append_post_mortem(
                    journal,
                    {
                        "type": "failed",
                        "retryable": False,
                        "reason": (
                            f"gave up after {failures} failed attempts "
                            f"(last: {reason})"
                        ),
                        "at": self._clock(),
                    },
                )
                break
            self._append_post_mortem(
                journal,
                {
                    "type": "failed",
                    "retryable": True,
                    "reason": str(reason),
                    "at": self._clock(),
                },
            )
            time.sleep(backoff_delay(self._supervisor, failures))
        self._settle_metrics(journal)

    def _run_one_attempt(
        self,
        job_id: str,
        job_dir: Path,
        journal: JobJournal,
        spec: JobSpec,
        submitted_at: float | None,
        attempt: int,
    ) -> tuple[str, str | None]:
        """One worker attempt; returns ``(outcome, reason)`` with outcome in
        ``terminal`` / ``retry`` / ``stopped``."""
        if self._mode == "thread":
            try:
                run_attempt(job_dir, self._index, attempt, clock=self._clock)
                return "terminal", None
            except (PermanentJobError, JobJournalCorrupt) as exc:
                self._append_post_mortem(
                    journal,
                    {
                        "type": "failed",
                        "retryable": False,
                        "reason": str(exc),
                        "at": self._clock(),
                    },
                )
                return "terminal", None
            except Exception as exc:
                return "retry", f"{type(exc).__name__}: {exc}"

        argv = [
            sys.executable,
            "-m",
            "repro.jobs.worker",
            str(job_dir),
            "--index",
            str(self._index_path),
            "--attempt",
            str(attempt),
        ]
        proc = subprocess.Popen(argv)
        with self._cond:
            live = self._running.get(job_id)
            if live is not None:
                live.pid = proc.pid
        try:
            while True:
                returncode = proc.poll()
                if returncode is not None:
                    break
                if self._stop.is_set():
                    proc.terminate()
                    proc.wait(timeout=5.0)
                    return "stopped", None
                if (
                    spec.deadline is not None
                    and submitted_at is not None
                    and self._clock() - submitted_at > spec.deadline + 1.0
                ):
                    # The worker checks its deadline at step boundaries;
                    # a worker stuck *inside* a step gets killed here.
                    proc.kill()
                    proc.wait(timeout=5.0)
                    self._append_post_mortem(
                        journal,
                        {
                            "type": "failed",
                            "retryable": False,
                            "reason": (
                                f"deadline of {spec.deadline}s exceeded "
                                "(worker killed mid-step)"
                            ),
                            "at": self._clock(),
                        },
                    )
                    return "terminal", None
                time.sleep(_POLL_SECONDS)
        finally:
            with self._cond:
                live = self._running.get(job_id)
                if live is not None:
                    live.pid = None
        if returncode == 0:
            return "terminal", None
        if returncode == PERMANENT_EXIT:
            self._append_post_mortem(
                journal,
                {
                    "type": "failed",
                    "retryable": False,
                    "reason": f"worker refused permanently (exit {returncode})",
                    "at": self._clock(),
                },
            )
            return "terminal", None
        return "retry", f"worker exited with status {returncode}"

    # -- shutdown ------------------------------------------------------------

    def stop(self, timeout: float = 10.0) -> None:
        """Stop scheduling, terminate live workers, leave journals resumable."""
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
            runners = [r.thread for r in self._running.values()]
        self._scheduler.join(timeout=timeout)
        for thread in runners:
            thread.join(timeout=timeout)
