"""Self-checksummed append-only journal of one seed-selection job.

Each job owns a directory with a single ``journal.jsonl``: one JSON record
per line, every line carrying its own content digest (the same checksum
discipline as the store header, :mod:`repro.store.header`).  The journal is the job's
*only* source of truth — state is never held anywhere a SIGKILL can lose
it.  The record sequence is the state machine:

``submit``
    the validated spec, submission wall-time, idempotency key and the
    served index's content digest (resume refuses to mix indexes);
``attempt``
    a worker (re)started — carries the attempt number;
``step``
    one committed greedy iteration: ``(iteration, node, gain, spent)``.
    The resume purity contract (:mod:`repro.influence.maxcover`) makes
    this the checkpoint: a selection restarted from any committed step
    prefix re-derives the identical remaining sequence;
``result`` / ``cancelled`` / ``failed``
    terminal records (``failed`` carries ``retryable``; a retryable
    failure may be followed by another ``attempt``).

Crash-consistency contract: a crash (or an injected ``jobs.commit`` torn
write) may leave *at most* one truncated line at the tail, which
:meth:`JobJournal.recover` silently discards and truncates away.  A
checksum failure anywhere else — or garbage *followed by* valid records —
means the journal cannot be trusted and raises
:class:`~repro.jobs.errors.JobJournalCorrupt` instead of resuming wrongly.

Single-writer discipline: exactly one process appends at a time — the
worker while it is alive, the manager only after the worker is dead (and
after :meth:`recover`, so a post-mortem record never concatenates onto a
torn half-line).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from repro.jobs.errors import JobJournalCorrupt
from repro.runtime.errors import InjectedFault
from repro.runtime.faults import CRASH_EXIT_CODE, take_fault
from repro.store.fingerprint import digest_text

JOURNAL_NAME = "journal.jsonl"

#: Injection site fired on every journal append (``torn`` persists half
#: the encoded line — the canonical crash-mid-commit artefact).
FAULT_SITE_COMMIT = "jobs.commit"

#: Terminal record types (nothing but a respawned ``attempt`` may follow
#: a retryable ``failed``; nothing at all follows the other three).
TERMINAL_TYPES = ("result", "cancelled", "failed")


def encode_record(record: dict) -> str:
    """One journal line: canonical JSON with an embedded self-checksum."""
    payload = dict(record)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = digest_text(body)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def decode_line(line: str) -> dict | None:
    """Parse and checksum-validate one line; ``None`` if it is invalid."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    recorded = payload.pop("checksum", None)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if recorded is None or digest_text(body) != recorded:
        return None
    return payload


class JobJournal:
    """The append-only record stream of one job directory."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self._root = Path(os.fspath(directory))

    @property
    def directory(self) -> Path:
        return self._root

    @property
    def path(self) -> Path:
        return self._root / JOURNAL_NAME

    def exists(self) -> bool:
        return self.path.is_file()

    # -- reading -------------------------------------------------------------

    def _scan(self) -> tuple[list[dict], int, bool]:
        """Parse the journal: ``(records, valid_byte_length, torn_tail)``.

        ``valid_byte_length`` is where the durable prefix ends — the
        truncation point when a torn tail follows it.  Raises
        :class:`JobJournalCorrupt` on any invalid line that is *not* the
        final fragment.
        """
        path = self.path
        if not path.is_file():
            return [], 0, False
        data = path.read_bytes()
        records: list[dict] = []
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                # Unterminated tail: the classic torn write.  Even a fully
                # valid record missing only its newline is a torn commit —
                # the writer died mid-line, so the commit never completed.
                return records, offset, True
            line = data[offset : newline].decode("utf-8", errors="replace")
            record = decode_line(line)
            if record is None:
                if newline == len(data) - 1:
                    # Invalid but newline-terminated final line: treat as
                    # a torn tail only if it cannot be parsed at all —
                    # a *complete* JSON record failing its checksum is
                    # corruption, not tearing.
                    try:
                        parsed = json.loads(line)
                    except json.JSONDecodeError:
                        return records, offset, True
                    raise JobJournalCorrupt(
                        f"{path}: final record fails its self-checksum "
                        f"({parsed if isinstance(parsed, dict) else line!r})"
                    )
                raise JobJournalCorrupt(
                    f"{path}: record at byte {offset} is invalid but is "
                    "followed by further records — the journal was "
                    "corrupted, refusing to resume from it"
                )
            records.append(record)
            offset = newline + 1
        return records, offset, False

    def replay(self) -> list[dict]:
        """Read-only tolerant read: the durable records, torn tail dropped.

        Safe to call concurrently with a live writer (status polling of a
        running job): the scan only trusts checksummed complete lines.
        """
        records, _, _ = self._scan()
        return records

    def recover(self) -> list[dict]:
        """Repair the journal in place and return its durable records.

        Truncates a torn tail so the next append starts on a clean line
        boundary.  Must be called by whoever takes over writing (a
        respawned worker, or the manager post-mortem).
        """
        records, valid_length, torn = self._scan()
        if torn:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_length)
        return records

    # -- writing -------------------------------------------------------------

    def append(self, record: dict, *, attempt: int | None = None) -> None:
        """Durably commit one record (fault site ``jobs.commit``).

        ``attempt`` is the worker attempt number and is passed *explicitly*
        to the injector: occurrence counters are per-process, so a torn
        plan with ``attempts=(0,)`` keyed on a counter would re-fire in
        every respawned worker — an infinite crash loop.  With the real
        attempt number the tear fires exactly once.
        """
        self._root.mkdir(parents=True, exist_ok=True)
        line = encode_record(record)
        spec = take_fault(
            FAULT_SITE_COMMIT, key=str(record.get("type")), attempt=attempt
        )
        if spec is not None and spec.kind == "torn":
            with open(self.path, "ab") as handle:
                handle.write(line.encode()[: len(line) // 2])
                handle.flush()
                os.fsync(handle.fileno())
            raise InjectedFault(
                f"injected torn journal commit at {FAULT_SITE_COMMIT!r} "
                f"(type={record.get('type')!r}, attempt={attempt})"
            )
        if spec is not None:
            if spec.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFault(
                f"injected {spec.kind} at {FAULT_SITE_COMMIT!r} "
                f"(type={record.get('type')!r}, attempt={attempt})"
            )
        with open(self.path, "ab") as handle:
            handle.write(line.encode())
            handle.flush()
            os.fsync(handle.fileno())


# -- state derivation ---------------------------------------------------------


def committed_steps(records: Iterable[dict]) -> list[dict]:
    """The committed ``step`` records in iteration order (the checkpoint)."""
    steps = [r for r in records if r.get("type") == "step"]
    steps.sort(key=lambda r: int(r["iteration"]))
    return steps


def summarize(records: list[dict]) -> dict:
    """Collapse a record stream into the client-visible job status.

    Returns a mapping with ``state`` ∈ {queued, running, done, cancelled,
    failed-retryable, failed-permanent}, the committed step count, the
    attempt count, and — when terminal — the result or failure detail.
    """
    view: dict = {
        "state": "queued",
        "steps": 0,
        "attempts": 0,
        "spec": None,
        "submitted_at": None,
        "result": None,
        "error": None,
        "finished_at": None,
    }
    for record in records:
        kind = record.get("type")
        if kind == "submit":
            view["spec"] = record.get("spec")
            view["submitted_at"] = record.get("submitted_at")
            view["idempotency_key"] = record.get("idempotency_key")
            view["index_digest"] = record.get("index_digest")
        elif kind == "attempt":
            view["attempts"] = int(record.get("attempt", 0)) + 1
            view["state"] = "running"
            view["error"] = None
        elif kind == "step":
            view["steps"] = max(view["steps"], int(record["iteration"]) + 1)
        elif kind == "result":
            view["state"] = "done"
            view["result"] = {
                key: record[key]
                for key in ("seeds", "gains", "coverage", "spent", "estimate")
                if key in record
            }
            view["finished_at"] = record.get("at")
        elif kind == "cancelled":
            view["state"] = "cancelled"
            view["error"] = record.get("reason")
            view["finished_at"] = record.get("at")
        elif kind == "failed":
            retryable = bool(record.get("retryable"))
            view["state"] = "failed-retryable" if retryable else "failed-permanent"
            view["error"] = record.get("reason")
            if not retryable:
                view["finished_at"] = record.get("at")
    return view
