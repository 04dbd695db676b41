"""Read-time integrity verification for the columnar index store.

The store header records a SHA-256 per column (:class:`ArrayInfo.sha256`),
but until this module those digests were only consulted by an explicit
``verify="full"`` load — a bit flipped *after* open (or skipped by a
``fast`` open) was served as a silently-wrong sphere.  Two complementary
mechanisms close that gap:

:class:`ColumnIntegrity`
    A per-open guard for the lazy read path (``verify="lazy"``).  The
    first touch of each column streams its SHA-256 against the header
    manifest; after that first touch the guard is a lock-free set lookup,
    so the steady-state hot path pays nothing.  A failed column is
    *quarantined*: the first toucher gets :class:`CorruptColumnError`, and
    so does every later toucher — instantly, without re-hashing.  The
    serving layer maps this to an explicit ``500 store-corrupt`` and
    reports the quarantine set in ``/healthz`` and ``/metrics``.

:func:`scrub_store`
    An offline full scrub over every column (plus the self-checksummed
    header), producing a per-file report — the engine behind
    ``python -m repro index verify``.  Unlike
    :func:`repro.store.format.check_files` it does not stop at the first
    problem: an operator deciding whether to restore from backup wants
    the complete damage list.

Both cover every column the header lists, so a store's sphere family
(the ``family_*`` columns of :mod:`repro.store.family`) is checksummed,
quarantined and scrubbed exactly like the index columns it sits beside.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Union

from repro.runtime.locksan import make_lock
from repro.store.errors import CorruptColumnError, StoreFormatError
from repro.store.fingerprint import digest_file
from repro.store.header import IndexStoreHeader

PathLike = Union[str, os.PathLike]

HEADER_NAME = "header.json"


def _array_file(root: Path, name: str) -> Path:
    return root / f"{name}.npy"


class ColumnIntegrity:
    """First-touch checksum guard over one opened store generation.

    ``verify(name)`` is called by the lazy world factories just before a
    column's data is interpreted.  Outcomes:

    * column already verified → return immediately (set lookup, no lock);
    * column already quarantined → raise :class:`CorruptColumnError`
      immediately (set lookup, no hashing);
    * first touch → stream the file's SHA-256 (outside the guard lock, so
      health probes are never stalled behind a hash), then record the
      verdict for every later caller.

    The guard is bound to the *open*, not the path: a hot-swap reload
    builds a fresh guard for the candidate generation, so quarantine
    state never leaks across generations.
    """

    def __init__(
        self,
        root: PathLike,
        header: IndexStoreHeader,
        *,
        on_quarantine: Callable[[str], None] | None = None,
    ) -> None:
        self._root = Path(os.fspath(root))
        self._header = header
        self._on_quarantine = on_quarantine
        self._lock = make_lock("ColumnIntegrity._lock")
        self._verified: set[str] = set()  # guarded-by: _lock
        self._quarantined: dict[str, str] = {}  # guarded-by: _lock

    @property
    def root(self) -> Path:
        return self._root

    def mark_verified(self, names: Iterable[str]) -> None:
        """Record columns already verified by the caller (e.g. an eager
        full-hash pass at open) so first touch skips re-hashing them."""
        with self._lock:
            self._verified.update(names)

    def quarantined(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._quarantined))

    def verified(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._verified))

    def verify(self, *names: str) -> None:
        """Ensure every named column has a valid checksum, hashing on
        first touch; raise :class:`CorruptColumnError` for quarantined or
        newly-failing columns."""
        for name in names:
            # Unlocked fast path: set membership on an insert-only set
            # (a stale miss just falls through to the locked re-check).
            if name in self._verified:  # reprolint: disable=REP701
                continue
            self._verify_one(name)

    def _verify_one(self, name: str) -> None:
        with self._lock:
            if name in self._verified:
                return
            reason = self._quarantined.get(name)
        if reason is None:
            # First touch: stream the SHA-256 *outside* the guard lock —
            # hashing a multi-megabyte column under it would stall every
            # concurrent quarantined()/healthz call for the duration.
            # Concurrent first-touchers may hash the same column twice;
            # the verdict is deterministic, so last-writer-wins is fine.
            verdict = self._check(name)
            fresh = False
            with self._lock:
                if name in self._verified:
                    return
                reason = self._quarantined.get(name)
                if reason is None:
                    if verdict is None:
                        self._verified.add(name)
                        return
                    reason = verdict
                    self._quarantined[name] = reason
                    fresh = True
            if fresh and self._on_quarantine is not None:
                self._on_quarantine(name)
        raise CorruptColumnError(name, reason)

    def _check(self, name: str) -> str | None:
        """Hash one column against the manifest; return the failure reason
        (or None when clean)."""
        info = self._header.arrays.get(name)
        if info is None:
            return f"column {name} is not in the header manifest"
        file = _array_file(self._root, name)
        if not file.is_file():
            return f"{file.name} is missing from the store directory"
        size = int(file.stat().st_size)
        if size != info.num_bytes:
            return (
                f"{file.name} is {size} bytes, header records {info.num_bytes} "
                "— truncated or torn"
            )
        actual = digest_file(file)
        if actual != info.sha256:
            return (
                f"{file.name} fails its SHA-256 check "
                f"(header {info.sha256}, file {actual})"
            )
        return None


# -- offline scrub ------------------------------------------------------------


@dataclass(frozen=True)
class ColumnReport:
    """Verdict for one column of a scrubbed store."""

    name: str
    ok: bool
    num_bytes: int
    expected_sha256: str
    actual_sha256: str | None
    problem: str | None

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "num_bytes": self.num_bytes,
            "expected_sha256": self.expected_sha256,
            "actual_sha256": self.actual_sha256,
            "problem": self.problem,
        }


@dataclass(frozen=True)
class ScrubReport:
    """Full-store verification result: header verdict + one entry per column."""

    path: str
    columns: list[ColumnReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.columns)

    @property
    def corrupt(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if not c.ok)

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "ok": self.ok,
            "corrupt": list(self.corrupt),
            "columns": [c.to_dict() for c in self.columns],
        }


def scrub_store(path: PathLike) -> ScrubReport:
    """Stream-verify every column of the store at ``path``.

    Parses the (self-checksummed) header, then hashes each manifest column
    and compares size + SHA-256, continuing past failures to report the
    complete damage list.  An unreadable or checksum-failing header raises
    (:class:`~repro.store.errors.StoreFormatError` /
    :class:`~repro.store.errors.StoreIntegrityError`) — without a trusted
    manifest there is nothing meaningful to scrub against.
    """
    root = Path(os.fspath(path))
    header_path = root / HEADER_NAME
    if not root.is_dir() or not header_path.is_file():
        raise StoreFormatError(
            f"{root} is not a cascade-index store directory (no {HEADER_NAME})"
        )
    header = IndexStoreHeader.from_json(header_path.read_text())

    report = ScrubReport(path=str(root))
    for name in sorted(header.arrays):
        info = header.arrays[name]
        file = _array_file(root, name)
        actual: str | None = None
        problem: str | None = None
        if not file.is_file():
            problem = "missing"
        else:
            size = int(file.stat().st_size)
            if size != info.num_bytes:
                problem = f"size mismatch: {size} bytes on disk, {info.num_bytes} in header"
            else:
                actual = digest_file(file)
                if actual != info.sha256:
                    problem = "sha256 mismatch"
        report.columns.append(
            ColumnReport(
                name=name,
                ok=problem is None,
                num_bytes=info.num_bytes,
                expected_sha256=info.sha256,
                actual_sha256=actual,
                problem=problem,
            )
        )
    return report
