"""Anti-entropy for replicated shard stores: scrub and repair.

The replication contract (see :mod:`repro.shard.partition`) pins every
replica of a shard to the same per-column sha256 digests, recorded in
``partition.json``.  Because a cascade-index generation is immutable,
"replica health" is a pure function of bytes on disk:

``scrub``
    Hash every column file of every replica and compare against the
    map-pinned digests.  A replica whose header is unreadable, whose
    ``content_digest`` disagrees with the map, or whose columns are
    missing/divergent is reported with a per-column problem list — the
    router uses this to quarantine it out of rotation.

``repair``
    Rebuild one replica directory from a scrub-verified healthy peer:
    stage every column into ``<dir>.staging`` (hard-linked where the
    filesystem allows), re-hash the staged files against the pinned
    digests, and only then swap the staging directory into place with
    atomic renames.  A crash at any point leaves either the old directory
    or the fully-verified new one — never a half-copied replica that
    parses.  Workers mmap their columns, so a serving worker keeps its old
    (possibly healthy in-memory) inodes alive across the swap; the router
    decides afterwards whether the worker needs a reload.

Fault sites ``repair.copy`` (per staged column) and ``repair.commit``
(after verification, before the rename) let the chaos gates prove both
properties.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.runtime.faults import maybe_fire
from repro.store.errors import StoreError
from repro.store.fingerprint import digest_file
from repro.store.format import HEADER_NAME, read_header

from .partition import PartitionMap, ShardEntry

PathLike = Union[str, os.PathLike]


class RepairError(RuntimeError):
    """A replica rebuild could not be completed safely.

    Raised when no healthy peer exists to copy from, when a staged column
    fails its digest check (the peer rotted between scrub and copy), or
    when the target coordinates are invalid.  The target directory is
    never touched before every staged byte has verified, so a failed
    repair leaves the fleet exactly as it was.
    """


@dataclass(frozen=True)
class ReplicaScrub:
    """Byte-level verdict on one replica directory."""

    shard_id: int
    replica: int
    dir: str
    problems: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class FleetScrub:
    """Scrub verdicts for every replica of every shard."""

    replicas: tuple[ReplicaScrub, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.replicas)

    @property
    def divergent(self) -> tuple[ReplicaScrub, ...]:
        return tuple(r for r in self.replicas if not r.ok)

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "replicas": [
                {
                    "shard_id": r.shard_id,
                    "replica": r.replica,
                    "dir": r.dir,
                    "ok": r.ok,
                    "problems": list(r.problems),
                }
                for r in self.replicas
            ],
        }


@dataclass(frozen=True)
class RepairReport:
    """What a completed replica rebuild did."""

    shard_id: int
    replica: int
    source_replica: int
    dir: str
    columns: tuple[str, ...]

    def to_payload(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "replica": self.replica,
            "source_replica": self.source_replica,
            "dir": self.dir,
            "columns": list(self.columns),
        }


def scrub_replica(
    fleet_dir: PathLike, entry: ShardEntry, replica: int
) -> ReplicaScrub:
    """Hash-verify one replica against the partition map's byte contract."""
    root = Path(os.fspath(fleet_dir))
    dir_name = entry.replica_dirs[replica]
    store_dir = root / dir_name
    problems: list[str] = []
    if not store_dir.is_dir():
        return ReplicaScrub(
            shard_id=entry.shard_id,
            replica=replica,
            dir=dir_name,
            problems=("missing: replica directory does not exist",),
        )
    try:
        header = read_header(store_dir)
    except StoreError as exc:
        problems.append(f"header: {exc}")
        header = None
    if header is not None and header.content_digest != entry.content_digest:
        problems.append(
            f"header: content digest {header.content_digest} does not match "
            f"partition map pin {entry.content_digest}"
        )
    digests = entry.column_digest_map
    for name in sorted(digests):
        want = digests[name]
        column = store_dir / f"{name}.npy"
        if not column.is_file():
            problems.append(f"{name}: column file is missing")
            continue
        actual = digest_file(column)
        if actual != want:
            problems.append(
                f"{name}: sha256 {actual} does not match pinned {want}"
            )
    return ReplicaScrub(
        shard_id=entry.shard_id,
        replica=replica,
        dir=dir_name,
        problems=tuple(problems),
    )


def scrub_fleet(fleet_dir: PathLike, partition: PartitionMap) -> FleetScrub:
    """Scrub every replica of every shard, in deterministic order."""
    verdicts = [
        scrub_replica(fleet_dir, entry, replica)
        for entry in partition.shards
        for replica in range(len(entry.replica_dirs))
    ]
    return FleetScrub(replicas=tuple(verdicts))


def repair_replica(
    fleet_dir: PathLike,
    partition: PartitionMap,
    shard_id: int,
    replica: int,
    *,
    source_replica: Optional[int] = None,
) -> RepairReport:
    """Rebuild replica ``replica`` of ``shard_id`` from a healthy peer.

    Verify-then-atomic-rename: every column is staged and re-hashed
    against the pinned digests before the target directory is replaced.
    Raises :class:`RepairError` if no scrub-clean peer exists or staging
    fails verification; the target is untouched in every failure case.
    """
    if not 0 <= shard_id < partition.num_shards:
        raise RepairError(
            f"shard {shard_id} out of range (fleet has "
            f"{partition.num_shards} shards)"
        )
    entry = partition.shards[shard_id]
    num_replicas = len(entry.replica_dirs)
    if not 0 <= replica < num_replicas:
        raise RepairError(
            f"replica {replica} out of range (shard {shard_id} has "
            f"{num_replicas} replicas)"
        )
    root = Path(os.fspath(fleet_dir))

    if source_replica is not None:
        if not 0 <= source_replica < num_replicas or source_replica == replica:
            raise RepairError(
                f"source replica {source_replica} is not a peer of "
                f"shard {shard_id} replica {replica}"
            )
        candidates = [source_replica]
    else:
        candidates = [r for r in range(num_replicas) if r != replica]
    if not candidates:
        raise RepairError(
            f"shard {shard_id} has no peer replicas to repair from "
            "(re-partition with --replicas >= 2)"
        )
    source = None
    for candidate in candidates:
        if scrub_replica(root, entry, candidate).ok:
            source = candidate
            break
    if source is None:
        raise RepairError(
            f"shard {shard_id} replica {replica}: no healthy peer replica "
            f"(checked {candidates}); rebuild the shard with "
            "`repro index shard` instead"
        )

    src_dir = root / entry.replica_dirs[source]
    target = root / entry.replica_dirs[replica]
    digests = entry.column_digest_map
    staging = root / (entry.replica_dirs[replica] + ".staging")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        for name in sorted(digests):
            maybe_fire("repair.copy", key=name)
            src_file = src_dir / f"{name}.npy"
            dst_file = staging / f"{name}.npy"
            try:
                os.link(src_file, dst_file)
            except OSError:
                shutil.copy2(src_file, dst_file)
            actual = digest_file(dst_file)
            if actual != digests[name]:
                raise RepairError(
                    f"staged column {name} hashed {actual}, pinned digest is "
                    f"{digests[name]} — peer replica {source} diverged "
                    "mid-repair, aborting without touching the target"
                )
        shutil.copy2(src_dir / HEADER_NAME, staging / HEADER_NAME)
        staged_header = read_header(staging)
        if staged_header.content_digest != entry.content_digest:
            raise RepairError(
                f"staged header content digest {staged_header.content_digest} "
                f"does not match partition map pin {entry.content_digest}"
            )
        maybe_fire("repair.commit", key=f"{shard_id}/{replica}")
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise

    discard = root / (entry.replica_dirs[replica] + ".discard")
    if discard.exists():
        shutil.rmtree(discard)
    if target.exists():
        os.rename(target, discard)
    os.rename(staging, target)
    shutil.rmtree(discard, ignore_errors=True)
    return RepairReport(
        shard_id=shard_id,
        replica=replica,
        source_replica=source,
        dir=entry.replica_dirs[replica],
        columns=tuple(sorted(digests)),
    )
