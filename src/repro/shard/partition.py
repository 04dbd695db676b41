"""Split one cascade-index store into per-shard stores + a routing map.

``partition_store`` takes an existing store directory and produces a
*fleet directory*::

    fleet/
      partition.json      <- checksummed routing map (this module)
      shard-00.cidx/      <- replica 0 of shard 0
      shard-00.r1.cidx/   <- replica 1 of shard 0 (``--replicas 2``)
      shard-01.cidx/
      ...

The split is by node range: shard ``s`` *owns* the contiguous node range
``[lo_s, hi_s)`` with ``lo_s = floor(s * n / N)`` — a pure function of
``(n, N)``, so the router and any client computing the map independently
agree.  A sphere or cascade query for an owned node still needs the full
graph and every sampled world (a cascade can reach any node), so each
shard directory carries the complete column set — hard-linked from the
source where the filesystem allows, copied otherwise.  What is
partitioned is *responsibility*: each worker's cache, admission slots,
compute load and quarantine blast-radius cover only its range.  Because
``append_worlds`` and reloads replace columns via ``os.replace`` (new
inode), mutating one shard never leaks into its siblings despite the
shared bytes.

Replication (``replicas=R``) materialises each shard ``R`` times.  Every
replica of a shard is pinned to the *same* per-column sha256 digests,
recorded in the map itself: the cascade index is
immutable per generation, so two replicas of a shard are byte-identical
by contract, any replica can serve any request for the range, and
anti-entropy (``repro shard scrub`` / ``repair``) reduces to comparing
file hashes against the map.  Replica dirs share hard-linked column
inodes where the filesystem allows — divergence in practice means a
column was *replaced* (new inode) or the directory lost, which is
exactly what scrub detects and repair rebuilds from a healthy peer.

Every shard directory is built in a ``*.staging`` sibling and renamed
into place, and ``partition.json`` is written last (write + ``os.replace``)
— a crash mid-partition leaves no fleet directory that parses.  The map
carries a self-checksum in the style of the store header, so a corrupted
or hand-edited map is refused before any request is routed by it.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.store.errors import StoreFormatError, StoreIntegrityError
from repro.store.fingerprint import digest_text
from repro.store.format import HEADER_NAME, read_header
from repro.store.header import IndexStoreHeader

PathLike = Union[str, os.PathLike]

PARTITION_NAME = "partition.json"
PARTITION_MAGIC = "repro-partition-map"
#: Version 2 added ``replicas`` / per-entry ``replica_dirs`` +
#: ``column_digests``; it is the only version read.
PARTITION_VERSION = 2
#: The one split the map records (shards own contiguous node ranges).
PARTITION_MODE = "node-range"


def shard_dir_name(shard_id: int) -> str:
    return f"shard-{shard_id:02d}.cidx"


def replica_dir_name(shard_id: int, replica: int) -> str:
    """Directory name of one replica; replica 0 keeps the plain shard name."""
    if replica == 0:
        return shard_dir_name(shard_id)
    return f"shard-{shard_id:02d}.r{replica}.cidx"


def shard_ranges(total: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ranges: shard ``s`` gets ``[s*t//N, (s+1)*t//N)``.

    Deterministic in ``(total, num_shards)`` alone — the routing contract
    depends on every party computing identical boundaries.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > total:
        raise ValueError(
            f"cannot split {total} units across {num_shards} shards "
            "(at least one shard would be empty)"
        )
    return [
        (s * total // num_shards, (s + 1) * total // num_shards)
        for s in range(num_shards)
    ]


@dataclass(frozen=True)
class ShardEntry:
    """One shard's slot in the map: what it owns and where its replicas live."""

    shard_id: int
    replica_dirs: tuple[str, ...]
    lo: int
    hi: int
    content_digest: str
    #: ``((column_name, sha256), ...)`` sorted by name — the byte contract
    #: every replica of this shard is pinned to.
    column_digests: tuple[tuple[str, str], ...]

    @property
    def dir(self) -> str:
        """Primary replica directory."""
        return self.replica_dirs[0]

    @property
    def column_digest_map(self) -> dict[str, str]:
        return dict(self.column_digests)

    def to_mapping(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "replica_dirs": list(self.replica_dirs),
            "node_lo": self.lo,
            "node_hi": self.hi,
            "content_digest": self.content_digest,
            "column_digests": {name: sha for name, sha in self.column_digests},
        }

    @classmethod
    def from_mapping(cls, raw: dict) -> "ShardEntry":
        try:
            dirs = tuple(str(d) for d in raw["replica_dirs"])
            if not dirs:
                raise ValueError("entry lists no replica directories")
            columns = raw["column_digests"]
            if not isinstance(columns, dict):
                raise TypeError("column_digests must be a mapping")
            return cls(
                shard_id=int(raw["shard_id"]),
                replica_dirs=dirs,
                lo=int(raw["node_lo"]),
                hi=int(raw["node_hi"]),
                content_digest=str(raw["content_digest"]),
                column_digests=tuple(
                    (str(k), str(v)) for k, v in sorted(columns.items())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(
                f"malformed partition shard entry: {raw!r}"
            ) from exc


@dataclass(frozen=True)
class PartitionMap:
    """Parsed, validated ``partition.json`` of a fleet directory."""

    num_shards: int
    num_nodes: int
    num_worlds: int
    source_digest: str
    shards: tuple[ShardEntry, ...]
    replicas: int

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise StoreFormatError(
                f"partition map declares {self.replicas} replicas"
            )
        if len(self.shards) != self.num_shards:
            raise StoreFormatError(
                f"partition map declares {self.num_shards} shards but lists "
                f"{len(self.shards)}"
            )
        shard_ids = [e.shard_id for e in self.shards]
        if shard_ids != list(range(self.num_shards)):
            raise StoreIntegrityError(
                f"partition shard ids {shard_ids} are not 0..{self.num_shards - 1} "
                "in order"
            )
        for entry in self.shards:
            if len(entry.replica_dirs) != self.replicas:
                raise StoreFormatError(
                    f"shard {entry.shard_id} lists {len(entry.replica_dirs)} "
                    f"replica dirs but the map declares {self.replicas} "
                    "replicas"
                )
        all_dirs = [d for e in self.shards for d in e.replica_dirs]
        if len(set(all_dirs)) != len(all_dirs):
            raise StoreIntegrityError(
                "partition map lists the same directory for two replicas"
            )
        expected = shard_ranges(self.num_nodes, self.num_shards)
        actual = [(e.lo, e.hi) for e in self.shards]
        if actual != expected:
            raise StoreIntegrityError(
                f"partition ranges {actual} are not the canonical split of "
                f"{self.num_nodes} nodes across {self.num_shards} shards {expected}"
            )

    def shard_for_node(self, node: int) -> int:
        """The shard owning ``node`` — O(1) from the canonical split."""
        if not 0 <= node < self.num_nodes:
            raise KeyError(
                f"node {node} not in index ({self.num_nodes} nodes)"
            )
        # Inverse of lo_s = s*n//N: candidate via the real-valued split,
        # corrected by at most one step for the floor rounding.
        s = min(self.num_shards - 1, node * self.num_shards // self.num_nodes)
        while node < self.shards[s].lo:
            s -= 1
        while node >= self.shards[s].hi:
            s += 1
        return s

    def to_json(self) -> str:
        payload = {
            "magic": PARTITION_MAGIC,
            "format_version": PARTITION_VERSION,
            "mode": PARTITION_MODE,
            "num_shards": self.num_shards,
            "replicas": self.replicas,
            "num_nodes": self.num_nodes,
            "num_worlds": self.num_worlds,
            "source_digest": self.source_digest,
            "shards": [e.to_mapping() for e in self.shards],
        }
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        payload["map_checksum"] = digest_text(body)
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PartitionMap":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreFormatError(
                f"partition map is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("magic") != PARTITION_MAGIC:
            raise StoreFormatError(
                "not a partition map (bad or missing magic string)"
            )
        version = payload.get("format_version")
        if version != PARTITION_VERSION:
            raise StoreFormatError(
                f"unsupported partition map version {version!r} "
                f"(this library reads version {PARTITION_VERSION}); "
                "re-partition with `repro index shard`"
            )
        recorded = payload.pop("map_checksum", None)
        if recorded is None:
            raise StoreIntegrityError("partition map is missing its checksum")
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if digest_text(body) != recorded:
            raise StoreIntegrityError(
                "partition map checksum mismatch — the map was corrupted or "
                "edited"
            )
        mode = payload.get("mode")
        if mode != PARTITION_MODE:
            raise StoreFormatError(
                f"unsupported partition mode {mode!r} (this library reads "
                f"{PARTITION_MODE!r} maps); re-partition with `repro index shard`"
            )
        try:
            fields = {
                "num_shards": int(payload["num_shards"]),
                "num_nodes": int(payload["num_nodes"]),
                "num_worlds": int(payload["num_worlds"]),
                "source_digest": str(payload["source_digest"]),
                "shards": tuple(ShardEntry.from_mapping(raw) for raw in payload["shards"]),
                "replicas": int(payload["replicas"]),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(
                f"partition map is missing required fields: {exc}"
            ) from exc
        # Outside the parse guard: a well-formed map that breaks an
        # invariant keeps the invariant's own error.
        return cls(**fields)


def load_partition(fleet_dir: PathLike) -> PartitionMap:
    """Parse and checksum-validate ``<fleet_dir>/partition.json``."""
    root = Path(os.fspath(fleet_dir))
    path = root / PARTITION_NAME
    if not path.is_file():
        raise StoreFormatError(
            f"{root} is not a fleet directory (no {PARTITION_NAME})"
        )
    return PartitionMap.from_json(path.read_text())


def verify_partition_stores(fleet_dir: PathLike, partition: PartitionMap) -> None:
    """Check every replica directory exists and matches its recorded digest.

    This is the cheap (header-only) topology cross-check the fleet runs at
    startup: shard count and replica count come from the map shape, and the
    generation pin is each replica's self-checksummed header
    ``content_digest`` matching the map.  Full column hashing is
    :func:`repro.shard.repair.scrub_fleet`'s job.
    """
    root = Path(os.fspath(fleet_dir))
    for entry in partition.shards:
        for replica, dir_name in enumerate(entry.replica_dirs):
            shard_root = root / dir_name
            header = read_header(shard_root)
            if header.content_digest != entry.content_digest:
                raise StoreIntegrityError(
                    f"shard {entry.shard_id} replica {replica} at "
                    f"{shard_root} has content digest "
                    f"{header.content_digest}, partition map records "
                    f"{entry.content_digest} — the replica was rebuilt "
                    "without re-partitioning"
                )


def _link_or_copy(src: Path, dst: Path) -> None:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


def _stage_replica_dir(
    source: Path, staging: Path, header: IndexStoreHeader
) -> None:
    """Materialise one replica: every header column, linked not copied."""
    staging.mkdir(parents=True)
    for name in header.arrays:
        _link_or_copy(source / f"{name}.npy", staging / f"{name}.npy")
    # The header is tiny; an independent copy keeps a hand-edited shard
    # header from silently changing its siblings through a shared inode.
    shutil.copy2(source / HEADER_NAME, staging / HEADER_NAME)


def partition_store(
    store: PathLike,
    out: PathLike,
    num_shards: int,
    *,
    replicas: int = 1,
    overwrite: bool = False,
) -> PartitionMap:
    """Split ``store`` into ``num_shards`` x ``replicas`` stores under ``out``.

    Returns the written :class:`PartitionMap`.  Refuses to clobber an
    existing ``out`` unless ``overwrite`` is set *and* it already looks
    like a fleet directory (never silently replaces foreign data).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    source = Path(os.fspath(store))
    header = read_header(source)
    root = Path(os.fspath(out))
    if root.exists():
        if not overwrite:
            raise FileExistsError(
                f"{root} already exists; pass overwrite=True to replace it"
            )
        if not (root / PARTITION_NAME).is_file():
            raise StoreFormatError(
                f"{root} exists and is not a fleet directory; refusing to "
                "overwrite"
            )
        shutil.rmtree(root)
    root.mkdir(parents=True)

    ranges = shard_ranges(header.num_nodes, num_shards)
    source_columns = tuple(
        (name, header.arrays[name].sha256) for name in sorted(header.arrays)
    )

    entries: list[ShardEntry] = []
    for shard_id, (lo, hi) in enumerate(ranges):
        dirs: list[str] = []
        for replica in range(replicas):
            name = replica_dir_name(shard_id, replica)
            final = root / name
            staging = root / (name + ".staging")
            if staging.exists():
                shutil.rmtree(staging)
            _stage_replica_dir(source, staging, header)
            os.rename(staging, final)
            dirs.append(name)
        entries.append(
            ShardEntry(
                shard_id=shard_id,
                replica_dirs=tuple(dirs),
                lo=lo,
                hi=hi,
                content_digest=header.content_digest,
                column_digests=source_columns,
            )
        )

    partition = PartitionMap(
        num_shards=num_shards,
        num_nodes=header.num_nodes,
        num_worlds=header.num_worlds,
        source_digest=header.content_digest,
        shards=tuple(entries),
        replicas=replicas,
    )
    tmp = root / (PARTITION_NAME + ".tmp")
    tmp.write_text(partition.to_json())
    os.replace(tmp, root / PARTITION_NAME)
    return partition
