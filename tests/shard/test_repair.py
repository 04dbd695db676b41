"""Anti-entropy contract: scrub detects byte divergence against the map's
pinned digests, repair rebuilds a replica verify-then-atomic-rename, and
every failure path leaves the target untouched."""

from __future__ import annotations

import os
import shutil

import pytest

from repro.cli import main
from repro.runtime.errors import InjectedFault
from repro.runtime.faults import FaultSpec, fault_scope
from repro.shard.fleet import check_fleet_topology
from repro.shard.repair import (
    RepairError,
    repair_replica,
    scrub_fleet,
    scrub_replica,
)
from repro.store.fingerprint import digest_file


def _corrupt_column(fleet_dir, dir_name: str) -> str:
    """Replace one column file with junk via ``os.replace`` (a new inode,
    so hard-linked peer replicas and mmap'd workers keep the old bytes)."""
    store = fleet_dir / dir_name
    column = sorted(store.glob("*.npy"))[0]
    junk = store / "junk.tmp"
    junk.write_bytes(b"these are not the bytes the map pinned")
    os.replace(junk, column)
    return column.name


class TestScrub:
    def test_clean_fleet_scrubs_clean(self, replica_fleet_dir, replica_partition):
        verdicts = scrub_fleet(replica_fleet_dir, replica_partition)
        assert verdicts.ok
        assert len(verdicts.replicas) == 2 * 2
        assert verdicts.divergent == ()

    def test_detects_replaced_column(self, replica_fleet_dir, replica_partition):
        entry = replica_partition.shards[0]
        name = _corrupt_column(replica_fleet_dir, entry.replica_dirs[1])
        verdicts = scrub_fleet(replica_fleet_dir, replica_partition)
        assert not verdicts.ok
        divergent = verdicts.divergent
        assert [(v.shard_id, v.replica) for v in divergent] == [(0, 1)]
        stem = name.removesuffix(".npy")
        assert any(problem.startswith(stem) for problem in divergent[0].problems)
        # The hard-linked peer replica kept the old inode and stays clean.
        assert scrub_replica(replica_fleet_dir, entry, 0).ok

    def test_detects_missing_directory(self, replica_fleet_dir, replica_partition):
        entry = replica_partition.shards[1]
        shutil.rmtree(replica_fleet_dir / entry.replica_dirs[1])
        verdict = scrub_replica(replica_fleet_dir, entry, 1)
        assert not verdict.ok
        assert "missing" in verdict.problems[0]


class TestRepair:
    def test_rebuilds_replaced_column(self, replica_fleet_dir, replica_partition):
        entry = replica_partition.shards[0]
        name = _corrupt_column(replica_fleet_dir, entry.replica_dirs[1])
        report = repair_replica(replica_fleet_dir, replica_partition, 0, 1)
        assert report.source_replica == 0
        assert name.removesuffix(".npy") in {
            column for column in report.columns
        }
        assert scrub_fleet(replica_fleet_dir, replica_partition).ok
        repaired = replica_fleet_dir / entry.replica_dirs[1] / name
        assert digest_file(repaired) == dict(entry.column_digests)[
            name.removesuffix(".npy")
        ]

    def test_rebuilds_missing_directory(self, replica_fleet_dir, replica_partition):
        entry = replica_partition.shards[1]
        shutil.rmtree(replica_fleet_dir / entry.replica_dirs[0])
        report = repair_replica(replica_fleet_dir, replica_partition, 1, 0)
        assert report.source_replica == 1
        assert scrub_fleet(replica_fleet_dir, replica_partition).ok

    def test_refuses_without_healthy_peer(
        self, replica_fleet_dir, replica_partition
    ):
        entry = replica_partition.shards[0]
        _corrupt_column(replica_fleet_dir, entry.replica_dirs[0])
        _corrupt_column(replica_fleet_dir, entry.replica_dirs[1])
        with pytest.raises(RepairError, match="no healthy peer"):
            repair_replica(replica_fleet_dir, replica_partition, 0, 1)

    def test_explicit_source_must_be_a_valid_peer(
        self, replica_fleet_dir, replica_partition
    ):
        with pytest.raises(RepairError, match="not a peer"):
            repair_replica(
                replica_fleet_dir, replica_partition, 0, 1, source_replica=1
            )
        with pytest.raises(RepairError, match="out of range"):
            repair_replica(replica_fleet_dir, replica_partition, 9, 0)

    def test_copy_fault_discards_staging_and_leaves_target(
        self, replica_fleet_dir, replica_partition
    ):
        entry = replica_partition.shards[0]
        _corrupt_column(replica_fleet_dir, entry.replica_dirs[1])
        before = scrub_replica(replica_fleet_dir, entry, 1)
        with fault_scope([FaultSpec(site="repair.copy", kind="error")]):
            with pytest.raises(InjectedFault):
                repair_replica(replica_fleet_dir, replica_partition, 0, 1)
        assert not (
            replica_fleet_dir / (entry.replica_dirs[1] + ".staging")
        ).exists()
        # Target untouched: still exactly as divergent as before.
        assert scrub_replica(replica_fleet_dir, entry, 1) == before

    def test_commit_fault_leaves_old_directory_in_place(
        self, replica_fleet_dir, replica_partition
    ):
        entry = replica_partition.shards[0]
        _corrupt_column(replica_fleet_dir, entry.replica_dirs[1])
        before = scrub_replica(replica_fleet_dir, entry, 1)
        with fault_scope([
            FaultSpec(site="repair.commit", kind="error", key="0/1")
        ]):
            with pytest.raises(InjectedFault):
                repair_replica(replica_fleet_dir, replica_partition, 0, 1)
        assert scrub_replica(replica_fleet_dir, entry, 1) == before
        # A retry with the fault disarmed completes the rebuild.
        repair_replica(replica_fleet_dir, replica_partition, 0, 1)
        assert scrub_fleet(replica_fleet_dir, replica_partition).ok


class TestTopologyCheck:
    def test_missing_replica_refuses_fleet_start(
        self, replica_fleet_dir, replica_partition
    ):
        entry = replica_partition.shards[0]
        shutil.rmtree(replica_fleet_dir / entry.replica_dirs[1])
        with pytest.raises(RuntimeError, match="fleet topology mismatch"):
            check_fleet_topology(replica_fleet_dir, replica_partition)
        with pytest.raises(RuntimeError, match="repro shard repair"):
            check_fleet_topology(replica_fleet_dir, replica_partition)

    def test_clean_fleet_passes(self, replica_fleet_dir, replica_partition):
        check_fleet_topology(replica_fleet_dir, replica_partition)


class TestShardCLI:
    def test_scrub_clean_exits_zero(self, replica_fleet_dir, capsys):
        assert main(["shard", "scrub", str(replica_fleet_dir)]) == 0
        assert "every replica matches" in capsys.readouterr().out

    def test_scrub_divergence_exits_two_then_repair_restores(
        self, replica_fleet_dir, replica_partition, capsys
    ):
        entry = replica_partition.shards[0]
        _corrupt_column(replica_fleet_dir, entry.replica_dirs[1])
        with pytest.raises(SystemExit) as excinfo:
            main(["shard", "scrub", str(replica_fleet_dir)])
        assert excinfo.value.code == 2
        assert "DIVERGENT" in capsys.readouterr().out
        assert main([
            "shard", "repair", str(replica_fleet_dir),
            "--shard", "0", "--replica", "1",
        ]) == 0
        assert "rebuilt shard 0 replica 1" in capsys.readouterr().out
        assert main(["shard", "scrub", str(replica_fleet_dir), "--json"]) == 0
        assert '"ok":true' in capsys.readouterr().out.replace(" ", "")

    def test_repair_without_peer_exits_with_message(
        self, replica_fleet_dir, replica_partition, capsys
    ):
        entry = replica_partition.shards[0]
        _corrupt_column(replica_fleet_dir, entry.replica_dirs[0])
        _corrupt_column(replica_fleet_dir, entry.replica_dirs[1])
        with pytest.raises(SystemExit, match="no healthy peer"):
            main([
                "shard", "repair", str(replica_fleet_dir),
                "--shard", "0", "--replica", "1",
            ])
