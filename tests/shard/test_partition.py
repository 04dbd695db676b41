"""Partitioner contract: canonical splits, checksummed map, independent
shard stores that load and answer like the source."""

from __future__ import annotations

import json

import pytest

from repro.cascades.index import CascadeIndex
from repro.shard.partition import (
    PARTITION_NAME,
    PartitionMap,
    load_partition,
    partition_store,
    shard_ranges,
    verify_partition_stores,
)
from repro.store.errors import StoreFormatError, StoreIntegrityError
from repro.store.fingerprint import digest_text
from repro.store.format import read_header


def _signed(payload: dict) -> str:
    """``payload`` as map text with a freshly recomputed self-checksum."""
    payload = dict(payload)
    payload.pop("map_checksum", None)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["map_checksum"] = digest_text(body)
    return json.dumps(payload)


class TestShardRanges:
    def test_covers_every_unit_exactly_once(self):
        for total in (1, 7, 60, 101):
            for num_shards in (1, 2, 3, total):
                if num_shards > total:
                    continue
                ranges = shard_ranges(total, num_shards)
                units = [u for lo, hi in ranges for u in range(lo, hi)]
                assert units == list(range(total))

    def test_near_equal_sizes(self):
        sizes = [hi - lo for lo, hi in shard_ranges(100, 7)]
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_empty_shards(self):
        with pytest.raises(ValueError, match="empty"):
            shard_ranges(2, 3)
        with pytest.raises(ValueError, match=">= 1"):
            shard_ranges(10, 0)


class TestPartitionStore:
    def test_map_round_trips_and_validates(self, fleet_dir, partition):
        raw = json.loads((fleet_dir / PARTITION_NAME).read_text())
        assert raw["mode"] == "node-range"
        assert partition.num_shards == 3
        assert load_partition(fleet_dir) == partition

    def test_shard_stores_match_recorded_digests(self, fleet_dir, partition):
        verify_partition_stores(fleet_dir, partition)

    def test_each_shard_loads_as_full_index(self, fleet_dir, partition, index):
        for entry in partition.shards:
            shard = CascadeIndex.load(fleet_dir / entry.dir)
            assert shard.num_nodes == index.num_nodes
            assert shard.num_worlds == index.num_worlds

    def test_refuses_existing_non_fleet_dir(self, store_path, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        with pytest.raises(FileExistsError):
            partition_store(store_path, target, 2)
        with pytest.raises(StoreFormatError, match="not a fleet directory"):
            partition_store(store_path, target, 2, overwrite=True)
        assert (target / "precious.txt").exists()

    def test_overwrite_replaces_a_fleet_dir(self, store_path, tmp_path):
        target = tmp_path / "fleet"
        partition_store(store_path, target, 2)
        replaced = partition_store(store_path, target, 3, overwrite=True)
        assert replaced.num_shards == 3
        assert load_partition(target).num_shards == 3


class TestMapIntegrity:
    def test_tampered_map_is_refused(self, fleet_dir, tmp_path):
        payload = json.loads((fleet_dir / PARTITION_NAME).read_text())
        payload["num_shards"] = 99
        copy = tmp_path / "fleet"
        copy.mkdir()
        (copy / PARTITION_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError, match="checksum mismatch"):
            load_partition(copy)

    def test_missing_checksum_is_refused(self, fleet_dir, tmp_path):
        payload = json.loads((fleet_dir / PARTITION_NAME).read_text())
        payload.pop("map_checksum")
        copy = tmp_path / "fleet"
        copy.mkdir()
        (copy / PARTITION_NAME).write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError, match="missing its checksum"):
            load_partition(copy)

    def test_non_canonical_ranges_are_refused(self, partition):
        shards = list(partition.shards)
        with pytest.raises(StoreIntegrityError, match="canonical split"):
            PartitionMap(
                num_shards=partition.num_shards,
                num_nodes=partition.num_nodes + 1,
                num_worlds=partition.num_worlds,
                source_digest=partition.source_digest,
                shards=tuple(shards),
                replicas=partition.replicas,
            )

    @pytest.mark.parametrize("shard_ids", [(1, 1), (1, 0)])
    def test_shard_ids_must_be_zero_to_n_in_order(
        self, store_path, tmp_path, shard_ids
    ):
        target = tmp_path / "fleet"
        partition_store(store_path, target, 2)
        payload = json.loads((target / PARTITION_NAME).read_text())
        for raw, shard_id in zip(payload["shards"], shard_ids):
            raw["shard_id"] = shard_id
        (target / PARTITION_NAME).write_text(_signed(payload))
        with pytest.raises(StoreIntegrityError, match="shard ids"):
            load_partition(target)

    def test_rebuilt_shard_is_detected(self, store_path, tmp_path, index):
        target = tmp_path / "fleet"
        partition = partition_store(store_path, target, 2)
        # Rebuild shard 1 with a different world count behind the map's back.
        import shutil

        shutil.rmtree(target / partition.shards[1].dir)
        smaller = CascadeIndex(
            index.graph,
            [index.condensation(0)],
            reduced=index.reduced,
            members=[index.world_members(0)],
            node_comp=index.component_matrix[:, :1].copy(),
        )
        smaller.save(target / partition.shards[1].dir, format="store")
        with pytest.raises(StoreIntegrityError, match="rebuilt"):
            verify_partition_stores(target, partition)


class TestReplicatedPartition:
    def test_replicas_share_pinned_digests(
        self, replica_fleet_dir, replica_partition
    ):
        from repro.shard.partition import replica_dir_name
        from repro.store.fingerprint import digest_file

        assert replica_partition.replicas == 2
        for entry in replica_partition.shards:
            assert entry.replica_dirs == (
                replica_dir_name(entry.shard_id, 0),
                replica_dir_name(entry.shard_id, 1),
            )
            assert entry.dir == entry.replica_dirs[0]
            pins = entry.column_digest_map
            assert pins
            for dir_name in entry.replica_dirs:
                store = replica_fleet_dir / dir_name
                header = read_header(store)
                assert header.content_digest == entry.content_digest
                for name, want in pins.items():
                    assert digest_file(store / f"{name}.npy") == want

    def test_v2_map_round_trips(self, replica_fleet_dir, replica_partition):
        raw = json.loads((replica_fleet_dir / PARTITION_NAME).read_text())
        assert raw["format_version"] == 2
        assert raw["replicas"] == 2
        assert load_partition(replica_fleet_dir) == replica_partition
        verify_partition_stores(replica_fleet_dir, replica_partition)

    def test_unknown_version_is_refused(self, fleet_dir):
        original = json.loads((fleet_dir / PARTITION_NAME).read_text())
        for field, value, match in (
            ("format_version", 99, "version 99"),
            ("format_version", 1, "version 1"),
            ("mode", "world-block", "mode 'world-block'.*re-partition"),
        ):
            payload = dict(original, **{field: value})
            with pytest.raises(StoreFormatError, match=match):
                PartitionMap.from_json(_signed(payload))

    def test_rejects_replica_count_mismatch(self, partition):
        with pytest.raises(StoreFormatError, match="replica dirs"):
            PartitionMap(
                num_shards=partition.num_shards,
                num_nodes=partition.num_nodes,
                num_worlds=partition.num_worlds,
                source_digest=partition.source_digest,
                shards=partition.shards,
                replicas=2,
            )


class TestShardForNode:
    def test_matches_linear_scan(self, partition):
        for node in range(partition.num_nodes):
            owner = partition.shard_for_node(node)
            entry = partition.shards[owner]
            assert entry.lo <= node < entry.hi

    def test_out_of_range_uses_worker_404_message(self, partition):
        with pytest.raises(KeyError) as excinfo:
            partition.shard_for_node(partition.num_nodes)
        # Byte-parity with the worker's own 404 text for the same node.
        assert excinfo.value.args[0] == (
            f"node {partition.num_nodes} not in index "
            f"({partition.num_nodes} nodes)"
        )
        with pytest.raises(KeyError):
            partition.shard_for_node(-1)
