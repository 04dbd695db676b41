"""Tests for repro.core.store — the sphere family and its persistence as
columns of the index store (repro.store.family)."""

import dataclasses

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex
from repro.core.sphere import SphereOfInfluence
from repro.core.store import SphereStore
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.store.errors import StoreFormatError, StoreIntegrityError
from repro.store.family import write_family
from repro.store.format import check_files, read_header, read_index, write_header


def sphere(node, members, cost=0.2, size_stats=(2.0, 1.0, 4)) -> SphereOfInfluence:
    return SphereOfInfluence(
        sources=(node,),
        members=np.array(sorted(members), dtype=np.int64),
        cost=cost,
        num_samples=16,
        sample_size_mean=size_stats[0],
        sample_size_std=size_stats[1],
        sample_size_max=size_stats[2],
    )


@pytest.fixture
def store() -> SphereStore:
    return SphereStore(
        {
            0: sphere(0, {0, 1, 2}, cost=0.1),
            1: sphere(1, {1}, cost=0.05),
            2: sphere(2, {2, 3}, cost=0.3),
        }
    )


class TestMapping:
    def test_len_contains_getitem(self, store):
        assert len(store) == 3
        assert 1 in store
        assert 9 not in store
        assert store[0].as_set() == {0, 1, 2}

    def test_iteration_sorted(self, store):
        assert list(store) == [0, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            SphereStore({})

    def test_mismatched_key_rejected(self):
        with pytest.raises(ValueError, match="keyed by source"):
            SphereStore({5: sphere(0, {0})})

    def test_seed_set_sphere_rejected(self):
        bad = SphereOfInfluence(
            sources=(0, 1), members=np.array([0, 1]), cost=0.1, num_samples=4
        )
        with pytest.raises(ValueError, match="single-node"):
            SphereStore({0: bad})


class TestViews:
    def test_members_family(self, store):
        family = store.members_family()
        assert set(family) == {0, 1, 2}
        assert family[2].tolist() == [2, 3]

    def test_costs_and_sizes_aligned(self, store):
        np.testing.assert_allclose(store.costs(), [0.1, 0.05, 0.3])
        assert store.sizes().tolist() == [3, 1, 2]

    def test_most_reliable_skips_singletons(self, store):
        assert store.most_reliable(2) == [0, 2]

    def test_most_reliable_min_size(self, store):
        assert store.most_reliable(3, min_size=1) == [1, 0, 2]


def written(index, path, nodes=None):
    """The family of ``nodes`` written into ``index``'s store, read back."""
    index.save(path)
    write_family(path, nodes=nodes)
    return read_index(path).sphere_family


class TestPersistence:
    def test_roundtrip(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 8, seed=2)
        store = TypicalCascadeComputer(index).compute_store(nodes=[0, 1, 2])
        loaded = written(index, tmp_path / "idx", nodes=[2, 0, 1])
        assert list(loaded) == list(store)
        for node in store:
            a, b = store[node], loaded[node]
            assert np.array_equal(a.members, b.members)
            assert a.cost == b.cost
            assert a.num_samples == b.num_samples
            assert a.sample_size_max == b.sample_size_max

    def test_roundtrip_from_real_computation(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 16, seed=1)
        spheres = TypicalCascadeComputer(index).compute_all(nodes=range(10))
        loaded = written(index, tmp_path / "idx", nodes=range(10))
        assert len(loaded) == 10
        for node in range(10):
            assert np.array_equal(loaded[node].members, spheres[node].members)

    def test_empty_members_sphere_roundtrip(self, small_random, tmp_path, monkeypatch):
        monkeypatch.setattr(
            TypicalCascadeComputer, "compute",
            lambda self, node: sphere(node, set(), cost=1.0),
        )
        index = CascadeIndex.build(small_random, 4, seed=1)
        assert written(index, tmp_path / "idx", nodes=[3])[3].size == 0

    def test_single_node_store_roundtrip(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 4, seed=1)
        loaded = written(index, tmp_path / "idx", nodes=[0])
        assert len(loaded) == 1
        assert 0 in loaded[0].as_set()
        assert loaded.most_reliable(1, min_size=1) == [0]

    def test_truncated_archive_clear_error(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 4, seed=1)
        written(index, tmp_path / "idx", nodes=[0, 1])
        column = tmp_path / "idx" / "family_members.npy"
        column.write_bytes(column.read_bytes()[:-8])
        # ``index verify`` names the torn column; the index still opens,
        # with the family read as absent.
        with pytest.raises(StoreIntegrityError, match="torn"):
            check_files(tmp_path / "idx", read_header(tmp_path / "idx"))
        assert read_index(tmp_path / "idx").sphere_family is None

    def test_non_store_archive_clear_error(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 4, seed=1)
        written(index, tmp_path / "idx", nodes=[0, 1])
        header = read_header(tmp_path / "idx")
        arrays = dict(header.arrays)
        del arrays["family_members"]
        write_header(tmp_path / "idx", dataclasses.replace(header, arrays=arrays))
        with pytest.raises(StoreFormatError, match="missing arrays.*family_members"):
            read_index(tmp_path / "idx")


class TestProvenance:
    def test_roundtrip_preserves_provenance(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 8, seed=5)
        store = TypicalCascadeComputer(index).compute_store(nodes=range(6))
        assert store.provenance is not None
        assert store.provenance.num_worlds == 8
        loaded = written(index, tmp_path / "idx", nodes=range(6))
        assert loaded.provenance == store.provenance
        assert loaded.digest() == store.digest()

    def test_provenance_matches_store_header(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 8, seed=5)
        index.save(tmp_path / "idx")
        reloaded = CascadeIndex.load(tmp_path / "idx")
        from_memory = TypicalCascadeComputer(index).compute_store(nodes=[0])
        from_disk = TypicalCascadeComputer(reloaded).compute_store(nodes=[0])
        assert from_memory.provenance.matches(from_disk.provenance)

    def test_absent_provenance_loads_as_none(self, store):
        assert store.provenance is None
        assert SphereStore.from_columns(store.columns()).provenance is None
