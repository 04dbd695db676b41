"""Tests for repro.store.append — incremental growth of a saved index."""

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex
from repro.runtime.errors import InjectedFault
from repro.runtime.faults import FaultPlan, FaultSpec, fault_scope
from repro.store import append_worlds, read_header, read_index, write_index
from repro.store.append import FAULT_SITE_STAGE
from repro.store.errors import StoreError, StoreIntegrityError
from repro.store.fingerprint import digest_of_index


def _dir_bytes(root):
    """Every file under ``root`` with its exact bytes — the identity check."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def store_path(small_random, tmp_path):
    index = CascadeIndex.build(small_random, 5, seed=31)
    path = tmp_path / "idx"
    write_index(index, path)
    return path


class TestAppend:
    def test_append_equals_direct_build(self, small_random, store_path):
        header = append_worlds(store_path, 3, verify="full")
        assert header.num_worlds == 8
        direct = CascadeIndex.build(small_random, 8, seed=31)
        appended = read_index(store_path, verify="full")
        assert digest_of_index(appended) == digest_of_index(direct)
        np.testing.assert_array_equal(
            appended.component_matrix, direct.component_matrix
        )

    def test_append_twice_equals_append_once(self, small_random, tmp_path):
        once = tmp_path / "once"
        twice = tmp_path / "twice"
        index = CascadeIndex.build(small_random, 4, seed=8)
        write_index(index, once)
        write_index(index, twice)
        append_worlds(once, 6)
        append_worlds(twice, 2)
        append_worlds(twice, 4)
        assert (
            read_header(once).content_digest == read_header(twice).content_digest
        )

    def test_appended_cascades_queryable(self, store_path):
        append_worlds(store_path, 3)
        index = read_index(store_path)
        for world in range(8):
            cascade = index.cascade(0, world)
            assert 0 in cascade

    def test_parallel_append_identical(self, small_random, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        index = CascadeIndex.build(small_random, 4, seed=8)
        write_index(index, serial)
        write_index(index, parallel)
        append_worlds(serial, 4, n_jobs=1)
        append_worlds(parallel, 4, n_jobs=2)
        assert (
            read_header(serial).content_digest
            == read_header(parallel).content_digest
        )

    def test_header_provenance_updated(self, store_path):
        before = read_header(store_path)
        after = append_worlds(store_path, 2)
        assert after.num_worlds == before.num_worlds + 2
        assert after.seed_entropy == before.seed_entropy
        assert after.graph_fingerprint == before.graph_fingerprint
        assert after.content_digest != before.content_digest

    def test_invalid_count_rejected(self, store_path):
        with pytest.raises(ValueError):
            append_worlds(store_path, 0)


class TestAppendGuards:
    def test_store_without_entropy_refuses(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 4, seed=3)
        sampler_less = CascadeIndex(
            small_random,
            [index.condensation(w) for w in range(4)],
            reduced=index.reduced,
            sampler=None,
        )
        path = tmp_path / "no-entropy"
        write_index(sampler_less, path)
        with pytest.raises(StoreError, match="no seed entropy"):
            append_worlds(path, 2)

    def test_torn_store_detected_before_append(self, store_path):
        victim = store_path / "members.npy"
        victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(StoreIntegrityError):
            append_worlds(store_path, 2)


class TestFailedAppendCleanup:
    @pytest.mark.parametrize("victim", ["node_comp", "dag_targets", "members"])
    def test_failed_append_leaves_store_byte_identical(self, store_path, victim):
        """An exception mid-staging must leave no trace: same files, same
        bytes, no ``*.npy.tmp`` leftovers — satellite of the fault-tolerant
        runtime (see ``append_worlds``'s try/finally)."""
        before = _dir_bytes(store_path)
        plan = FaultPlan.of(
            FaultSpec(site=FAULT_SITE_STAGE, kind="error", key=victim)
        )
        with fault_scope(plan), pytest.raises(InjectedFault):
            append_worlds(store_path, 2)
        assert _dir_bytes(store_path) == before
        # and the cleaned-up store still appends fine afterwards
        header = append_worlds(store_path, 2)
        assert header.num_worlds == 7

    def test_cleaned_after_failure_matches_direct_build(
        self, small_random, store_path
    ):
        plan = FaultPlan.of(
            FaultSpec(site=FAULT_SITE_STAGE, kind="error", key="members_offsets")
        )
        with fault_scope(plan), pytest.raises(InjectedFault):
            append_worlds(store_path, 3)
        append_worlds(store_path, 3)
        direct = CascadeIndex.build(small_random, 8, seed=31)
        appended = read_index(store_path, verify="full")
        assert digest_of_index(appended) == digest_of_index(direct)


class TestLoadedIndexExtend:
    def test_extend_of_loaded_matches_direct_build(self, small_random, store_path):
        loaded = read_index(store_path)
        loaded.extend(3)
        direct = CascadeIndex.build(small_random, 8, seed=31)
        assert loaded.num_worlds == 8
        assert digest_of_index(loaded) == digest_of_index(direct)
