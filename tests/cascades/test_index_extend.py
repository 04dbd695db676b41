"""Tests for CascadeIndex.extend — deterministic incremental sampling."""

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex


class TestExtend:
    def test_extension_matches_direct_build(self, small_random):
        grown = CascadeIndex.build(small_random, 4, seed=9)
        grown.extend(4)
        direct = CascadeIndex.build(small_random, 8, seed=9)
        assert grown.num_worlds == 8
        for node in (0, 13, 39):
            for world in range(8):
                assert np.array_equal(
                    grown.cascade(node, world), direct.cascade(node, world)
                )

    def test_matrix_and_stats_grow(self, small_random):
        index = CascadeIndex.build(small_random, 3, seed=1)
        index.extend(2)
        assert index.stats()["num_worlds"] == 5
        assert index._node_comp.shape == (small_random.num_nodes, 5)

    def test_all_cascade_sizes_after_extend(self, small_random):
        index = CascadeIndex.build(small_random, 3, seed=1)
        index.extend(3)
        sizes = index.all_cascade_sizes()
        assert sizes.shape == (small_random.num_nodes, 6)
        assert sizes[5, 4] == index.cascade_size(5, 4)

    def test_loaded_index_not_extendable(self, small_random, tmp_path):
        built = CascadeIndex.build(small_random, 3, seed=1)
        # Without a sampler the store records no seed entropy to extend from.
        path = tmp_path / "idx"
        CascadeIndex(
            small_random,
            [built.condensation(w) for w in range(3)],
            reduced=built.reduced,
            sampler=None,
        ).save(path)
        loaded = CascadeIndex.load(path)
        with pytest.raises(RuntimeError, match="rebuild"):
            loaded.extend(1)

    def test_invalid_count(self, small_random):
        index = CascadeIndex.build(small_random, 3, seed=1)
        with pytest.raises(ValueError):
            index.extend(0)

    def test_reduced_flag_respected(self, small_random):
        reduced = CascadeIndex.build(small_random, 3, seed=2, reduce=True)
        reduced.extend(2)
        unreduced = CascadeIndex.build(small_random, 5, seed=2, reduce=False)
        # Reduced index has at most as many DAG arcs.
        assert (
            reduced.stats()["total_dag_edges"]
            <= unreduced.stats()["total_dag_edges"]
        )
