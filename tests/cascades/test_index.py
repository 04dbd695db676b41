"""Tests for repro.cascades.index — Algorithm 1's cascade index.

The central correctness property: for every node and world, the cascade
extracted through the SCC/condensation machinery equals direct BFS
reachability in that world.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cascades.index import CascadeIndex
from repro.graph.generators import gnp_digraph
from repro.graph.reachability import reachable_array
from repro.graph.sampling import WorldSampler


@pytest.fixture
def index(small_random) -> CascadeIndex:
    return CascadeIndex.build(small_random, 12, seed=7)


class TestBuild:
    def test_dimensions(self, index, small_random):
        assert index.num_worlds == 12
        assert index.num_nodes == small_random.num_nodes
        assert index.graph is small_random

    def test_invalid_sample_count(self, small_random):
        with pytest.raises(ValueError):
            CascadeIndex.build(small_random, 0)

    def test_deterministic_in_seed(self, small_random):
        a = CascadeIndex.build(small_random, 5, seed=1)
        b = CascadeIndex.build(small_random, 5, seed=1)
        for v in (0, 10):
            for w in range(5):
                assert np.array_equal(a.cascade(v, w), b.cascade(v, w))

    def test_reduce_flag_recorded(self, small_random):
        assert CascadeIndex.build(small_random, 3, reduce=True).reduced
        assert not CascadeIndex.build(small_random, 3, reduce=False).reduced


class TestExtractionCorrectness:
    def test_matches_direct_reachability(self, small_random):
        """The core invariant, against the same world stream."""
        sampler = WorldSampler(small_random, seed=7)
        index = CascadeIndex.build(small_random, 12, seed=7)
        for world in range(12):
            mask = sampler.world_mask(world)
            for node in range(0, small_random.num_nodes, 7):
                expected = reachable_array(small_random, node, mask)
                assert np.array_equal(index.cascade(node, world), expected)

    def test_reduced_and_unreduced_agree(self, small_random):
        a = CascadeIndex.build(small_random, 8, seed=3, reduce=True)
        b = CascadeIndex.build(small_random, 8, seed=3, reduce=False)
        for node in (0, 13, 39):
            for world in range(8):
                assert np.array_equal(a.cascade(node, world), b.cascade(node, world))

    def test_node_always_in_own_cascade(self, index):
        for node in (0, 5, 20):
            for world in (0, 6):
                assert node in index.cascade(node, world)

    def test_cascades_returns_all_worlds(self, index):
        cascades = index.cascades(3)
        assert len(cascades) == index.num_worlds
        for world, c in enumerate(cascades):
            assert np.array_equal(c, index.cascade(3, world))

    def test_cascade_size_matches_extraction(self, index):
        for node in (1, 17):
            for world in (2, 9):
                assert index.cascade_size(node, world) == index.cascade(
                    node, world
                ).size

    def test_bounds_checked(self, index):
        with pytest.raises(ValueError):
            index.cascade(0, 99)
        with pytest.raises(ValueError):
            index.cascade(999, 0)


class TestSeedSetCascades:
    def test_union_semantics(self, index):
        for world in (0, 5):
            joint = index.seed_set_cascade([2, 8], world)
            expected = np.union1d(index.cascade(2, world), index.cascade(8, world))
            assert np.array_equal(joint, expected)

    def test_empty_seed_set_rejected(self, index):
        with pytest.raises(ValueError, match="empty"):
            index.seed_set_cascade([], 0)

    def test_seed_set_cascades_all_worlds(self, index):
        all_cascades = index.seed_set_cascades([1, 2])
        assert len(all_cascades) == index.num_worlds


class TestAllCascadeSizes:
    def test_matches_per_query_sizes(self, small_random):
        index = CascadeIndex.build(small_random, 6, seed=11)
        sizes = index.all_cascade_sizes()
        assert sizes.shape == (small_random.num_nodes, 6)
        for node in range(0, small_random.num_nodes, 11):
            for world in range(6):
                assert sizes[node, world] == index.cascade_size(node, world)

    def test_fallback_path_agrees(self, small_random):
        index = CascadeIndex.build(small_random, 4, seed=2)
        fast = index.all_cascade_sizes()
        slow = index.all_cascade_sizes(max_closure_components=0)
        assert np.array_equal(fast, slow)


class TestComponentLookup:
    def test_component_of_matches_condensation(self, index):
        for node in (0, 9):
            for world in (1, 4):
                cond = index.condensation(world)
                assert index.component_of(node, world) == int(cond.node_comp[node])


class TestStats:
    def test_stats_keys_and_sanity(self, index):
        stats = index.stats()
        assert stats["num_worlds"] == 12
        assert stats["avg_components"] > 0
        assert stats["matrix_cells"] == index.num_nodes * 12


class TestSerialisation:
    def test_save_load_roundtrip(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 6, seed=4)
        path = tmp_path / "index"
        index.save(path)
        loaded = CascadeIndex.load(path)
        assert loaded.num_worlds == 6
        assert loaded.num_nodes == index.num_nodes
        assert loaded.reduced == index.reduced
        for node in (0, 15, 39):
            for world in range(6):
                assert np.array_equal(
                    loaded.cascade(node, world), index.cascade(node, world)
                )

    def test_loaded_graph_equal(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 3, seed=4)
        path = tmp_path / "index"
        index.save(path)
        assert CascadeIndex.load(path).graph == small_random


@given(st.integers(0, 10_000), st.floats(0.03, 0.3))
def test_extraction_equals_reachability_property(seed, density):
    """Property form of the core invariant on small random graphs."""
    graph = gnp_digraph(15, density, p=0.5, seed=seed % 997)
    index = CascadeIndex.build(graph, 3, seed=seed)
    sampler = WorldSampler(graph, seed=seed)
    for world in range(3):
        mask = sampler.world_mask(world)
        for node in range(0, 15, 4):
            assert np.array_equal(
                index.cascade(node, world), reachable_array(graph, node, mask)
            )
