"""Failure injection and adversarial-input robustness.

Production code meets corrupted files, degenerate graphs and hostile
arguments; these tests pin down that every such case fails loudly (a clear
exception) or degrades gracefully — never silently wrong.
"""

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.graph.digraph import ProbabilisticDigraph
from repro.graph.io import read_edge_list, write_edge_list
from repro.median.samples import SampleCollection
from repro.store.errors import (
    CorruptColumnError,
    StoreFormatError,
    StoreIntegrityError,
)
from repro.store.family import write_family
from repro.store.format import check_files, read_header


def _store_with_family(graph, tmp_path):
    path = tmp_path / "idx"
    CascadeIndex.build(graph, 4, seed=1).save(path)
    write_family(path, nodes=[0, 1])
    return path


class TestCorruptedFiles:
    def test_truncated_index_file(self, small_random, tmp_path):
        index = CascadeIndex.build(small_random, 4, seed=1)
        path = tmp_path / "index"
        index.save(path)
        column = path / "dag_targets.npy"
        raw = column.read_bytes()
        column.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreIntegrityError, match="truncated"):
            CascadeIndex.load(path)

    def test_wrong_format_index_file(self, tmp_path):
        # A regular file, e.g. a single-file archive, is not a store.
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a store directory")
        with pytest.raises(StoreFormatError, match="repro index build"):
            CascadeIndex.load(path)

    def test_missing_index_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CascadeIndex.load(tmp_path / "never-written")

    def test_truncated_sphere_store(self, small_random, tmp_path):
        path = _store_with_family(small_random, tmp_path)
        column = path / "family_members.npy"
        raw = column.read_bytes()
        column.write_bytes(raw[: len(raw) // 2])
        # Degrades gracefully: the index opens without the torn family (its
        # spheres are computed instead), and ``index verify`` names it.
        assert CascadeIndex.load(path).sphere_family is None
        with pytest.raises(StoreIntegrityError, match="truncated"):
            check_files(path, read_header(path))

    def test_garbage_sphere_store(self, small_random, tmp_path):
        path = _store_with_family(small_random, tmp_path)
        column = path / "family_costs.npy"
        column.write_bytes(b"\x00" * column.stat().st_size)
        with pytest.raises(StoreIntegrityError, match="not a readable column"):
            CascadeIndex.load(path)
        with pytest.raises(StoreIntegrityError, match="SHA-256"):
            CascadeIndex.load(path, verify="full")

    def test_npz_with_missing_arrays(self, small_random, tmp_path):
        # The store form of a partial archive: one column file is gone.
        path = tmp_path / "partial"
        CascadeIndex.build(small_random, 2, seed=1).save(path)
        (path / "members.npy").unlink()
        with pytest.raises(StoreIntegrityError, match="missing array"):
            CascadeIndex.load(path)

    def test_corrupted_sphere_store(self, small_random, tmp_path):
        path = _store_with_family(small_random, tmp_path)
        column = path / "family_members.npy"
        raw = bytearray(column.read_bytes())
        raw[-1] ^= 0xFF  # same size: only the checksum can tell
        column.write_bytes(bytes(raw))
        index = CascadeIndex.load(path, verify="lazy")
        with pytest.raises(CorruptColumnError, match="family_members"):
            index.sphere_family.get(0)

    def test_malformed_edge_list(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 not_a_number\n")
        with pytest.raises(ValueError, match="line 1"):
            read_edge_list(path)

    def test_edge_list_roundtrip_survives_rewrites(self, small_random, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(small_random, path)
        write_edge_list(read_edge_list(path), path)  # write-read-write
        assert read_edge_list(path) == small_random


class TestDegenerateGraphs:
    def test_single_node_graph(self):
        g = ProbabilisticDigraph(1)
        index = CascadeIndex.build(g, 4, seed=1)
        sphere = TypicalCascadeComputer(index).compute(0)
        assert sphere.as_set() == {0}
        assert sphere.cost == 0.0

    def test_graph_with_all_isolated_nodes(self):
        g = ProbabilisticDigraph(6)
        index = CascadeIndex.build(g, 4, seed=1)
        spheres = TypicalCascadeComputer(index).compute_all()
        for node, sphere in spheres.items():
            assert sphere.as_set() == {node}

    def test_two_node_minimal_edge(self):
        g = ProbabilisticDigraph(2, [(0, 1, 1e-9 + 1e-4)])
        index = CascadeIndex.build(g, 8, seed=1)
        sphere = TypicalCascadeComputer(index).compute(0)
        assert 0 in sphere.as_set()

    def test_near_certain_probabilities(self):
        g = ProbabilisticDigraph(3, [(0, 1, 1.0 - 1e-12), (1, 2, 1.0)])
        index = CascadeIndex.build(g, 8, seed=1)
        sphere = TypicalCascadeComputer(index).compute(0)
        assert sphere.as_set() == {0, 1, 2}

    def test_complete_bidirectional_graph(self):
        edges = [(u, v, 0.9) for u in range(5) for v in range(5) if u != v]
        g = ProbabilisticDigraph(5, edges)
        index = CascadeIndex.build(g, 16, seed=2)
        sphere = TypicalCascadeComputer(index).compute(0)
        assert sphere.size >= 4  # nearly always everything


class TestHostileArguments:
    def test_sample_collection_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SampleCollection(4, [np.zeros((2, 2), dtype=np.int64)])

    def test_float_node_ids_rejected_by_graph(self):
        with pytest.raises((TypeError, ValueError)):
            ProbabilisticDigraph(3, [(0.5, 1, 0.5)])

    def test_negative_universe(self):
        with pytest.raises(ValueError):
            SampleCollection(-1, [np.zeros(0, dtype=np.int64)])

    def test_index_on_zero_node_graph(self):
        g = ProbabilisticDigraph(0)
        index = CascadeIndex.build(g, 2, seed=1)
        assert index.num_nodes == 0
        with pytest.raises(ValueError):
            index.cascade(0, 0)
