"""Tests for repro.store.format — the on-disk columnar index store."""

import json

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex
from repro.store import (
    FORMAT_VERSION,
    check_files,
    read_header,
    read_index,
    write_index,
)
from repro.store.errors import StoreFormatError, StoreIntegrityError
from repro.store.fingerprint import digest_of_index, graph_fingerprint
from repro.store.format import ARRAY_DTYPES, _LazyWorldList


@pytest.fixture
def index(small_random) -> CascadeIndex:
    return CascadeIndex.build(small_random, 8, seed=123)


@pytest.fixture
def store_path(index, tmp_path):
    path = tmp_path / "idx"
    write_index(index, path)
    return path


class TestRoundtrip:
    def test_every_cascade_identical(self, index, store_path):
        loaded = CascadeIndex.load(store_path)
        assert loaded.num_worlds == index.num_worlds
        assert loaded.num_nodes == index.num_nodes
        for node in range(index.num_nodes):
            for world in range(index.num_worlds):
                np.testing.assert_array_equal(
                    loaded.cascade(node, world), index.cascade(node, world)
                )

    def test_cascade_sizes_identical(self, index, store_path):
        loaded = CascadeIndex.load(store_path)
        np.testing.assert_array_equal(
            loaded.all_cascade_sizes(), index.all_cascade_sizes()
        )

    def test_seed_set_cascades_identical(self, index, store_path):
        loaded = CascadeIndex.load(store_path)
        for world in range(index.num_worlds):
            np.testing.assert_array_equal(
                loaded.seed_set_cascade([0, 3, 7], world),
                index.seed_set_cascade([0, 3, 7], world),
            )

    def test_logical_digest_stable(self, index, store_path):
        loaded = CascadeIndex.load(store_path)
        assert digest_of_index(loaded) == digest_of_index(index)

    def test_resave_is_digest_stable(self, store_path, tmp_path):
        loaded = CascadeIndex.load(store_path)
        second = tmp_path / "resaved"
        write_index(loaded, second)
        assert (
            read_header(second).content_digest
            == read_header(store_path).content_digest
        )

    def test_graph_roundtrips(self, index, store_path):
        loaded = CascadeIndex.load(store_path)
        assert graph_fingerprint(loaded.graph) == graph_fingerprint(index.graph)


class TestHeader:
    def test_fields(self, index, store_path):
        header = read_header(store_path)
        assert header.format_version == FORMAT_VERSION
        assert header.num_nodes == index.num_nodes
        assert header.num_edges == index.graph.num_edges
        assert header.num_worlds == 8
        assert header.reduced is True
        assert header.seed_entropy == 123
        assert header.graph_fingerprint == graph_fingerprint(index.graph)
        assert header.content_digest == digest_of_index(index)
        assert set(header.arrays) == set(ARRAY_DTYPES)

    def test_loaded_index_exposes_header(self, store_path):
        loaded = CascadeIndex.load(store_path)
        assert loaded.store_header is not None
        assert loaded.store_header.num_worlds == 8
        assert loaded.seed_entropy == 123

    def test_edited_header_detected(self, store_path):
        header_file = store_path / "header.json"
        payload = json.loads(header_file.read_text())
        payload["num_worlds"] = 999
        header_file.write_text(json.dumps(payload))
        with pytest.raises(StoreIntegrityError, match="self-checksum"):
            read_header(store_path)

    def test_bad_magic_rejected(self, store_path):
        header_file = store_path / "header.json"
        payload = json.loads(header_file.read_text())
        payload["magic"] = "something-else"
        header_file.write_text(json.dumps(payload))
        with pytest.raises(StoreFormatError, match="magic"):
            read_header(store_path)

    def test_future_version_rejected(self, store_path):
        header_file = store_path / "header.json"
        payload = json.loads(header_file.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        header_file.write_text(json.dumps(payload))
        with pytest.raises(StoreFormatError, match="version"):
            read_header(store_path)

    def test_not_a_store_directory(self, tmp_path):
        with pytest.raises(StoreFormatError, match="not a cascade-index store"):
            read_header(tmp_path / "nowhere")


class TestIntegrity:
    def test_full_verify_passes_on_clean_store(self, store_path):
        check_files(store_path, read_header(store_path), verify="full")

    def test_truncated_array_detected_fast(self, store_path):
        victim = store_path / "members.npy"
        raw = victim.read_bytes()
        victim.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreIntegrityError, match="truncated or was torn"):
            read_index(store_path)

    def test_missing_array_detected(self, store_path):
        (store_path / "dag_targets.npy").unlink()
        with pytest.raises(StoreIntegrityError, match="missing array file"):
            read_index(store_path)

    def test_flipped_byte_detected_by_full_verify(self, store_path):
        victim = store_path / "node_comp.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF  # same size, different content
        victim.write_bytes(bytes(raw))
        read_index(store_path, verify="fast")  # size check cannot see it
        with pytest.raises(StoreIntegrityError, match="SHA-256"):
            read_index(store_path, verify="full")

    def test_bad_verify_mode_rejected(self, store_path):
        with pytest.raises(ValueError, match="verify"):
            read_index(store_path, verify="paranoid")


class TestWriteGuards:
    def test_refuses_to_overwrite_by_default(self, index, store_path):
        with pytest.raises(FileExistsError, match="overwrite=True"):
            write_index(index, store_path)

    def test_overwrite_flag_replaces_store(self, index, store_path):
        write_index(index, store_path, overwrite=True)
        assert read_header(store_path).num_worlds == 8

    def test_never_clobbers_foreign_directory(self, index, tmp_path):
        foreign = tmp_path / "precious"
        foreign.mkdir()
        (foreign / "data.txt").write_text("do not delete")
        with pytest.raises(StoreFormatError, match="refusing to overwrite"):
            write_index(index, foreign, overwrite=True)
        assert (foreign / "data.txt").read_text() == "do not delete"


class TestLaziness:
    def test_worlds_materialise_on_first_touch_only(self):
        calls: list[int] = []

        def factory(i: int) -> int:
            calls.append(i)
            return i * 10

        lazy = _LazyWorldList(4, factory)
        assert calls == []
        assert lazy[2] == 20
        assert lazy[2] == 20  # cached: factory not re-invoked
        assert calls == [2]
        assert lazy[1:3] == [10, 20]
        assert calls == [2, 1]

    def test_append_extends_past_stored_count(self):
        lazy = _LazyWorldList(2, lambda i: i)
        lazy.append(99)
        assert len(lazy) == 3
        assert lazy[2] == 99
        assert lazy[-1] == 99

    def test_load_touches_no_condensation(self, store_path, monkeypatch):
        from repro.graph import condensation as cond_mod

        loaded = read_index(store_path)

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("condensation materialised eagerly")

        monkeypatch.setattr(cond_mod.Condensation, "__init__", boom)
        assert loaded.num_worlds == 8  # header-only metadata stays available
