"""Checkpointed sphere sweeps: the family written into its index store.

``write_family`` commits batches of at least ``checkpoint_every`` spheres
(and at least the family already committed) as ``family_*`` columns,
header last, so the store header is the sweep's resume journal (see
:mod:`repro.store.family`).
"""

import dataclasses

import numpy as np
import pytest

from repro.cascades.index import CascadeIndex
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.graph.generators import gnp_digraph
from repro.runtime.errors import InjectedFault
from repro.runtime.faults import FaultPlan, FaultSpec, fault_scope
from repro.store.append import FAULT_SITE_STAGE, FAULT_SITE_SWAP
from repro.store.errors import StoreError, StoreIntegrityError
from repro.store.family import write_family
from repro.store.format import FAMILY_DTYPES, read_header, read_index, write_header
from repro.store.integrity import scrub_store


@pytest.fixture(scope="module")
def computer() -> TypicalCascadeComputer:
    graph = gnp_digraph(18, 0.15, p=0.5, seed=3)
    return TypicalCascadeComputer(CascadeIndex.build(graph, 6, seed=5))


@pytest.fixture(scope="module")
def clean_digest(computer) -> str:
    return computer.compute_store().digest()


@pytest.fixture
def store(computer, tmp_path):
    path = tmp_path / "idx"
    computer.index.save(path)
    return path


def family(path):
    return read_index(path).sphere_family


def kill_at(
    batch: int,
    site: str = FAULT_SITE_STAGE,
    kind: str = "error",
    key: str = "family_members",
) -> FaultPlan:
    """Fail the sweep at ``site`` while it commits column ``key`` of ``batch``."""
    return FaultPlan.of(FaultSpec(site=site, kind=kind, key=key, attempts=(batch,)))


def batch_starts(num_nodes: int, every: int) -> list[int]:
    """Committed family sizes at each batch boundary of a clean sweep."""
    starts, committed = [], 0
    while committed < num_nodes:
        starts.append(committed)
        committed += max(every, committed)
    return starts


@pytest.fixture
def count_computes(monkeypatch):
    calls = []
    original = TypicalCascadeComputer.compute

    def counted(self, node):
        calls.append(int(node))
        return original(self, node)

    monkeypatch.setattr(TypicalCascadeComputer, "compute", counted)
    return calls


class TestShardCycle:
    def test_fresh_directory_recovers_nothing(self, store):
        assert family(store) is None
        assert read_header(store).family_pin is None

    def test_write_then_load_round_trips(self, computer, store):
        write_family(store, nodes=[0, 1, 2])
        recovered = family(store)
        assert recovered.nodes() == [0, 1, 2]
        for node in (0, 1, 2):
            assert np.array_equal(
                recovered[node].members, computer.compute(node).members
            )

    def test_shards_accumulate(self, store):
        write_family(store, nodes=[0, 1], checkpoint_every=1)
        header = read_header(store)
        assert header.arrays["family_nodes"].shape == (2,)
        write_family(store, nodes=[0, 1, 2], checkpoint_every=1, resume=True)
        assert family(store).nodes() == [0, 1, 2]

    def test_empty_shard_rejected(self, store):
        with pytest.raises(ValueError, match="at least one node"):
            write_family(store, nodes=[])


class TestCorruptionDetection:
    def test_garbage_journal_refused(self, store):
        write_family(store, nodes=[0])
        (store / "header.json").write_text("{not json")
        with pytest.raises(StoreError, match="not valid JSON"):
            write_family(store, nodes=[0, 1], resume=True)

    def test_hand_edited_journal_fails_self_checksum(self, store):
        write_family(store, nodes=[0])
        path = store / "header.json"
        path.write_text(path.read_text().replace('"family_nodes"', '"family_nodez"'))
        with pytest.raises(StoreIntegrityError, match="self-checksum"):
            write_family(store, nodes=[0, 1], resume=True)

    def test_journaled_shard_truncation_detected(self, store, count_computes):
        write_family(store, nodes=range(6), checkpoint_every=3)
        column = store / "family_members.npy"
        column.write_bytes(column.read_bytes()[:-8])
        # The index still opens; the torn family reads as absent, and the
        # scrub names the damage.
        assert family(store) is None
        assert scrub_store(store).corrupt == ("family_members",)
        # A family that lies once is not trusted at all: resume starts over.
        count_computes.clear()
        write_family(store, nodes=range(6), checkpoint_every=3, resume=True)
        assert count_computes == list(range(6))
        assert family(store).nodes() == list(range(6))

    def test_journaled_shard_missing_detected(self, store, count_computes):
        write_family(store, nodes=range(6), checkpoint_every=3)
        (store / "family_costs.npy").unlink()
        assert family(store) is None
        count_computes.clear()
        write_family(store, nodes=range(6), checkpoint_every=3, resume=True)
        assert count_computes == list(range(6))

    def test_unjournaled_debris_is_ignored(self, store):
        write_family(store, nodes=[0])
        # A crash mid-commit leaves staged columns the header never named.
        (store / "family_members.npy.tmp").write_bytes(b"half a column")
        assert family(store).nodes() == [0]
        write_family(store, nodes=[0, 1], resume=True)
        assert family(store).nodes() == [0, 1]
        assert not list(store.glob("*.tmp"))

    def test_checkpoint_of_other_index_refused(self, store):
        write_family(store, nodes=[0])
        header = read_header(store)
        write_header(store, dataclasses.replace(header, family_pin="sha256:other"))
        with pytest.raises(StoreIntegrityError, match="stale"):
            write_family(store, nodes=[0, 1], resume=True)


class TestComputeStoreResume:
    def test_without_checkpoint_dir_unchanged(self, computer, clean_digest):
        assert computer.compute_store().digest() == clean_digest

    def test_checkpointed_sweep_matches_clean(self, store, clean_digest):
        write_family(store, checkpoint_every=5)
        assert family(store).digest() == clean_digest

    def test_fully_recovered_rerun_matches_clean(
        self, store, clean_digest, count_computes
    ):
        write_family(store, checkpoint_every=5)
        count_computes.clear()
        write_family(store, checkpoint_every=5, resume=True)
        assert count_computes == []
        assert family(store).digest() == clean_digest

    def test_checkpoint_every_validated(self, store):
        with pytest.raises(ValueError):
            write_family(store, checkpoint_every=0)

    def test_node_subset_resumes_too(self, computer, store):
        subset = [4, 2, 9, 0]
        clean = computer.compute_store(subset)
        with fault_scope(kill_at(1)), pytest.raises(InjectedFault):
            write_family(store, nodes=subset, checkpoint_every=2)
        assert family(store).nodes() == [0, 2]
        write_family(store, nodes=subset, checkpoint_every=2, resume=True)
        assert family(store).digest() == clean.digest()

    @pytest.mark.parametrize(
        "site, kind, key",
        [
            (FAULT_SITE_STAGE, "error", "family_members"),
            (FAULT_SITE_SWAP, "torn", "family_members"),
            (FAULT_SITE_SWAP, "error", "family_sample_size_max"),
        ],
        ids=["stage-error", "swap-torn", "all-swapped-no-header"],
    )
    def test_killed_at_every_shard_boundary_resumes_identically(
        self, computer, clean_digest, tmp_path, count_computes, site, kind, key
    ):
        """For EVERY batch boundary, a sweep killed exactly there — while
        staging, with a swapped-in column torn, or with every column swapped
        in but the header not yet written — leaves the index readable, and
        its resume recomputes only the killed batch and writes a family
        digest-equal to an uninterrupted run's."""
        every = 5
        num_nodes = computer.index.num_nodes
        starts = batch_starts(num_nodes, every)
        assert starts == [0, 5, 10]
        for boundary, committed in enumerate(starts):
            out = tmp_path / f"{kind}-{key}-{boundary}"
            computer.index.save(out)
            with fault_scope(kill_at(boundary, site, kind, key)), pytest.raises(
                InjectedFault
            ):
                write_family(out, checkpoint_every=every)
            on_disk = read_index(out).sphere_family
            if site == FAULT_SITE_STAGE or committed == 0:
                assert (len(on_disk) if on_disk else 0) == committed
            else:
                # Swapped-in columns the header does not record: the family
                # reads as absent until the resume rolls the batch back.
                assert on_disk is None
            assert not list(out.glob("*.tmp"))
            count_computes.clear()
            write_family(out, checkpoint_every=every, resume=True)
            assert count_computes == list(range(committed, num_nodes))
            resumed = read_index(out, verify="full").sphere_family
            assert resumed.digest() == clean_digest, (
                f"resume after {kind} at {site} at batch boundary {boundary} "
                "diverged from the uninterrupted sweep"
            )
            assert set(read_header(out).arrays) >= set(FAMILY_DTYPES)
            assert not list(out.glob("*.prev"))

    def test_batches_grow_with_the_family(self, store, monkeypatch):
        """Batch sizes double, so the sweep's rewrites stay linear."""
        from repro.store import family as family_module

        seen = []
        original = family_module._commit_batch

        def recording(root, header, spheres):
            seen.append(len(spheres))
            return original(root, header, spheres)

        monkeypatch.setattr(family_module, "_commit_batch", recording)
        write_family(store, checkpoint_every=2)
        assert seen == [2, 2, 4, 8, 2]
