"""The sphere family as checksummed columns of its own index store.

Pins the contract of :mod:`repro.store.family`: a family whose pin is not
the index's content digest is never served; a corrupt family column is
refused, quarantined, scrubbed and replica-pinned like any other column;
a sweep that dies mid-commit leaves the index serving computed spheres;
spheres served from a family are byte-identical to computed ones; the job
models that select from the family read it instead of computing it; and a
store without a family keeps its exact bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.cascades.index import CascadeIndex
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.jobs.select import run_to_completion
from repro.jobs.spec import JobSpec
from repro.runtime.errors import InjectedFault
from repro.runtime.faults import FaultPlan, FaultSpec, fault_scope
from repro.serve.app import SphereService
from repro.serve.errors import StoreCorrupt
from repro.serve.query import canonical_json, sphere_payload
from repro.shard.partition import load_partition, partition_store
from repro.shard.repair import scrub_fleet
from repro.store import append_worlds, scrub_store
from repro.store.append import FAULT_SITE_SWAP
from repro.store.errors import StoreIntegrityError
from repro.store.family import write_family
from repro.store.format import (
    FAMILY_DTYPES,
    HEADER_NAME,
    read_header,
    read_index,
    write_header,
)
from tests.store.test_golden import (
    GOLDEN,
    JOB_SPECS,
    NUM_NODES,
    NUM_WORLDS,
    SELECTIONS,
    WORLD_SEED,
    _graph,
)


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory) -> Path:
    """The golden fixture's store, carrying the family of every node."""
    path = tmp_path_factory.mktemp("golden") / "idx"
    CascadeIndex.build(_graph(), NUM_WORLDS, seed=WORLD_SEED).save(path)
    write_family(path, checkpoint_every=32)
    return path


@pytest.fixture
def store(golden_store, tmp_path) -> Path:
    """A private copy of the golden store, free to damage."""
    path = tmp_path / "idx"
    shutil.copytree(golden_store, path)
    return path


@pytest.fixture
def no_compute(monkeypatch):
    def refuse(self, node):
        raise AssertionError(f"computed the sphere of node {node}")

    monkeypatch.setattr(TypicalCascadeComputer, "compute", refuse)


def _payload_digests(index, spheres) -> list[str]:
    return [
        hashlib.sha256(canonical_json(sphere_payload(v, spheres[v]))).hexdigest()
        for v in range(index.num_nodes)
    ]


class TestStalePinNeverServed:
    def test_hand_edited_pin_is_refused(self, store):
        header = read_header(store)
        write_header(store, dataclasses.replace(header, family_pin="sha256:" + "0" * 64))
        with pytest.raises(StoreIntegrityError, match="stale"):
            CascadeIndex.load(store)
        with pytest.raises(StoreIntegrityError, match="stale"):
            SphereService(store)

    def test_family_of_other_worlds_is_refused(self, store, tmp_path):
        """Copying another index's family in (pin and all) is refused."""
        other = tmp_path / "other"
        CascadeIndex.build(_graph(), NUM_WORLDS, seed=WORLD_SEED + 1).save(other)
        foreign = read_header(store)
        header = read_header(other)
        for name in FAMILY_DTYPES:
            shutil.copy2(store / f"{name}.npy", other / f"{name}.npy")
        arrays = dict(header.arrays)
        arrays.update({n: foreign.arrays[n] for n in FAMILY_DTYPES})
        write_header(other, dataclasses.replace(
            header, arrays=arrays, family_pin=foreign.family_pin
        ))
        with pytest.raises(StoreIntegrityError, match="stale"):
            SphereService(other)

    def test_index_append_drops_the_family(self, store):
        append_worlds(store, 2)
        header = read_header(store)
        assert header.family_pin is None
        assert not set(FAMILY_DTYPES) & set(header.arrays)
        assert not [p for p in store.iterdir() if p.name.startswith("family_")]
        assert CascadeIndex.load(store, verify="full").sphere_family is None

    def test_sighup_reload_after_append_serves_computed_spheres(self, store):
        service = SphereService(store)
        assert service.healthz()["precomputed_spheres"] == NUM_NODES
        append_worlds(store, 2)
        result = service.reload()
        assert result["precomputed_spheres"] == 0
        assert result["num_worlds"] == NUM_WORLDS + 2
        fresh = TypicalCascadeComputer(CascadeIndex.load(store))
        assert service.sphere(5) == sphere_payload(5, fresh.compute(5))
        assert service.store_hits_total.value() == 0

    def test_sighup_reload_of_a_stale_pin_rolls_back(self, store):
        service = SphereService(store)
        before = service.sphere(5)
        header = read_header(store)
        write_header(store, dataclasses.replace(header, family_pin="sha256:" + "1" * 64))
        with pytest.raises(StoreCorrupt, match="rolled back"):
            service.reload()
        assert service.generation == 1
        assert service.sphere(5) == before


class TestCorruptFamilyColumn:
    @staticmethod
    def _flip(path: Path) -> None:
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))

    def test_served_as_500_and_quarantined(self, store):
        self._flip(store / "family_members.npy")
        service = SphereService(store, verify="lazy")
        with pytest.raises(StoreCorrupt) as info:
            service.sphere(3)
        assert info.value.status == 500
        health = service.healthz()
        assert health["status"] == "degraded"
        assert "family_members" in health["quarantined_columns"]
        with pytest.raises(StoreCorrupt, match="family_members"):
            service.sphere(4)

    def test_scrub_reports_it(self, store):
        self._flip(store / "family_costs.npy")
        report = scrub_store(store)
        assert report.corrupt == ("family_costs",)

    def test_reload_refuses_it(self, store):
        service = SphereService(store)
        self._flip(store / "family_indptr.npy")
        with pytest.raises(StoreCorrupt, match="rolled back"):
            service.reload()

    def test_replicas_link_and_pin_the_family(self, golden_store, tmp_path):
        fleet = tmp_path / "fleet"
        partition = partition_store(golden_store, fleet, 2, replicas=2)
        for entry in partition.shards:
            assert set(FAMILY_DTYPES) <= set(dict(entry.column_digests))
        assert scrub_fleet(fleet, partition).ok
        replica = fleet / partition.shards[1].replica_dirs[1]
        column = replica / "family_members.npy"
        column.unlink()  # break the hard link before damaging the copy
        shutil.copy2(golden_store / "family_members.npy", column)
        self._flip(column)
        scrub = scrub_fleet(fleet, load_partition(fleet))
        assert [r.replica for r in scrub.divergent] == [1]
        assert "family_members" in " ".join(scrub.divergent[0].problems)


class TestCrashedSweep:
    """A sweep that dies between swapping a batch in and committing its
    header never takes the index offline: the family reads as absent, and
    the resume rolls the batch back."""

    @staticmethod
    def _crash_in_swap_window(path: Path) -> None:
        CascadeIndex.build(_graph(), NUM_WORLDS, seed=WORLD_SEED).save(path)
        plan = FaultPlan.of(
            FaultSpec(
                site=FAULT_SITE_SWAP, kind="torn", key="family_members", attempts=(1,)
            )
        )
        with fault_scope(plan), pytest.raises(InjectedFault):
            write_family(path, checkpoint_every=16)

    def test_index_serves_computed_spheres_until_resumed(self, tmp_path):
        path = tmp_path / "idx"
        self._crash_in_swap_window(path)
        fresh = TypicalCascadeComputer(CascadeIndex.load(path))
        for verify in ("fast", "lazy", "full"):
            service = SphereService(path, verify=verify)
            assert service.healthz()["precomputed_spheres"] == 0
            assert service.sphere(20) == sphere_payload(20, fresh.compute(20))
        write_family(path, checkpoint_every=16, resume=True)
        assert SphereService(path).healthz()["precomputed_spheres"] == NUM_NODES

    def test_sighup_reload_through_the_crash_and_the_resume(self, tmp_path):
        path = tmp_path / "idx"
        CascadeIndex.build(_graph(), NUM_WORLDS, seed=WORLD_SEED).save(path)
        service = SphereService(path)
        shutil.rmtree(path)
        self._crash_in_swap_window(path)
        assert service.reload()["precomputed_spheres"] == 0
        write_family(path, checkpoint_every=16, resume=True)
        assert service.reload()["precomputed_spheres"] == NUM_NODES
        assert not list(path.glob("*.prev"))


class TestServedFromFamily:
    def test_payloads_match_golden_and_computed(self, golden_store, no_compute):
        index = CascadeIndex.load(golden_store)
        family = index.sphere_family
        expected = json.loads(GOLDEN.read_text())["sphere_payloads"]
        assert _payload_digests(index, family) == expected
        service = SphereService(golden_store)
        assert all(
            service.sphere(v) == sphere_payload(v, family[v])
            for v in range(NUM_NODES)
        )
        assert service.computes_total.value() == 0

    def test_payloads_match_computed_on_fixture_social(self, tmp_path):
        from repro.data.ingest import ingest
        from repro.data.registry import load_dataset

        ingest("fixture-social", root=tmp_path, assignment="file")
        graph, _ = load_dataset("fixture-social-P", root=tmp_path)
        path = tmp_path / "idx"
        index = CascadeIndex.build(graph, 6, seed=3)
        index.save(path)
        write_family(path, checkpoint_every=128)
        computed = TypicalCascadeComputer(index).compute_all()
        family = CascadeIndex.load(path, verify="full").sphere_family
        assert _payload_digests(index, family) == _payload_digests(index, computed)

    @pytest.mark.parametrize("model", ["greedy_tc", "stability", "cost_aware"])
    def test_family_models_read_the_family(self, golden_store, no_compute, model):
        expected = json.loads(SELECTIONS.read_text())["jobs"][model]
        spec = JobSpec.from_payload(JOB_SPECS[model], NUM_NODES)
        assert run_to_completion(spec, CascadeIndex.load(golden_store)) == expected

    def test_partial_family_is_not_used_for_selection(self, tmp_path):
        path = tmp_path / "idx"
        CascadeIndex.build(_graph(), NUM_WORLDS, seed=WORLD_SEED).save(path)
        write_family(path, nodes=range(10))
        expected = json.loads(SELECTIONS.read_text())["jobs"]["greedy_tc"]
        spec = JobSpec.from_payload(JOB_SPECS["greedy_tc"], NUM_NODES)
        assert run_to_completion(spec, CascadeIndex.load(path)) == expected


class TestStoreWithoutFamily:
    def test_header_has_no_family_field(self, tmp_path):
        path = tmp_path / "idx"
        CascadeIndex.build(_graph(), NUM_WORLDS, seed=WORLD_SEED).save(path)
        assert "family_pin" not in json.loads((path / HEADER_NAME).read_text())
        assert read_index(path).sphere_family is None

    def test_append_leaves_the_same_bytes_as_a_store_that_never_had_one(
        self, store, tmp_path
    ):
        plain = tmp_path / "plain"
        CascadeIndex.build(_graph(), NUM_WORLDS, seed=WORLD_SEED).save(plain)
        append_worlds(plain, 2)
        append_worlds(store, 2)
        assert sorted(p.name for p in store.iterdir()) == sorted(
            p.name for p in plain.iterdir()
        )
        for file in plain.iterdir():
            assert (store / file.name).read_bytes() == file.read_bytes(), file.name
