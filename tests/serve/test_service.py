"""Transport-independent tests of :class:`SphereService`."""

import threading

import numpy as np
import pytest

from repro.serve.errors import BadRequest, NodeNotFound, ShedLoad

from tests.serve.conftest import WARM_NODES, make_service


class TestWarmPath:
    def test_precomputed_nodes_never_touch_the_computer(self, index, sphere_store):
        service = make_service(index, spheres=sphere_store)

        def forbidden(node):  # pragma: no cover - failure path
            raise AssertionError("warm path must not compute")

        service._computer.compute = forbidden
        for node in WARM_NODES:
            payload = service.sphere(node)
            assert payload["node"] == node
        assert service.computes_total.value() == 0
        assert service.store_hits_total.value() == len(WARM_NODES)

    def test_store_payload_matches_computed_payload(self, index, sphere_store):
        warm = make_service(index, spheres=sphere_store)
        cold = make_service(index, spheres=None)
        assert warm.sphere(WARM_NODES[0]) == cold.sphere(WARM_NODES[0])


class TestColdPath:
    def test_cold_compute_is_cached(self, index):
        service = make_service(index)
        node = 40
        first = service.sphere(node)
        second = service.sphere(node)
        assert first == second
        assert service.computes_total.value() == 1
        assert service.cache.stats()["hits"] == 1

    def test_cache_disabled_recomputes(self, index):
        service = make_service(index, cache_size=0)
        node = 41
        service.sphere(node)
        service.sphere(node)
        assert service.computes_total.value() == 2

    def test_matches_direct_computer(self, index, computer):
        service = make_service(index)
        node = 42
        expected = computer.compute(node)
        payload = service.sphere(node)
        assert payload["members"] == expected.members.tolist()
        assert payload["cost"] == pytest.approx(expected.cost)


class TestNotFound:
    @pytest.mark.parametrize("node", [-1, 60, 10_000])
    def test_sphere_out_of_range(self, index, node):
        service = make_service(index)
        with pytest.raises(NodeNotFound, match=r"not in index \(60 nodes\)"):
            service.sphere(node)

    def test_cascades_bad_world(self, index):
        service = make_service(index)
        with pytest.raises(NodeNotFound, match=r"world 99 not in index"):
            service.cascades(3, world=99)

    def test_most_reliable_without_store(self, index):
        service = make_service(index, spheres=None)
        with pytest.raises(BadRequest, match="sphere --all --index"):
            service.most_reliable(3)


class TestShedding:
    def test_zero_inflight_sheds_every_cold_compute(self, index, sphere_store):
        service = make_service(index, spheres=sphere_store, max_inflight=0,
                               retry_after=2.5)
        # Warm nodes still served: shedding guards only the compute path.
        assert service.sphere(WARM_NODES[0])["node"] == WARM_NODES[0]
        with pytest.raises(ShedLoad) as excinfo:
            service.sphere(45)
        assert excinfo.value.retry_after == pytest.approx(2.5)
        assert service.shed_total.value() == 1
        assert service.computes_total.value() == 0

    def test_saturated_slots_shed_other_nodes(self, index):
        service = make_service(index, max_inflight=1)
        entered = threading.Event()
        release = threading.Event()
        real_compute = service._computer.compute

        def gated_compute(node):
            entered.set()
            assert release.wait(timeout=10)
            return real_compute(node)

        service._computer.compute = gated_compute
        holder = threading.Thread(target=service.sphere, args=(46,))
        holder.start()
        assert entered.wait(timeout=10)  # node 46 holds the only slot
        try:
            with pytest.raises(ShedLoad):
                service.sphere(47)
        finally:
            release.set()
            holder.join(timeout=10)
        # After the slot frees up, node 47 computes fine.
        service._computer.compute = real_compute
        assert service.sphere(47)["node"] == 47


class TestBatch:
    def test_mixed_batch_embeds_errors(self, index, sphere_store):
        service = make_service(index, spheres=sphere_store)
        payload = service.sphere_batch([WARM_NODES[0], 999])
        assert payload["count"] == 2
        ok, bad = payload["results"]
        assert ok["node"] == WARM_NODES[0]
        assert bad["error"]["status"] == 404
        assert "not in index" in bad["error"]["message"]

    def test_empty_batch_rejected(self, index):
        with pytest.raises(BadRequest, match="non-empty"):
            make_service(index).sphere_batch([])

    def test_non_integer_ids_rejected(self, index):
        with pytest.raises(BadRequest, match="integers"):
            make_service(index).sphere_batch(["five"])

    def test_shed_recorded_per_node(self, index):
        service = make_service(index, max_inflight=0)
        payload = service.sphere_batch([50, 51])
        statuses = [entry["error"]["status"] for entry in payload["results"]]
        assert statuses == [429, 429]


class TestMostReliable:
    def test_orders_by_cost(self, index, sphere_store):
        service = make_service(index, spheres=sphere_store)
        payload = service.most_reliable(3, min_size=1)
        assert payload["nodes"] == sphere_store.most_reliable(3, min_size=1)

    def test_parameter_validation(self, index, sphere_store):
        service = make_service(index, spheres=sphere_store)
        with pytest.raises(BadRequest, match="count"):
            service.most_reliable(0)
        with pytest.raises(BadRequest, match="min-size"):
            service.most_reliable(3, min_size=0)


class TestHealthAndStoreLoading:
    def test_healthz_shape(self, index, sphere_store):
        service = make_service(index, spheres=sphere_store)
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["num_nodes"] == 60
        assert health["num_worlds"] == 8
        assert health["precomputed_spheres"] == len(WARM_NODES)

    def test_loads_from_paths(self, family_store_path):
        service = make_service(str(family_store_path))
        assert service.source == str(family_store_path)
        assert service.healthz()["precomputed_spheres"] == len(WARM_NODES)
        payload = service.sphere(WARM_NODES[0])
        assert payload["node"] == WARM_NODES[0]
        assert service.computes_total.value() == 0

    def test_negative_max_inflight_rejected(self, index):
        with pytest.raises(ValueError, match="max_inflight"):
            make_service(index, max_inflight=-1)


class TestSphereStoreLookups:
    """The satellite: clear KeyError messages from the store mapping."""

    def test_getitem_missing_node_message(self, sphere_store):
        with pytest.raises(KeyError, match=r"node 59 not in store \(12 nodes\)"):
            sphere_store[59]

    def test_get_returns_default(self, sphere_store):
        assert sphere_store.get(59) is None
        assert sphere_store.get(59, default="fallback") == "fallback"

    def test_get_hit_matches_getitem(self, sphere_store):
        node = WARM_NODES[0]
        assert np.array_equal(
            sphere_store.get(node).members, sphere_store[node].members
        )
