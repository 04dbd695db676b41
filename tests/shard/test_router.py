"""Router contract tests: byte-parity with single-process serve, verbatim
refusal propagation, per-shard breakers, health aggregation, rolling
reload."""

from __future__ import annotations

import json

import pytest

from repro.runtime.faults import FaultSpec, fault_scope
from repro.shard.router import ShardRouter, StaticEndpoint


class TestByteParity:
    def test_every_sphere_matches_reference(
        self, running_fleet, reference_server, partition
    ):
        fleet = running_fleet()
        for node in range(partition.num_nodes):
            ref_status, _, ref_body = reference_server.request(f"/sphere/{node}")
            status, _, body = fleet.request(f"/sphere/{node}")
            assert (status, body) == (ref_status, ref_body)

    def test_cascades_match_reference(self, running_fleet, reference_server):
        fleet = running_fleet()
        for path in ("/cascades/5", "/cascades/41?world=3", "/cascades/21"):
            ref_status, _, ref_body = reference_server.request(path)
            status, _, body = fleet.request(path)
            assert (status, body) == (ref_status, ref_body)

    def test_scatter_gather_batch_matches_reference(
        self, running_fleet, reference_server, partition
    ):
        fleet = running_fleet()
        # Touch every shard, unordered, so reassembly order is exercised.
        nodes = [41, 0, 59, 20, 7, 39, 55, 13]
        ref_status, _, ref_body = reference_server.request(
            "/spheres", method="POST", body={"nodes": nodes}
        )
        status, _, body = fleet.request(
            "/spheres", method="POST", body={"nodes": nodes}
        )
        assert ref_status == status == 200
        assert body == ref_body

    def test_not_found_matches_reference(self, running_fleet, reference_server):
        fleet = running_fleet()
        for path in ("/sphere/999", "/sphere/-1", "/cascades/999"):
            ref_status, _, ref_body = reference_server.request(path)
            status, _, body = fleet.request(path)
            assert (status, body) == (ref_status, ref_body) == (404, ref_body)

    def test_batch_validation_matches_reference(
        self, running_fleet, reference_server
    ):
        fleet = running_fleet()
        for body in (
            {"nodes": []},
            {"nodes": [3, 3]},
            {"nodes": ["x"]},
            {"nodes": [True]},
            {"wrong": 1},
        ):
            ref_status, _, ref_body = reference_server.request(
                "/spheres", method="POST", body=body
            )
            status, _, resp = fleet.request("/spheres", method="POST", body=body)
            assert (status, resp) == (ref_status, ref_body)


class TestRefusalPropagation:
    """Worker 429/503/504 refusals pass through byte-for-byte, header
    included — a client cannot tell a routed refusal from a direct hit."""

    def _direct_and_routed(self, fleet, node):
        shard = fleet.partition.shard_for_node(node)
        worker = fleet.workers[shard]
        direct = worker.request(f"/sphere/{node}")
        routed = fleet.request(f"/sphere/{node}")
        return direct, routed

    def _assert_verbatim(self, direct, routed, status):
        d_status, d_headers, d_body = direct
        r_status, r_headers, r_body = routed
        assert d_status == r_status == status
        assert r_body == d_body
        assert r_headers.get("Retry-After") == d_headers.get("Retry-After")
        assert r_headers.get("Content-Type") == d_headers.get("Content-Type")

    def test_429_shed_load_verbatim(self, running_fleet):
        # max_inflight=0 sheds every cold compute; no state is cached, so
        # the direct and routed hits produce identical refusals.
        fleet = running_fleet(
            service_kwargs={"max_inflight": 0, "retry_after": 7.5}
        )
        direct, routed = self._direct_and_routed(fleet, 21)
        self._assert_verbatim(direct, routed, 429)
        assert routed[1]["Retry-After"] == "8"

    def test_503_breaker_open_verbatim(self, running_fleet):
        # A frozen worker clock makes the breaker's Retry-After hint a
        # constant, so consecutive refusals are byte- and header-identical.
        fleet = running_fleet(
            service_kwargs={
                "breaker_threshold": 1,
                "breaker_reset": 9.0,
                "clock": lambda: 100.0,
            }
        )
        trip = 21
        shard = fleet.partition.shard_for_node(trip)
        probe = next(
            n
            for n in range(
                fleet.partition.shards[shard].lo,
                fleet.partition.shards[shard].hi,
            )
            if n != trip
        )
        with fault_scope([
            FaultSpec(site="serve.compute", kind="error", key=trip)
        ]):
            status, _, _ = fleet.request(f"/sphere/{trip}")
        assert status == 500  # the failure that opens the worker breaker
        direct, routed = self._direct_and_routed(fleet, probe)
        self._assert_verbatim(direct, routed, 503)
        assert routed[1]["Retry-After"] == "9"

    def test_504_deadline_verbatim(self, running_fleet):
        node = 21
        fleet = running_fleet(service_kwargs={"deadline": 0.05})
        with fault_scope([
            FaultSpec(
                site="serve.store_read",
                kind="sleep",
                key=node,
                seconds=0.2,
                attempts=(0, 1),
            )
        ]):
            direct, routed = self._direct_and_routed(fleet, node)
        self._assert_verbatim(direct, routed, 504)
        assert b"deadline exceeded" in routed[2]


class TestRouterFaults:
    def test_pick_fault_is_explicit_500(self, running_fleet):
        fleet = running_fleet()
        with fault_scope([FaultSpec(site="router.pick", kind="error")]):
            status, _, body = fleet.request("/sphere/5")
        assert status == 500
        assert json.loads(body)["error"]["message"] == (
            "internal error (InjectedFault)"
        )

    def test_forward_fault_is_explicit_502(self, running_fleet):
        fleet = running_fleet()
        with fault_scope([FaultSpec(site="router.forward", kind="error")]):
            status, _, body = fleet.request("/sphere/5")
        assert status == 502
        assert json.loads(body)["error"]["status"] == 502

    def test_repeated_forward_faults_open_the_shard_breaker(self, running_fleet):
        fleet = running_fleet(breaker_threshold=2, breaker_reset=60.0)
        shard = fleet.partition.shard_for_node(5)
        plan = [
            FaultSpec(
                site="router.forward", kind="error", key=shard, attempts=(0, 1)
            )
        ]
        with fault_scope(plan):
            assert fleet.request("/sphere/5")[0] == 502
            assert fleet.request("/sphere/5")[0] == 502
        # Breaker is now open: refused without touching the worker, with a
        # Retry-After hint, while the other shards keep serving.
        status, headers, body = fleet.request("/sphere/5")
        assert status == 503
        assert "Retry-After" in headers
        assert b"circuit breaker is open" in body
        assert fleet.router.breaker(shard).state == "open"
        other = fleet.partition.shards[(shard + 1) % 3].lo
        assert fleet.request(f"/sphere/{other}")[0] == 200

    def test_down_worker_is_503_not_a_breaker_failure(self, running_fleet):
        fleet = running_fleet(breaker_threshold=1)
        shard = 1
        fleet.workers[shard]._down = True  # address() -> None, server still up
        node = fleet.partition.shards[shard].lo
        status, headers, body = fleet.request(f"/sphere/{node}")
        assert status == 503
        assert "Retry-After" in headers
        assert b"worker is down" in body
        # An address-less worker is the supervisor's business, not the
        # breaker's: the probe slot was abandoned, not failed.
        assert fleet.router.breaker(shard).state == "closed"


class TestHealthAggregation:
    def test_healthy_fleet(self, running_fleet):
        fleet = running_fleet()
        status, _, body = fleet.request("/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["num_shards"] == 3
        for shard_id, shard in enumerate(payload["shards"]):
            assert shard["shard_id"] == shard_id
            assert shard["status"] == "ok"
            assert shard["store_generation"] == 1
            assert shard["breaker"]["state"] == "closed"
            assert shard["worker"]["shard_id"] == shard_id

    def test_one_shard_down_is_degraded(self, running_fleet):
        fleet = running_fleet()
        fleet.workers[1].kill()
        status, _, body = fleet.request("/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "degraded"
        states = [shard["status"] for shard in payload["shards"]]
        assert states == ["ok", "down", "ok"]
        assert payload["shards"][1]["store_generation"] is None

    def test_all_shards_down_is_503(self, running_fleet):
        fleet = running_fleet()
        for worker in fleet.workers:
            worker.kill()
        status, _, body = fleet.request("/healthz")
        payload = json.loads(body)
        assert status == 503
        assert payload["status"] == "down"

    def test_batch_embeds_down_shard_errors(self, running_fleet):
        fleet = running_fleet()
        fleet.workers[1].kill()
        nodes = [0, 25, 45, 999]
        status, _, body = fleet.request(
            "/spheres", method="POST", body={"nodes": nodes}
        )
        assert status == 200
        results = json.loads(body)["results"]
        assert [entry["node"] for entry in results] == nodes
        assert "members" in results[0] and "members" in results[2]
        assert results[1]["error"]["status"] in (502, 503)
        assert results[3]["error"]["status"] == 404


class TestMetricsAggregation:
    def test_worker_samples_gain_shard_labels(self, running_fleet):
        fleet = running_fleet()
        assert fleet.request("/sphere/5")[0] == 200
        status, headers, body = fleet.request("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "repro_router_requests_total" in text
        for shard in range(3):
            assert f'shard="{shard}"' in text
        # Merged families keep a single HELP/TYPE header.
        assert text.count("# TYPE repro_serve_requests_total counter") == 1

    def test_breaker_state_gauge_per_shard(self, running_fleet):
        fleet = running_fleet(breaker_threshold=1)
        with fault_scope([
            FaultSpec(site="router.forward", kind="error", key=1)
        ]):
            node = fleet.partition.shards[1].lo
            assert fleet.request(f"/sphere/{node}")[0] == 502
        text = fleet.request("/metrics")[2].decode()
        assert 'repro_router_breaker_state{replica="0",shard="1"} 2' in text
        assert 'repro_router_breaker_state{replica="0",shard="0"} 0' in text


class TestRollingReload:
    def test_reload_rolls_every_shard(self, running_fleet):
        fleet = running_fleet()
        status, _, body = fleet.request("/admin/reload", method="POST", body={})
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "reloaded"
        assert [s["status"] for s in payload["shards"]] == ["reloaded"] * 3
        assert [s["generation"] for s in payload["shards"]] == [2, 2, 2]
        health = json.loads(fleet.request("/healthz")[2])
        assert [s["store_generation"] for s in health["shards"]] == [2, 2, 2]

    def test_requests_keep_succeeding_during_reload(self, running_fleet):
        fleet = running_fleet()
        assert fleet.request("/sphere/5")[0] == 200
        assert fleet.request("/admin/reload", method="POST", body={})[0] == 200
        for node in (5, 25, 45):
            assert fleet.request(f"/sphere/{node}")[0] == 200

    def test_reload_fault_stops_the_roll(self, running_fleet):
        fleet = running_fleet()
        with fault_scope([
            FaultSpec(site="router.reload", kind="error", key=1)
        ]):
            status, _, body = fleet.request(
                "/admin/reload", method="POST", body={}
            )
        payload = json.loads(body)
        assert status == 500
        assert payload["status"] == "partial"
        assert [s["status"] for s in payload["shards"]] == [
            "reloaded", "failed",
        ]
        # Shards past the failure point were never asked to swap.
        health = json.loads(fleet.request("/healthz")[2])
        assert [s["store_generation"] for s in health["shards"]] == [2, 1, 1]

    def test_reload_refuses_to_drop_below_n_minus_1(self, running_fleet):
        fleet = running_fleet()
        fleet.workers[2].kill()
        status, _, body = fleet.request("/admin/reload", method="POST", body={})
        payload = json.loads(body)
        assert status == 500
        assert payload["status"] == "partial"
        assert payload["shards"][0]["status"] == "skipped"
        assert "below N-1" in payload["shards"][0]["error"]
        health = json.loads(fleet.request("/healthz")[2])
        assert health["shards"][0]["store_generation"] == 1


class TestRouterConstruction:
    def test_refuses_mismatched_worker_count(self, partition):
        with pytest.raises(ValueError, match="worker endpoints"):
            ShardRouter(partition, [StaticEndpoint(None)] * 2)

    def test_unknown_route_is_json_404(self, running_fleet):
        fleet = running_fleet()
        status, _, body = fleet.request("/nope")
        assert status == 404
        assert json.loads(body)["error"]["status"] == 404
