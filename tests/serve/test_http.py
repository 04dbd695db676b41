"""End-to-end tests over a real HTTP server on an ephemeral port."""

import json

from repro.serve.query import canonical_json

from tests.serve.conftest import WARM_NODES


def get_json(server, path):
    status, headers, body = server.request(path)
    return status, json.loads(body)


class TestEndpoints:
    def test_healthz(self, running_server):
        server = running_server()
        status, payload = get_json(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_sphere_warm(self, running_server):
        server = running_server()
        node = WARM_NODES[0]
        status, headers, body = server.request(f"/sphere/{node}")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body == canonical_json(server.service.sphere(node))
        assert server.service.computes_total.value() == 0

    def test_sphere_cold_then_cached(self, running_server):
        server = running_server()
        status1, _, body1 = server.request("/sphere/30")
        status2, _, body2 = server.request("/sphere/30")
        assert (status1, status2) == (200, 200)
        assert body1 == body2
        assert server.service.computes_total.value() == 1

    def test_cascades_stats_and_world(self, running_server):
        server = running_server()
        status, payload = get_json(server, "/cascades/3")
        assert status == 200
        assert payload["num_worlds"] == 8
        assert len(payload["sizes"]) == 8
        status, world_payload = get_json(server, "/cascades/3?world=2")
        assert status == 200
        assert world_payload["world"] == 2
        assert world_payload["size"] == len(world_payload["members"])

    def test_most_reliable(self, running_server):
        server = running_server()
        status, payload = get_json(server, "/most-reliable?count=3&min-size=1")
        assert status == 200
        assert payload["nodes"] == server.service.spheres.most_reliable(
            3, min_size=1
        )

    def test_batch_post(self, running_server):
        server = running_server()
        nodes = [WARM_NODES[0], WARM_NODES[1], 999]
        status, _, body = server.request(
            "/spheres", method="POST", body={"nodes": nodes}
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 3
        assert payload["results"][2]["error"]["status"] == 404


class TestErrors:
    def test_missing_node_is_404_json(self, running_server):
        server = running_server()
        status, _, body = server.request("/sphere/999")
        assert status == 404
        payload = json.loads(body)
        assert payload["error"]["status"] == 404
        assert "not in index (60 nodes)" in payload["error"]["message"]

    def test_non_integer_node_is_400(self, running_server):
        server = running_server()
        status, payload = get_json(server, "/sphere/banana")
        assert status == 400
        assert "integer" in payload["error"]["message"]

    def test_unknown_route_is_404(self, running_server):
        server = running_server()
        status, _, _ = server.request("/nope")
        assert status == 404

    def test_bad_batch_bodies(self, running_server):
        server = running_server()
        status, _, _ = server.request("/spheres", method="POST", body=[1, 2])
        assert status == 400
        status, _, _ = server.request(
            "/spheres", method="POST", body={"nodes": "all"}
        )
        assert status == 400

    def test_world_out_of_range_is_404(self, running_server):
        server = running_server()
        status, _, _ = server.request("/cascades/3?world=99")
        assert status == 404


class TestShedding:
    def test_cold_request_sheds_with_retry_after(self, running_server):
        server = running_server(max_inflight=0, retry_after=1.5)
        # Warm request still succeeds...
        status, _, _ = server.request(f"/sphere/{WARM_NODES[0]}")
        assert status == 200
        # ...while the cold one is shed with the back-off hint.
        status, headers, body = server.request("/sphere/50")
        assert status == 429
        assert headers["Retry-After"] == "2"
        payload = json.loads(body)
        assert payload["error"]["status"] == 429
        assert server.service.shed_total.value() == 1


class TestMetricsEndpoint:
    def test_counters_move_and_render(self, running_server):
        server = running_server()
        server.request(f"/sphere/{WARM_NODES[0]}")
        server.request("/sphere/999")
        status, headers, body = server.request("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert (
            'repro_serve_requests_total{endpoint="sphere",status="200"} 1'
            in text
        )
        assert (
            'repro_serve_requests_total{endpoint="sphere",status="404"} 1'
            in text
        )
        assert "repro_serve_store_hits_total 1" in text
        assert "repro_serve_computes_total 0" in text
        assert 'repro_serve_request_seconds_bucket{endpoint="sphere"' in text


class TestGracefulShutdown:
    def test_shutdown_drains_and_socket_closes(self, running_server):
        server = running_server()
        status, _, _ = server.request("/healthz")
        assert status == 200
        server.close()
        import urllib.error
        import urllib.request

        try:
            urllib.request.urlopen(server.base + "/healthz", timeout=2)
            raise AssertionError("server still accepting after close")
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
