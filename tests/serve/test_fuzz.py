"""Malformed-input fuzzing of every HTTP endpoint.

The contract: no input — however wrong — produces a traceback, a hung
connection or a non-JSON error page.  Everything maps to a clean 4xx/5xx
JSON document ``{"error": {"status": ..., "message": ...}}``.
"""

import json

import pytest


def assert_clean_json_error(status, body, expected_status=None):
    assert 400 <= status < 600, f"expected an error status, got {status}"
    if expected_status is not None:
        assert status == expected_status
    payload = json.loads(body)
    assert payload["error"]["status"] == status
    message = payload["error"]["message"]
    assert message
    assert "Traceback" not in message
    return payload


@pytest.fixture(scope="module")
def server(index, sphere_store):
    from tests.serve.conftest import RunningServer, make_service

    server = RunningServer(
        make_service(index, spheres=sphere_store, max_batch=8)
    )
    yield server
    server.close()


@pytest.fixture(scope="module")
def router(index_store_path, tmp_path_factory):
    """A two-shard router over the same index, for the classes that pin
    the transport and routing surface both tiers share."""
    from repro.shard.partition import load_partition, partition_store
    from tests.shard.conftest import RouterUnderTest

    fleet_dir = tmp_path_factory.mktemp("fuzz-fleet") / "fleet"
    partition_store(index_store_path, fleet_dir, 2)
    fleet = RouterUnderTest(load_partition(fleet_dir), fleet_dir, max_batch=8)
    yield fleet
    fleet.close()


class ThroughRouter:
    """Mixin: rerun an inherited test class against the shard router."""

    @pytest.fixture
    def server(self, router):
        return router


class TestPathFuzz:
    @pytest.mark.parametrize(
        "path",
        [
            "/sphere/abc",
            "/sphere/1.5",
            "/sphere/0x10",
            "/sphere/%20",
            "/sphere/1e3",
            "/cascades/NaN",
        ],
    )
    def test_non_integer_node_is_400(self, server, path):
        status, _, body = server.request(path)
        assert_clean_json_error(status, body, 400)

    @pytest.mark.parametrize("node", [-1, -999, 10**6, 2**63, 10**30])
    def test_out_of_range_node_is_404(self, server, node):
        status, _, body = server.request(f"/sphere/{node}")
        assert_clean_json_error(status, body, 404)

    @pytest.mark.parametrize(
        "path",
        [
            "/",
            "/nope",
            "/sphere",
            "/sphere/1/extra",
            "/spheres",          # the batch route is POST-only
            "/admin/reload",     # reload is POST-only
            "/metrics/extra",
            "/../etc/passwd",
        ],
    )
    def test_unknown_get_path_is_404(self, server, path):
        status, _, body = server.request(path)
        assert_clean_json_error(status, body, 404)

    @pytest.mark.parametrize("path", ["/sphere/1", "/healthz", "/nope"])
    def test_post_to_get_route_is_404(self, server, path):
        status, _, body = server.request(path, method="POST", body={})
        assert_clean_json_error(status, body, 404)


class TestQueryParamFuzz:
    @pytest.mark.parametrize("world", ["abc", "1.5", "%00"])
    def test_non_integer_world_is_400(self, server, world):
        status, _, body = server.request(f"/cascades/1?world={world}")
        assert_clean_json_error(status, body, 400)

    def test_blank_world_means_absent(self, server):
        # keep_blank_values=False: '?world=' is the same as no parameter.
        status, _, body = server.request("/cascades/1?world=")
        assert status == 200
        assert "num_worlds" in json.loads(body)

    @pytest.mark.parametrize("world", [-1, 8, 10**9, -(2**63)])
    def test_out_of_range_world_is_404(self, server, world):
        status, _, body = server.request(f"/cascades/1?world={world}")
        assert_clean_json_error(status, body, 404)

    @pytest.mark.parametrize(
        "query", ["count=abc", "count=0", "count=-3", "min-size=0", "min-size=x"]
    )
    def test_most_reliable_bad_params_are_400(self, server, query):
        status, _, body = server.request(f"/most-reliable?{query}")
        assert_clean_json_error(status, body, 400)


class TestBatchFuzz:
    def test_missing_body_is_400(self, server):
        status, _, body = server.request("/spheres", method="POST")
        assert_clean_json_error(status, body, 400)

    @pytest.mark.parametrize(
        "payload",
        [
            [],                       # not an object
            "nodes",                  # not an object
            42,                       # not an object
            {},                       # no 'nodes'
            {"nodes": 3},             # not a list
            {"nodes": "1,2,3"},       # not a list
            {"nodes": []},            # empty
            {"nodes": [1.5]},         # float id
            {"nodes": ["1"]},         # string id
            {"nodes": [True]},        # bool id
            {"nodes": [None]},        # null id
            {"nodes": [1, 2, 1]},     # duplicate
            {"nodes": [[1]]},         # nested list
        ],
    )
    def test_bad_batch_shapes_are_400(self, server, payload):
        status, _, body = server.request("/spheres", method="POST", body=payload)
        assert_clean_json_error(status, body, 400)

    def test_oversized_batch_is_413(self, server):
        nodes = list(range(9))  # the module fixture caps max_batch at 8
        status, _, body = server.request(
            "/spheres", method="POST", body={"nodes": nodes}
        )
        assert_clean_json_error(status, body, 413)

    def test_negative_and_huge_ids_embed_404s(self, server):
        status, _, body = server.request(
            "/spheres", method="POST", body={"nodes": [-5, 0, 10**18]}
        )
        assert status == 200
        payload = json.loads(body)
        statuses = [
            entry["error"]["status"] if "error" in entry else 200
            for entry in payload["results"]
        ]
        assert statuses == [404, 200, 404]

    def test_invalid_json_body_is_400(self, server):
        response = server.raw(
            b"POST /spheres HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 9\r\n"
            b"\r\n"
            b"{nodes:[}"
        )
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b'"error"' in response

    def test_declared_oversize_body_is_413_without_reading(self, server):
        # 8 MiB declared, zero sent: the server must refuse on the header
        # alone instead of waiting for a body that never comes.
        response = server.raw(
            b"POST /spheres HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: 8388608\r\n"
            b"\r\n",
            timeout=10,
        )
        assert b" 413 " in response.split(b"\r\n", 1)[0]

    def test_garbage_content_length_is_400(self, server):
        response = server.raw(
            b"POST /spheres HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: banana\r\n"
            b"\r\n"
        )
        first_line = response.split(b"\r\n", 1)[0]
        assert b" 400 " in first_line


class TestReloadFuzz:
    @pytest.mark.parametrize(
        "payload", [[], "x", {"index": 1}, {"spheres": ["a"]}, {"index": None, "spheres": False}]
    )
    def test_bad_reload_bodies_are_400(self, server, payload):
        status, _, body = server.request(
            "/admin/reload", method="POST", body=payload
        )
        assert_clean_json_error(status, body, 400)

    def test_reload_of_in_memory_service_is_400(self, server):
        status, _, body = server.request("/admin/reload", method="POST")
        assert_clean_json_error(status, body, 400)

    def test_reload_nonexistent_path_is_500_rollback(self, server):
        status, _, body = server.request(
            "/admin/reload", method="POST", body={"index": "/no/such/store"}
        )
        payload = assert_clean_json_error(status, body, 500)
        assert "rolled back" in payload["error"]["message"]


class TestTransportFuzz:
    def test_unsupported_method_is_json_501(self, server):
        status, _, body = server.request("/sphere/1", method="PUT", body={})
        assert_clean_json_error(status, body, 501)

    def test_garbage_request_line_is_clean_error(self, server):
        # An unparseable request line is answered in HTTP/0.9 mode (no
        # status line) — but the body is still our JSON error document.
        response = server.raw(b"\x00\x01\x02 garbage not-http\r\n\r\n")
        assert b"Traceback" not in response
        if response:
            assert b'"error"' in response
            assert b'"status":400' in response.replace(b" ", b"")

    def test_empty_connection_is_tolerated(self, server):
        assert server.raw(b"") == b""

    def test_server_still_healthy_after_fuzzing(self, server):
        status, _, body = server.request("/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, _, body = server.request("/sphere/1")
        assert status == 200
        assert json.loads(body)["node"] == 1


class TestRouterPathFuzz(ThroughRouter, TestPathFuzz):
    pass


class TestRouterBatchFuzz(ThroughRouter, TestBatchFuzz):
    pass


class TestRouterTransportFuzz(ThroughRouter, TestTransportFuzz):
    pass
