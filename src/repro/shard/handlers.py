"""HTTP surface of the shard router.

One :class:`~repro.serve.http.JSONRequestHandler` subclass maps the
worker URL surface onto :class:`~repro.shard.router.ShardRouter` methods:

====== ======================== ==========================================
method path                     router call
====== ======================== ==========================================
GET    /healthz                 :meth:`ShardRouter.healthz` (aggregated)
GET    /metrics                 :meth:`ShardRouter.metrics_text` (merged)
GET    /sphere/{node}           :meth:`ShardRouter.sphere` (relayed)
GET    /cascades/{node}[?world] :meth:`ShardRouter.cascades` (relayed)
POST   /spheres                 :meth:`ShardRouter.sphere_batch` (scatter)
POST   /admin/reload            :meth:`ShardRouter.reload` (rolling)
POST   /admin/scrub             :meth:`ShardRouter.scrub` (anti-entropy)
POST   /admin/repair            :meth:`ShardRouter.repair` (anti-entropy)
POST   /jobs/infmax             :meth:`ShardRouter.relay_jobs` (relayed)
GET    /jobs[/{id}[/result]]    :meth:`ShardRouter.relay_jobs` (relayed)
POST   /jobs/{id}/cancel        :meth:`ShardRouter.relay_jobs` (relayed)
====== ======================== ==========================================

Single-node responses are *relays*: the worker's status, body bytes,
``Content-Type`` and ``Retry-After`` pass through unchanged, so a client
cannot tell a routed response from a direct worker hit — including the
worker's own 429/503/504 refusals.  Router-originated refusals (breaker
open, worker down, malformed request) render through the same JSON error
shape the workers use.

This module holds only the routes and endpoint bodies.  The plumbing
beneath them (response writes, the JSON error surface, the sanitized
``500``, the body cap, the draining server) is :mod:`repro.serve.http`,
the same code the workers run, so the router's transport-level errors,
body-size refusals and unknown-route ``404`` are the workers' own.
"""

from __future__ import annotations

from typing import cast
from urllib.parse import urlsplit

from repro.serve.errors import BadRequest
from repro.serve.http import DrainingHTTPServer, JSONRequestHandler
from repro.shard.router import RelayResponse, ShardRouter


class RouterRequestHandler(JSONRequestHandler):
    """Routes requests to the server's :class:`ShardRouter`."""

    server_version = "repro-router/1.0"

    @property
    def router(self) -> ShardRouter:
        return cast(ShardRouter, self.server.app)

    def _send_relay(self, response: RelayResponse) -> int:
        """Pass a worker response through byte-for-byte."""
        content_type = response.headers.get("Content-Type", "application/json")
        extra = tuple(
            ("Retry-After", value)
            for value in (response.headers.get("Retry-After"),)
            if value is not None
        )
        self._send(
            response.status,
            response.body,
            content_type=content_type,
            extra_headers=extra,
        )
        return response.status

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            self._dispatch("healthz", self._handle_healthz)
        elif path == "/metrics":
            self._dispatch("metrics", self._handle_metrics)
        elif len(parts) == 2 and parts[0] == "sphere":
            self._dispatch("sphere", lambda: self._handle_sphere(parts[1]))
        elif len(parts) == 2 and parts[0] == "cascades":
            self._dispatch("cascades", lambda: self._handle_cascades(parts[1]))
        elif parts and parts[0] == "jobs" and len(parts) <= 3:
            self._dispatch("jobs", lambda: self._handle_jobs_relay(path))
        else:
            self._dispatch("unknown", self._handle_unknown)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        parts = [p for p in path.split("/") if p]
        if path == "/spheres":
            self._dispatch("spheres_batch", self._handle_batch)
        elif path == "/admin/reload":
            self._dispatch("admin_reload", self._handle_reload)
        elif path == "/admin/scrub":
            self._dispatch("admin_scrub", self._handle_scrub)
        elif path == "/admin/repair":
            self._dispatch("admin_repair", self._handle_repair)
        elif path == "/jobs/infmax" or (
            len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel"
        ):
            self._dispatch("jobs", lambda: self._handle_jobs_relay(path))
        else:
            self._dispatch("unknown", self._handle_unknown)

    # -- endpoint bodies (each returns the response status it sent) ----------

    def _handle_healthz(self) -> int:
        status, payload = self.router.healthz()
        self._send_json(status, payload)
        return status

    def _handle_metrics(self) -> int:
        body = self.router.metrics_text().encode("utf-8")
        self._send(200, body, content_type="text/plain; version=0.0.4")
        return 200

    def _handle_sphere(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        return self._send_relay(self.router.sphere(node))

    def _handle_cascades(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        params = self._query_params()
        world = None
        if "world" in params:
            world = self._parse_int(params["world"], "world")
        return self._send_relay(self.router.cascades(node, world))

    def _handle_batch(self) -> int:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or "nodes" not in payload:
            raise BadRequest('body must be a JSON object {"nodes": [...]}')
        nodes = payload["nodes"]
        if not isinstance(nodes, list):
            raise BadRequest("'nodes' must be a list of integers")
        self._send_json(200, self.router.sphere_batch(nodes))
        return 200

    def _handle_reload(self) -> int:
        status, payload = self.router.reload()
        self._send_json(status, payload)
        return status

    def _handle_scrub(self) -> int:
        status, payload = self.router.scrub()
        self._send_json(status, payload)
        return status

    def _handle_repair(self) -> int:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict):
            raise BadRequest(
                'body must be a JSON object {"shard": s, "replica": r}'
            )
        shard_id = self._body_int(payload, "shard")
        replica = self._body_int(payload, "replica")
        source = None
        if payload.get("source_replica") is not None:
            source = self._body_int(payload, "source_replica")
        status, report = self.router.repair(
            shard_id, replica, source_replica=source
        )
        self._send_json(status, report)
        return status

    @staticmethod
    def _body_int(payload: dict, name: str) -> int:
        value = payload.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadRequest(f"'{name}' must be an integer, got {value!r}")
        return value

    def _handle_jobs_relay(self, path: str) -> int:
        """Relay a /jobs/* request to the fleet's dedicated jobs worker.

        The body passes through as raw bytes (size-capped here, validated
        by the jobs worker) and the response relays verbatim, so a routed
        job call is byte-identical to a direct worker hit.
        """
        body = self._read_body() if self.command == "POST" else None
        return self._send_relay(self.router.relay_jobs(self.command, path, body))


def make_router_server(
    router: ShardRouter, host: str = "127.0.0.1", port: int = 0
) -> DrainingHTTPServer:
    """Bind a draining router server (``port=0`` = ephemeral)."""
    return DrainingHTTPServer((host, port), RouterRequestHandler, router)
