"""HTTP request routing for the sphere-query service.

One :class:`~repro.serve.http.JSONRequestHandler` subclass maps the URL
surface onto :class:`~repro.serve.app.SphereService` methods:

====== ======================== ==========================================
method path                     service call
====== ======================== ==========================================
GET    /healthz                 :meth:`SphereService.healthz`
GET    /metrics                 :meth:`SphereService.metrics_text`
GET    /sphere/{node}           :meth:`SphereService.sphere`
GET    /cascades/{node}         :meth:`SphereService.cascades`
GET    /cascades/{node}?world=i :meth:`SphereService.cascades`
GET    /most-reliable           :meth:`SphereService.most_reliable`
POST   /spheres                 :meth:`SphereService.sphere_batch`
POST   /admin/reload            :meth:`SphereService.reload`
POST   /jobs/infmax             :meth:`JobManager.submit` (``202``; ``200``
                                when an idempotency key deduplicates)
GET    /jobs                    :meth:`JobManager.list_jobs`
GET    /jobs/{id}               :meth:`JobManager.status`
GET    /jobs/{id}/result        :meth:`JobManager.result`
POST   /jobs/{id}/cancel        :meth:`JobManager.cancel`
====== ======================== ==========================================

The ``/jobs`` family answers ``404`` when no job manager is attached
(server started without ``--jobs``).

Every JSON body is rendered by :func:`~repro.serve.query.canonical_json`,
so a handler response and the CLI's ``index query --json`` output are
byte-identical for the same query.  Failures are JSON error documents
``{"error": {"status": ..., "message": ...}}``; retryable refusals
(``429`` shed, ``503`` breaker-open) additionally carry a ``Retry-After``
header.

This module holds only the routes and endpoint bodies.  The plumbing
beneath them (response writes, the JSON error surface, the sanitized
``500``, the body cap, the draining server) is
:mod:`repro.serve.http`, shared with the shard router, so both tiers
refuse malformed input the same way.
"""

from __future__ import annotations

from urllib.parse import urlsplit

from repro.jobs.errors import JobNotFound
from repro.serve.errors import BadRequest
from repro.serve.http import JSONRequestHandler


class SphereRequestHandler(JSONRequestHandler):
    """Routes requests to the server's :class:`SphereService`."""

    server_version = "repro-serve/1.0"

    @property
    def service(self):
        return self.server.app

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
        elif path == "/most-reliable":
            self._dispatch("most_reliable", self._handle_most_reliable)
        elif path == "/jobs":
            self._dispatch("jobs_list", self._handle_jobs_list)
        elif len(parts) == 2 and parts[0] == "jobs":
            self._dispatch(
                "jobs_status", lambda: self._handle_job_status(parts[1])
            )
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._dispatch(
                "jobs_result", lambda: self._handle_job_result(parts[1])
            )
        else:
            self._dispatch("unknown", self._handle_unknown)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path.rstrip("/")
        parts = [p for p in path.split("/") if p]
        if path == "/spheres":
            self._dispatch("spheres_batch", self._handle_batch)
        elif path == "/admin/reload":
            self._dispatch("admin_reload", self._handle_reload)
        elif path == "/jobs/infmax":
            self._dispatch("jobs_submit", self._handle_job_submit)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            self._dispatch(
                "jobs_cancel", lambda: self._handle_job_cancel(parts[1])
            )
        else:
            self._dispatch("unknown", self._handle_unknown)

    # -- endpoint bodies (each returns the response status it sent) ----------

    def _handle_healthz(self) -> int:
        self._send_json(200, self.service.healthz())
        return 200

    def _handle_metrics(self) -> int:
        body = self.service.metrics_text().encode("utf-8")
        self._send(200, body, content_type="text/plain; version=0.0.4")
        return 200

    def _handle_sphere(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        self._send_json(200, self.service.sphere(node))
        return 200

    def _handle_cascades(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        params = self._query_params()
        world = None
        if "world" in params:
            world = self._parse_int(params["world"], "world")
        self._send_json(200, self.service.cascades(node, world))
        return 200

    def _handle_most_reliable(self) -> int:
        params = self._query_params()
        count = self._parse_int(params.get("count", "10"), "count")
        min_size = self._parse_int(params.get("min-size", "2"), "min-size")
        self._send_json(200, self.service.most_reliable(count, min_size))
        return 200

    def _handle_batch(self) -> int:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or "nodes" not in payload:
            raise BadRequest('body must be a JSON object {"nodes": [...]}')
        nodes = payload["nodes"]
        if not isinstance(nodes, list):
            raise BadRequest("'nodes' must be a list of integers")
        self._send_json(200, self.service.sphere_batch(nodes))
        return 200

    def _handle_reload(self) -> int:
        payload = self._read_json_body(required=False)
        index_path = None
        if payload is not None:
            if not isinstance(payload, dict):
                raise BadRequest(
                    'reload body must be a JSON object, e.g. {"index": "path"}'
                )
            index_path = payload.get("index")
            if index_path is not None and not isinstance(index_path, str):
                raise BadRequest("'index' must be a path string")
        self._send_json(200, self.service.reload(index_path))
        return 200

    # -- jobs endpoints ------------------------------------------------------

    def _jobs(self):
        manager = self.service.jobs
        if manager is None:
            raise JobNotFound(
                "the job service is not enabled on this server "
                "(start it with --jobs)"
            )
        return manager

    def _handle_job_submit(self) -> int:
        manager = self._jobs()
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict):
            raise BadRequest(
                'body must be a JSON object, e.g. {"model": "celfpp", "k": 5}'
            )
        view = manager.submit(payload)
        status = 200 if view.get("deduplicated") else 202
        self._send_json(status, view)
        return status

    def _handle_jobs_list(self) -> int:
        self._send_json(200, self._jobs().list_jobs())
        return 200

    def _handle_job_status(self, job_id: str) -> int:
        self._send_json(200, self._jobs().status(job_id))
        return 200

    def _handle_job_result(self, job_id: str) -> int:
        self._send_json(200, self._jobs().result(job_id))
        return 200

    def _handle_job_cancel(self, job_id: str) -> int:
        self._send_json(200, self._jobs().cancel(job_id))
        return 200
