"""Shared fixtures for the serving tests: one small deterministic index,
the same index opened from a store carrying a partial sphere family (so
hot *and* cold paths exist), and helpers to run a real HTTP server on an
ephemeral port."""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.cascades.index import CascadeIndex
from repro.runtime import locksan
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.serve.app import SphereService, make_server
from repro.store.family import write_family

#: Nodes whose spheres are precomputed into the store (the warm set).
WARM_NODES = tuple(range(12))


@pytest.fixture(autouse=True)
def _locksan_gate():
    """Fail any serving test that produced a lock-sanitizer report.

    Inert unless the suite runs with ``REPRO_LOCKSAN=1`` (the CI
    concurrency-lint job does): then every lock the serving stack builds
    is tracked, and a lock-order cycle, unbalanced release or missed
    ``assert_held`` observed during the test body fails it here.
    """
    yield
    if locksan.enabled():
        violations = locksan.report()
        locksan.reset()
        assert violations == [], "lock sanitizer violations:\n" + "\n".join(
            violations
        )


@pytest.fixture(scope="session")
def graph():
    base = powerlaw_outdegree_digraph(60, mean_degree=5.0, seed=7)
    return assign_fixed(base, 0.15)


@pytest.fixture(scope="session")
def index(graph):
    return CascadeIndex.build(graph, 8, seed=11)


@pytest.fixture(scope="session")
def computer(index):
    return TypicalCascadeComputer(index)


@pytest.fixture(scope="session")
def family_store_path(index, tmp_path_factory):
    """``index`` as a store carrying the sphere family of WARM_NODES."""
    path = tmp_path_factory.mktemp("family") / "idx"
    index.save(path, format="store")
    write_family(path, nodes=WARM_NODES)
    return path


#: Store-opened indexes whose families ``make_service(spheres=...)`` serves.
_FAMILY_INDEXES: list[CascadeIndex] = []


@pytest.fixture(scope="session")
def family_index(family_store_path):
    index = CascadeIndex.load(family_store_path)
    _FAMILY_INDEXES.append(index)
    return index


@pytest.fixture(scope="session")
def sphere_store(family_index):
    return family_index.sphere_family


@pytest.fixture(scope="session")
def index_store_path(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "idx"
    index.save(path, format="store")
    return path


def make_service(index, *, spheres=None, **kwargs) -> SphereService:
    """A service over ``index``.  A service reads its sphere family from
    the index it opened, so ``spheres`` — the ``sphere_store`` fixture —
    swaps in the store-opened copy of ``index`` that carries it."""
    if spheres is not None:
        (index,) = [i for i in _FAMILY_INDEXES if i.sphere_family is spheres]
    kwargs.setdefault("cache_size", 64)
    kwargs.setdefault("max_inflight", 8)
    return SphereService(index, **kwargs)


def send_raw(port: int, request_bytes: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes on a fresh socket; return everything sent back.

    For fuzzing below the urllib layer: malformed request lines, lying
    Content-Length headers, non-HTTP garbage.  Half-closes the write
    side so a well-behaved server responds and then sees EOF.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request_bytes)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except TimeoutError:
            pass
        return b"".join(chunks)


class RunningServer:
    """A live server plus a tiny urllib client for the tests."""

    def __init__(self, service: SphereService):
        self.service = service
        self.server = make_server(service)
        self.port = self.server.server_address[1]
        self.base = f"http://127.0.0.1:{self.port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()

    def request(self, path: str, *, method: str = "GET", body=None):
        """(status, headers, body_bytes); HTTP errors returned, not raised."""
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("ascii")
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.base + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def raw(self, request_bytes: bytes, timeout: float = 10.0) -> bytes:
        return send_raw(self.port, request_bytes, timeout)

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)


@pytest.fixture
def running_server(index, sphere_store):
    servers = []

    def start(**kwargs) -> RunningServer:
        kwargs.setdefault("spheres", sphere_store)
        service = make_service(index, **kwargs)
        server = RunningServer(service)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()
