"""Fixtures for the sharded-serving tests: a partitioned fleet of
in-thread workers behind a router, plus a single-process reference server
over the unsharded store for byte-parity assertions."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.runtime import locksan
from repro.serve.app import SphereService, make_server
from repro.shard.handlers import make_router_server
from repro.shard.partition import partition_store
from repro.shard.router import ShardRouter, StaticEndpoint

from tests.serve.conftest import send_raw

NUM_SHARDS = 3
NUM_REPLICAS = 2
REPLICA_SHARDS = 2


@pytest.fixture(autouse=True)
def _locksan_gate():
    """Fail any shard test that produced a lock-sanitizer report (active
    only under ``REPRO_LOCKSAN=1``, as in the CI concurrency-lint job)."""
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
def store_path(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("shard-src") / "idx"
    index.save(path, format="store")
    return path


@pytest.fixture(scope="session")
def fleet_dir(store_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("shard-fleet") / "fleet"
    partition_store(store_path, out, NUM_SHARDS)
    return out


@pytest.fixture(scope="session")
def partition(fleet_dir):
    from repro.shard.partition import load_partition

    return load_partition(fleet_dir)


@pytest.fixture()
def replica_fleet_dir(store_path, tmp_path):
    """A fresh REPLICA_SHARDS x NUM_REPLICAS fleet per test — repair and
    scrub tests mutate replica directories in place."""
    out = tmp_path / "replica-fleet"
    partition_store(store_path, out, REPLICA_SHARDS, replicas=NUM_REPLICAS)
    return out


@pytest.fixture()
def replica_partition(replica_fleet_dir):
    from repro.shard.partition import load_partition

    return load_partition(replica_fleet_dir)


class HttpEndpoint:
    """A tiny urllib client bound to one base URL."""

    def __init__(self, base: str):
        self.base = base

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
        """Raw bytes on a fresh socket (see :func:`tests.serve.conftest.send_raw`)."""
        return send_raw(urlsplit(self.base).port, request_bytes, timeout)


class WorkerUnderTest(HttpEndpoint):
    """One in-thread worker server over a shard store directory."""

    def __init__(self, service: SphereService):
        self.service = service
        self.server = make_server(service)
        super().__init__(f"http://127.0.0.1:{self.server.server_address[1]}")
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()
        self._down = False

    def address(self) -> str | None:
        return None if self._down else self.base

    def kill(self):
        """Simulate a crashed worker: stop serving, report no address."""
        if not self._down:
            self._down = True
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=10)

    def close(self):
        self.kill()


class RouterUnderTest(HttpEndpoint):
    """A live router server over per-shard in-thread workers."""

    def __init__(self, partition, fleet_path, *, service_kwargs=None,
                 **router_kwargs):
        self.partition = partition
        self.worker_groups = [
            [
                WorkerUnderTest(
                    SphereService(
                        fleet_path / dir_name,
                        shard_id=entry.shard_id,
                        replica_id=replica,
                        **(service_kwargs or {}),
                    )
                )
                for replica, dir_name in enumerate(entry.replica_dirs)
            ]
            for entry in partition.shards
        ]
        self.workers = [w for group in self.worker_groups for w in group]
        router_kwargs.setdefault("fleet_dir", fleet_path)
        self.router = ShardRouter(
            partition, self.worker_groups, **router_kwargs
        )
        self.server = make_router_server(self.router)
        super().__init__(f"http://127.0.0.1:{self.server.server_address[1]}")
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self._thread.start()

    def worker(self, shard_id: int, replica: int = 0) -> WorkerUnderTest:
        return self.worker_groups[shard_id][replica]

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)
        for worker in self.workers:
            worker.close()


@pytest.fixture
def running_fleet(partition, fleet_dir):
    fleets = []

    def start(**kwargs) -> RouterUnderTest:
        fleet = RouterUnderTest(partition, fleet_dir, **kwargs)
        fleets.append(fleet)
        return fleet

    yield start
    for fleet in fleets:
        fleet.close()


@pytest.fixture
def running_replica_fleet(replica_partition, replica_fleet_dir):
    """Start REPLICA_SHARDS x NUM_REPLICAS fleets (replicated routing)."""
    fleets = []

    def start(**kwargs) -> RouterUnderTest:
        fleet = RouterUnderTest(
            replica_partition, replica_fleet_dir, **kwargs
        )
        fleets.append(fleet)
        return fleet

    yield start
    for fleet in fleets:
        fleet.close()


@pytest.fixture
def reference_server(store_path):
    """Single-process serve over the unsharded store — the parity oracle."""
    service = SphereService(store_path)
    server = make_server(service)
    endpoint = HttpEndpoint(f"http://127.0.0.1:{server.server_address[1]}")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield endpoint
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
