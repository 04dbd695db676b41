"""Graceful close of both serving tiers: requests in flight finish, idle
keep-alive connections do not hold the close open.

Both the worker (``serve``) and the router (``serve-fleet``) run on the
same draining server, so every case runs against each.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading

import pytest

from repro.runtime.faults import FaultSpec, fault_scope
from repro.serve.app import SphereService

from tests.shard.conftest import WorkerUnderTest

#: A node no test has asked for: its sphere is computed on demand.
COLD_NODE = 41


@pytest.fixture(params=["worker", "router"])
def tier(request, store_path, running_fleet):
    """A live server of either tier; ``tier.server`` is the one to close."""
    if request.param == "router":
        yield running_fleet()
        return
    worker = WorkerUnderTest(SphereService(store_path))
    yield worker
    worker.close()


def _connect(tier) -> http.client.HTTPConnection:
    host, port = tier.server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=30)


def _close_in_background(server) -> threading.Thread:
    def close() -> None:
        server.shutdown()
        server.server_close()

    closer = threading.Thread(target=close, daemon=True)
    closer.start()
    return closer


def test_close_ends_idle_keep_alive_connection(tier):
    client = _connect(tier)
    try:
        client.request("GET", "/healthz")
        response = client.getresponse()
        response.read()
        assert response.status == 200
        assert not response.will_close  # the connection stays pooled
        closer = _close_in_background(tier.server)
        closer.join(timeout=5)
        assert not closer.is_alive(), "close hung on an idle keep-alive client"
    finally:
        client.close()
        tier.close()  # idempotent for both tiers


def test_close_lets_in_flight_request_finish(tier, reference_server):
    _, _, expected = reference_server.request(f"/sphere/{COLD_NODE}")
    plan = [
        FaultSpec(site="serve.compute", kind="sleep", key=COLD_NODE, seconds=1.0)
    ]
    outcome = {}

    def fetch() -> None:
        client = _connect(tier)
        try:
            client.request("GET", f"/sphere/{COLD_NODE}")
            response = client.getresponse()
            outcome["status"] = response.status
            outcome["body"] = response.read()
        finally:
            client.close()

    with fault_scope(plan):
        fetcher = threading.Thread(target=fetch, daemon=True)
        fetcher.start()
        # The sleep fault holds the compute; close starts while it runs.
        fetcher.join(timeout=0.4)
        assert fetcher.is_alive()
        closer = _close_in_background(tier.server)
        fetcher.join(timeout=10)
        closer.join(timeout=10)
    assert not fetcher.is_alive()
    assert not closer.is_alive()
    assert outcome == {"status": 200, "body": expected}


def test_close_under_keep_alive_load(tier):
    """Pooled clients (more than there are cores) keep requesting while
    the server closes: a connection the server loses track of would hold
    the close open, and a cut response would surface as a client error."""
    stop = threading.Event()
    statuses: list[int] = []
    failures: list[BaseException] = []

    def client_loop() -> None:
        client = _connect(tier)
        try:
            while not stop.is_set():
                client.request("GET", "/healthz")
                response = client.getresponse()
                json.loads(response.read())
                statuses.append(response.status)
        except OSError:
            pass  # the server ended this connection, or refused a new one
        except Exception as exc:
            failures.append(exc)
        finally:
            client.close()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client_loop) for _ in range(8)]
        for thread in clients:
            thread.start()
        stop.wait(0.3)
        closer = _close_in_background(tier.server)
        closer.join(timeout=5)
        closed_under_load = not closer.is_alive()
        stop.set()
        for thread in clients:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(previous)
    assert closed_under_load, "close hung under keep-alive load"
    assert not any(thread.is_alive() for thread in clients)
    assert failures == []
    assert statuses and set(statuses) == {200}
