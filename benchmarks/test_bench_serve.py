"""Micro-benchmarks of the online sphere-query service (repro.serve).

Measures the three sphere-serving tiers the design separates — precomputed
store, warm LRU cache, cold on-demand compute — plus batch-endpoint
throughput over real HTTP.  The headline property being pinned: the
precomputed-store and warm-cache paths are pure lookups (orders of
magnitude under the Jaccard-median compute), which is what lets one server
absorb read-heavy traffic.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.serve.app import SphereService, make_server
from repro.store import read_index, scrub_store, write_family

WARM_NODES = tuple(range(24))


@pytest.fixture(scope="module")
def graph():
    base = powerlaw_outdegree_digraph(300, mean_degree=6.0, seed=1)
    return assign_fixed(base, 0.1)


@pytest.fixture(scope="module")
def index(graph):
    return CascadeIndex.build(graph, 32, seed=2)


@pytest.fixture(scope="module")
def family_index(index, tmp_path_factory):
    """``index`` re-opened from a store carrying the WARM_NODES family."""
    path = tmp_path_factory.mktemp("family") / "idx"
    index.save(path, format="store")
    write_family(path, nodes=WARM_NODES)
    return read_index(path)


@pytest.fixture()
def http_server(family_index):
    service = SphereService(family_index, cache_size=256, max_inflight=8)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield service, base
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.read()


def test_bench_precomputed_store_path(benchmark, http_server):
    """Sphere served straight from the mmap-backed store: zero computes."""
    service, base = http_server
    body = benchmark(lambda: get(base, f"/sphere/{WARM_NODES[0]}"))
    assert json.loads(body)["node"] == WARM_NODES[0]
    assert service.computes_total.value() == 0


def test_bench_warm_cache_path(benchmark, http_server):
    """Cold node computed once, then every request is an LRU cache hit."""
    service, base = http_server
    node = 200
    get(base, f"/sphere/{node}")  # populate the cache
    body = benchmark(lambda: get(base, f"/sphere/{node}"))
    assert json.loads(body)["node"] == node
    assert service.computes_total.value() == 1


def test_bench_cold_compute_path(benchmark, index):
    """On-demand compute with caching disabled: the full median cost."""
    service = SphereService(index, cache_size=0, max_inflight=8)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        node = 250
        body = benchmark(lambda: get(base, f"/sphere/{node}"))
        assert json.loads(body)["node"] == node
        assert service.computes_total.value() >= 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture(scope="module")
def store_path(index, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench-store") / "idx"
    index.save(path, format="store")
    return path


def test_bench_lazy_first_touch_verification(benchmark, store_path):
    """Cost of a lazy open plus the first-touch hash of the payload columns.

    This is the one-off price of ``verify="lazy"`` — every later touch of
    the same open is a set lookup (see the steady-state benchmarks below).
    """

    def open_and_touch():
        loaded = read_index(store_path, verify="lazy")
        loaded.world_members(0)  # hashes members + members_indptr
        return loaded

    loaded = benchmark(open_and_touch)
    verified = loaded.store_integrity.verified()
    assert "members" in verified
    assert loaded.store_integrity.quarantined() == ()


def test_bench_full_scrub(benchmark, store_path):
    """``index verify``: the full-store checksum scrub, every column."""
    report = benchmark(lambda: scrub_store(store_path))
    assert report.ok


def test_bench_resilience_primitives_per_request(benchmark, index):
    """Per-request overhead of the resilience layer in isolation.

    One warm request adds: a Deadline construction, a read-lock
    acquire/release and the request-guard context — this measures exactly
    that composition, which must stay far below the payload-build cost
    that dominates a warm hit.
    """
    service = SphereService(index)

    def resilience_only():
        deadline = service.new_deadline()
        with service._lock.read(), service._request_guard():
            deadline.require("benchmark")

    benchmark(resilience_only)


def test_warm_path_verified_overhead_within_budget(store_path, index):
    """Steady-state overhead of lazy verification on the warm path.

    After first touch the integrity guard is a set lookup, so a service on
    a ``verify="lazy"`` store must answer warm cache hits at effectively
    the same rate as one on a ``verify="fast"`` store.  The design budget
    is <5%; the assertion allows 30% so CI scheduling noise cannot flake
    the build while still catching an accidental per-request re-hash
    (which would be orders of magnitude slower).
    """
    node = 150
    rounds = 400

    def best_of(service):
        service.sphere(node)  # populate the cache / trigger first touch
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(rounds):
                service.sphere(node)
            timings.append(time.perf_counter() - start)
        return min(timings)

    fast = best_of(SphereService(store_path, verify="fast"))
    lazy = best_of(SphereService(store_path, verify="lazy"))
    assert lazy <= fast * 1.30, (
        f"lazy-verified warm path {lazy:.4f}s vs fast {fast:.4f}s "
        f"({lazy / fast - 1:+.1%}) — steady-state verification is not free"
    )


def test_bench_batch_endpoint_throughput(benchmark, http_server):
    """POST /spheres over the warm set: requests amortised per batch."""
    service, base = http_server
    payload = json.dumps({"nodes": list(WARM_NODES)}).encode("ascii")

    def post_batch():
        request = urllib.request.Request(
            base + "/spheres",
            data=payload,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.read()

    body = benchmark(post_batch)
    decoded = json.loads(body)
    assert decoded["count"] == len(WARM_NODES)
    assert all("error" not in entry for entry in decoded["results"])
    assert service.computes_total.value() == 0
