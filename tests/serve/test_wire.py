"""Every response leaves in one socket write, with pinned bytes, in both tiers.

A response written as two writes (headers, then body) stalls a keep-alive
client for a delayed ACK, about 40 ms, so each path below must reach the
socket as exactly one write.  The handler's ``wfile`` is swapped for one
that records every write, and each request goes over its own raw socket
to a worker (``repro serve``) and to a 2-shard router (``repro
serve-fleet``).

The bytes of each response are pinned in ``golden/wire.json``, with the
``Date`` and ``Server`` values masked.  ``/metrics`` keeps its status line
and headers but not its length or body, whose samples count earlier
requests.  The
golden holds the bytes each path produced when responses were still two
writes, so one write changes nothing on the wire except ``Retry-After``,
now whole seconds rounded up (:data:`SHED_RETRY_AFTER`).

Regenerate (only for an intended change to the wire) with::

    PYTHONPATH=src python -m tests.serve.test_wire
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import Any

import pytest

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.runtime.faults import FaultSpec, fault_scope
from repro.serve.app import SphereService
from repro.shard.partition import load_partition, partition_store
from repro.store.family import write_family

from tests.serve.conftest import WARM_NODES, RunningServer
from tests.shard.conftest import RouterUnderTest

GOLDEN = Path(__file__).parent / "golden" / "wire.json"

#: The shedding servers' ``retry_after``, and the header value it becomes.
SHED_SECONDS = 1.5
SHED_RETRY_AFTER = "2"

#: Faults armed for a case.  ``internal_error`` fails a compute (node 30 is
#: not in the family), which ends as a ``500`` the service words itself;
#: ``sanitized_500`` raises where no handler expects it, in the worker's
#: store read or the router's pick, which ends as the sanitized ``500``.
FAULTS = {
    "internal_error": [FaultSpec(site="serve.compute", kind="error", key=30)],
    "sanitized_500": [
        FaultSpec(site="serve.store_read", kind="error", key=31),
        FaultSpec(site="router.pick", kind="error", key=31),
    ],
}


def _post(path: str, body: bytes, length: int | None = None) -> bytes:
    size = len(body) if length is None else length
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        f"Content-Length: {size}\r\n\r\n"
    ).encode("ascii") + body


#: case -> (server, raw request).  ``main`` serves normally; ``shedding``
#: sheds every cold compute with ``Retry-After``.
CASES: dict[str, tuple[str, bytes]] = {
    "sphere": ("main", b"GET /sphere/3 HTTP/1.1\r\nHost: x\r\n\r\n"),
    "batch": ("main", _post("/spheres", b'{"nodes": [0, 1, 2]}')),
    "metrics": ("main", b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
    "unknown_route": ("main", b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"),
    "bad_json": ("main", _post("/spheres", b"{nodes:[}")),
    "oversized_body": ("main", _post("/spheres", b"", length=8 << 20)),
    "shed": ("shedding", b"GET /sphere/50 HTTP/1.1\r\nHost: x\r\n\r\n"),
    "internal_error": ("main", b"GET /sphere/30 HTTP/1.1\r\nHost: x\r\n\r\n"),
    "sanitized_500": ("main", b"GET /sphere/31 HTTP/1.1\r\nHost: x\r\n\r\n"),
    "unsupported_method": ("main", b"PUT /sphere/1 HTTP/1.1\r\nHost: x\r\n\r\n"),
    "bad_request_line": ("main", b"GET / x HTTP/1.1\r\nHost: x\r\n\r\n"),
    "http09_request_line": ("main", b"\x00\x01\x02 garbage not-http\r\n\r\n"),
    "head": ("main", b"HEAD /sphere/1 HTTP/1.1\r\nHost: x\r\n\r\n"),
}

TIERS = ("worker", "router")


class RecordingWriter:
    """A handler's ``wfile`` that keeps every chunk written through it."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return self.inner.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


def record_writes(endpoint) -> list[RecordingWriter]:
    """Make ``endpoint``'s server record its writes; one writer per
    connection, in the order the connections arrived."""
    writers: list[RecordingWriter] = []

    class Recording(endpoint.server.RequestHandlerClass):
        def setup(self) -> None:
            super().setup()
            self.wfile = RecordingWriter(self.wfile)
            writers.append(self.wfile)

    endpoint.server.RequestHandlerClass = Recording
    return writers


def start_tier(tier: str, workdir: Path, stack: ExitStack) -> dict[str, Any]:
    """The ``main`` and ``shedding`` servers of ``tier`` over one 60-node
    index, each with the writers :func:`record_writes` gave it; ``stack``
    closes them."""
    graph = assign_fixed(powerlaw_outdegree_digraph(60, mean_degree=5.0, seed=7), 0.15)
    store = workdir / "idx"
    CascadeIndex.build(graph, 8, seed=11).save(store, format="store")
    shedding = {"max_inflight": 0, "retry_after": SHED_SECONDS}
    if tier == "worker":
        write_family(store, nodes=WARM_NODES)
        servers = {
            "main": RunningServer(SphereService(store)),
            "shedding": RunningServer(SphereService(store, **shedding)),
        }
    else:
        fleet = workdir / "fleet"
        partition_store(store, fleet, 2)
        partition = load_partition(fleet)
        servers = {
            "main": RouterUnderTest(partition, fleet),
            "shedding": RouterUnderTest(partition, fleet, service_kwargs=shedding),
        }
    for server in servers.values():
        stack.callback(server.close)
    return {name: (server, record_writes(server)) for name, server in servers.items()}


def exchange(servers: dict[str, Any], case: str) -> tuple[bytes, list[bytes]]:
    """The raw response to ``case`` and the writes that sent it."""
    name, request = CASES[case]
    endpoint, writers = servers[name]
    seen = len(writers)
    with fault_scope(FAULTS.get(case, [])):
        response = endpoint.raw(request)
    assert len(writers) == seen + 1, "expected one connection per request"
    return response, writers[-1].writes


def mask(case: str, response: bytes) -> str:
    """``response`` as text, the values that vary between runs masked."""
    text = response.decode("latin-1")
    text = re.sub(r"(?m)^(Date|Server): [^\r]*\r$", r"\1: *\r", text)
    if case == "metrics":
        text = re.sub(r"(?m)^Content-Length: \d+\r$", "Content-Length: *\r", text)
        text = text.partition("\r\n\r\n")[0] + "\r\n\r\n*"
    return text


def without_retry_after(text: str) -> str:
    return re.sub(r"(?m)^Retry-After: [^\r]*\r$", "Retry-After: *\r", text)


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    with ExitStack() as stack:
        yield {
            tier: start_tier(tier, tmp_path_factory.mktemp(f"wire-{tier}"), stack)
            for tier in TIERS
        }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("case", list(CASES))
def test_one_write_with_parent_bytes(tiers, golden, tier, case):
    response, writes = exchange(tiers[tier], case)
    assert len(writes) == 1, f"{len(writes)} writes: {writes!r}"
    assert writes[0] == response
    assert without_retry_after(mask(case, response)) == without_retry_after(
        golden[tier][case]
    )
    if case == "shed":
        assert f"\r\nRetry-After: {SHED_RETRY_AFTER}\r\n".encode() in response


def regenerate() -> None:
    captured: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp, ExitStack() as stack:
        for tier in TIERS:
            workdir = Path(tmp) / tier
            workdir.mkdir()
            servers = start_tier(tier, workdir, stack)
            captured[tier] = {
                case: mask(case, exchange(servers, case)[0]) for case in CASES
            }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(captured, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
