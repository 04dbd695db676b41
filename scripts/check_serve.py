#!/usr/bin/env python
"""CI gate for the online sphere-query service (.github/workflows/ci.yml).

Runs the real ``python -m repro serve`` process end to end against a tiny
persistent index carrying a precomputed sphere family, and fails loudly on
any deviation:

1. every endpoint answers (healthz, sphere, cascades, batch,
   most-reliable, metrics);
2. warm-path proof: with 12 spheres in the store's family, sphere queries
   of those nodes perform
   **zero** ``TypicalCascadeComputer`` calls
   (``repro_serve_computes_total`` stays 0);
3. a cold query is shed with ``429`` + ``Retry-After`` (the server runs
   with ``--max-inflight 0``) and the shed counter moves;
4. keep-alive: 30 warm sphere requests on one connection have a median
   under 15 ms (a response written as two writes waits ~40 ms for the
   client's delayed ACK);
5. ``index query --json`` and ``GET /sphere/{node}`` return
   byte-identical JSON;
6. SIGTERM shuts the server down cleanly (exit code 0).

Run from the repository root::

    PYTHONPATH=src python scripts/check_serve.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from gatelib import (
    check, drain, fetch, keepalive_ms, metric_value, repro, start_server,
)

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.store.family import write_family

SAMPLES = 8
SEED = 20160626
WARM_NODES = tuple(range(12))


def main() -> int:
    graph = assign_fixed(
        powerlaw_outdegree_digraph(80, mean_degree=5.0, seed=7), 0.15
    )
    index = CascadeIndex.build(graph, SAMPLES, seed=SEED)

    with tempfile.TemporaryDirectory() as tmp:
        index_path = Path(tmp) / "idx"
        index.save(index_path, format="store")
        write_family(index_path, nodes=WARM_NODES)
        print(f"store: {graph.num_nodes} nodes, {SAMPLES} worlds, "
              f"{len(WARM_NODES)} precomputed spheres")

        server, base = start_server(
            Path(tmp), "serve", "serve", str(index_path),
            "--max-inflight", "0", "--retry-after", "2",
        )
        try:
            print(f"server: {base}")

            print("endpoints:")
            status, _, body = fetch(base, "/healthz")
            health = json.loads(body)
            check("healthz is ok", status == 200 and health["status"] == "ok")
            check(
                "healthz reports the precomputed spheres",
                health["precomputed_spheres"] == len(WARM_NODES),
            )

            warm_bodies = [fetch(base, f"/sphere/{v}") for v in WARM_NODES[:4]]
            check(
                "warm sphere queries answer 200",
                all(status == 200 for status, _, _ in warm_bodies),
            )
            status, _, body = fetch(base, "/cascades/3")
            check(
                "cascades stats answer",
                status == 200 and json.loads(body)["num_worlds"] == SAMPLES,
            )
            status, _, body = fetch(base, "/cascades/3?world=1")
            check("cascades world answer", status == 200)
            status, _, body = fetch(base, "/most-reliable?count=3")
            check(
                "most-reliable answers from the store",
                status == 200 and len(json.loads(body)["nodes"]) <= 3,
            )
            status, _, body = fetch(
                base, "/spheres", method="POST",
                body={"nodes": list(WARM_NODES[:3])},
            )
            check(
                "batch endpoint answers all nodes",
                status == 200 and json.loads(body)["count"] == 3,
            )
            status, _, _ = fetch(base, f"/sphere/{graph.num_nodes + 5}")
            check("missing node is 404", status == 404)

            print("shed path (--max-inflight 0):")
            cold = max(WARM_NODES) + 1
            status, headers, body = fetch(base, f"/sphere/{cold}")
            check("cold sphere query is shed with 429", status == 429)
            check(
                "429 carries Retry-After",
                headers.get("Retry-After") == "2",
            )

            print("metrics:")
            status, _, body = fetch(base, "/metrics")
            check("metrics endpoint answers", status == 200)
            text = body.decode()
            check(
                "warm-path proof: zero TypicalCascadeComputer calls",
                metric_value(text, "repro_serve_computes_total") == 0,
            )
            check(
                "store hits counted",
                metric_value(text, "repro_serve_store_hits_total") >= 4,
            )
            check(
                "shed counter moved",
                metric_value(text, "repro_serve_shed_total") >= 1,
            )
            check(
                "request counter moved",
                metric_value(
                    text,
                    'repro_serve_requests_total{endpoint="sphere",status="200"}',
                ) >= 4,
            )

            print("keep-alive:")
            median = keepalive_ms(base, f"/sphere/{WARM_NODES[0]}")
            print(f"  median {median:.2f} ms")
            check(
                "keep-alive: median of 30 requests on one connection under 15 ms",
                median < 15.0,
            )

            print("CLI/server JSON parity:")
            node = WARM_NODES[1]
            _, _, http_body = fetch(base, f"/sphere/{node}")
            cli = repro(
                "index", "query", str(index_path), "--node", str(node),
                "--sphere", "--json",
            )
            check("CLI query --json exits 0", cli.returncode == 0)
            check(
                "CLI and server JSON byte-identical",
                cli.stdout.rstrip("\n").encode() == http_body,
            )

            print("graceful shutdown:")
            drain(server, banner="drain message printed")
        finally:
            server.stop()

    print("all serve checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
