#!/usr/bin/env python
"""Chaos gate for the resilient serving stack (.github/workflows/ci.yml).

Hammers a real ``python -m repro serve`` process while injecting the
failure modes the resilience layer claims to absorb, and verifies the
*either correct or refused* contract end to end:

1. **faulted hammer** — with ``REPRO_FAULTS`` arming an injected compute
   error (a request-level crash) and an over-deadline sleep, every
   response is either byte-identical to a serially-computed reference or
   an explicit JSON 4xx/5xx; the faulted nodes then recover on retry;
2. **mid-traffic hot reload** — ``index append`` grows the store on disk,
   SIGHUP swaps it in while requests are in flight; every in-flight
   response matches the old or the new generation's reference bytes, and
   post-reload digests match an uninterrupted run of the new store;
3. **reload rollback** — a candidate store with a flipped byte is refused
   by ``POST /admin/reload`` (500, ``rolled back``) and the old
   generation keeps serving, byte-identical;
4. **read-time quarantine** — a server on a corrupted copy answers the
   touching query with an explicit ``500 store-corrupt``, reports the
   quarantined column in ``/healthz`` + ``/metrics``, and keeps running;
5. both servers shut down cleanly on SIGTERM (exit code 0).

Run from the repository root::

    PYTHONPATH=src python scripts/check_chaos_serve.py
"""

from __future__ import annotations

import shutil
import signal
import sys
import tempfile
from pathlib import Path

from gatelib import (
    Hammer, acceptable, check, drain, fetch, get_json, metric_value,
    metrics_text, reference_bodies, repro, start_server, subprocess_env,
    sweep, until,
)

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.runtime.faults import FaultPlan, FaultSpec

SAMPLES = 6
SEED = 20160626
NUM_NODES = 60
HAMMER_NODES = tuple(range(30))
ERROR_NODE = 13   # injected compute error (request-level crash)
SLEEP_NODE = 17   # injected over-deadline sleep (wedged compute)
DEADLINE = 1.0

#: Statuses that count as an explicit refusal under the contract.
REFUSALS = (429, 500, 503, 504)


def corrupt_copy(store: Path, copy: Path) -> None:
    """Copy ``store`` to ``copy`` and flip one byte of its members column."""
    shutil.copytree(store, copy)
    damaged = copy / "members.npy"
    blob = bytearray(damaged.read_bytes())
    blob[-64] ^= 0xFF
    damaged.write_bytes(bytes(blob))


def main() -> int:
    graph = assign_fixed(
        powerlaw_outdegree_digraph(NUM_NODES, mean_degree=5.0, seed=7), 0.15
    )
    index = CascadeIndex.build(graph, SAMPLES, seed=SEED)

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "idx"
        index.save(store, format="store")
        reference = reference_bodies(store, HAMMER_NODES)
        print(f"store: {NUM_NODES} nodes, {SAMPLES} worlds, "
              f"{len(HAMMER_NODES)} reference spheres")

        faults = FaultPlan.of(
            FaultSpec(site="serve.compute", kind="error", key=ERROR_NODE),
            FaultSpec(site="serve.compute", kind="sleep", key=SLEEP_NODE,
                      seconds=3.0),
        )
        server, base = start_server(
            Path(tmp), "serve", "serve", str(store), "--deadline",
            str(DEADLINE), "--max-inflight", "8", env=subprocess_env(faults),
        )
        corrupt_server = None
        try:
            print("phase 1: faulted hammer vs serial reference")
            results = sweep(base, HAMMER_NODES)
            bad = [
                node
                for node, (status, body) in results.items()
                if not acceptable(status, body, [reference[node]], REFUSALS)
            ]
            check("every response is correct bytes or an explicit refusal",
                  bad == [])
            check("injected compute error surfaced as a 5xx",
                  results[ERROR_NODE][0] in (500, 503))
            check("wedged compute surfaced as 504 deadline-exceeded",
                  results[SLEEP_NODE][0] in (503, 504))
            refused = [n for n, (s, _) in results.items() if s != 200]
            for node in refused:
                status, _, body = fetch(base, f"/sphere/{node}")
                check(f"faulted node {node} recovers on retry",
                      status == 200 and body == reference[node])

            text = metrics_text(base)
            check("metrics: injected error counted", metric_value(
                text, 'repro_serve_compute_failures_total{kind="error"}') >= 1)
            check("metrics: timeout counted", metric_value(
                text, 'repro_serve_compute_failures_total{kind="timeout"}') >= 1)
            check("metrics: 504s counted", metric_value(
                text, "repro_serve_deadline_exceeded_total") >= 1)

            print("phase 2: mid-traffic SIGHUP hot reload")
            append = repro("index", "append", str(store), "--samples", "2")
            check("index append exits 0", append.returncode == 0)
            reference_v2 = reference_bodies(store, HAMMER_NODES)

            hammer = Hammer(base, HAMMER_NODES, (reference, reference_v2),
                            refusals=REFUSALS)
            server.proc.send_signal(signal.SIGHUP)
            reloaded = until(
                lambda: get_json(base, "/healthz").get("generation") == 2,
                timeout=30.0)
            invalid = hammer.stop()
            check("SIGHUP swapped to generation 2", reloaded)
            check("zero invalid responses across the reload", invalid == [])
            health = get_json(base, "/healthz")
            check("reloaded store serves the appended worlds",
                  health["num_worlds"] == SAMPLES + 2)
            parity = [fetch(base, f"/sphere/{n}") for n in HAMMER_NODES[:8]]
            check(
                "post-reload bytes match an uninterrupted run",
                all(s == 200 and b == reference_v2[n]
                    for n, (s, _, b) in zip(HAMMER_NODES[:8], parity)),
            )

            print("phase 3: verified reload rolls back a corrupt candidate")
            candidate = Path(tmp) / "candidate"
            corrupt_copy(store, candidate)
            status, _, body = fetch(
                base, "/admin/reload", method="POST",
                body={"index": str(candidate)},
            )
            check("corrupt candidate refused with 500",
                  status == 500 and b"rolled back" in body)
            health = get_json(base, "/healthz")
            check("rollback kept generation 2 serving",
                  health["generation"] == 2 and health["status"] == "ok")
            status, _, body = fetch(base, f"/sphere/{HAMMER_NODES[2]}")
            check("old generation still byte-identical after rollback",
                  status == 200 and body == reference_v2[HAMMER_NODES[2]])
            check("metrics: rollback counted", metric_value(
                metrics_text(base),
                'repro_serve_reloads_total{result="rolled_back"}') == 1)

            print("phase 4: read-time corruption quarantine")
            corrupt_store = Path(tmp) / "corrupt"
            corrupt_copy(store, corrupt_store)
            corrupt_server, corrupt_base = start_server(
                Path(tmp), "corrupt", "serve", str(corrupt_store),
                "--verify", "lazy",
            )
            status, _, body = fetch(corrupt_base, f"/sphere/{HAMMER_NODES[0]}")
            check("corrupted column answers an explicit 500",
                  status == 500 and b"quarantined" in body)
            status, _, body = fetch(corrupt_base, f"/sphere/{HAMMER_NODES[1]}")
            check("quarantine fast-fails later touches", status == 500)
            health = get_json(corrupt_base, "/healthz")
            check(
                "healthz reports degraded + the quarantined column",
                health["status"] == "degraded"
                and health["quarantined_columns"] == ["members"],
            )
            text = metrics_text(corrupt_base)
            check("metrics: store corruption counted",
                  metric_value(text, "repro_serve_store_corrupt_total") >= 2)
            check("metrics: quarantine gauge set", metric_value(
                text, "repro_serve_quarantined_columns") == 1)

            print("phase 5: graceful shutdown")
            drain(server, "main server: ")
            drain(corrupt_server, "corrupt server: ")
        finally:
            server.stop()
            if corrupt_server is not None:
                corrupt_server.stop()

    print("all chaos-serve checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
