#!/usr/bin/env python
"""Chaos gate for the sharded serving tier (.github/workflows/ci.yml).

Partitions a tiny store with ``repro index shard``, runs a real
``python -m repro serve-fleet`` process (frontend router + three
supervised worker processes), and verifies the *either correct or
refused* contract one level up the stack:

1. **faulted hammer** — with ``REPRO_FAULTS`` arming injected
   ``router.forward`` transport failures, every routed response is
   byte-identical to a serially-computed single-process reference or an
   explicit JSON 4xx/5xx; the refused nodes recover on retry, and the
   injected failures are visible in the router's ``/metrics``;
2. **worker SIGKILL mid-hammer** — one shard's worker is killed while
   traffic is in flight; every response during the outage is correct
   bytes or an explicit refusal (no hangs, no garbage), the supervisor
   respawns the worker with a new pid, and the fleet returns to
   ``healthz: ok`` with full byte parity;
3. **rolling SIGHUP reload mid-hammer** — a rolling generation-checked
   reload sweeps the fleet while requests are in flight; zero requests
   are dropped or refused, and every shard reports ``store_generation``
   2 afterwards;
4. **open-loop smoke** — perfbench's open-loop generator sends 80
   mixed reads (sphere, cascade stats, 8-node batch) at 40/s; at least
   78 answer, and no sphere answer differs from the reference bytes;
   30 sphere requests on one keep-alive connection through the router
   have a median under 15 ms;
5. **graceful drain** — SIGTERM shuts the router and all workers down
   cleanly (exit code 0, drain banner printed).

Run from the repository root::

    PYTHONPATH=src python scripts/check_chaos_router.py
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gatelib import (
    SMOKE_COUNT, Hammer, acceptable, check, drain, fetch, get_json,
    keepalive_ms, metric_value, metrics_text, read_smoke, reference_bodies,
    repro, start_server, subprocess_env, sweep, until,
)

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.runtime.faults import FaultPlan, FaultSpec

SAMPLES = 6
SEED = 20160626
NUM_NODES = 60
NUM_SHARDS = 3
FAULT_SHARD = 1   # router.forward transport failures injected here
KILL_SHARD = 2    # its worker is SIGKILLed mid-hammer

#: Statuses that count as an explicit refusal under the routed contract
#: (the worker set plus the router's own 502 upstream-failure surface).
REFUSALS = (429, 500, 502, 503, 504)

_SERVING = re.compile(r"\[fleet\] shard (\d+) pid (\d+) serving on (\S+)")


def worker_pids(fleet) -> dict[int, int]:
    """Latest pid per shard, from the spawn events seen so far."""
    return {
        int(match.group(1)): int(match.group(2))
        for match in map(_SERVING.search, list(fleet.lines))
        if match
    }


def main() -> int:
    graph = assign_fixed(
        powerlaw_outdegree_digraph(NUM_NODES, mean_degree=5.0, seed=7), 0.15
    )
    index = CascadeIndex.build(graph, SAMPLES, seed=SEED)

    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "idx"
        fleet_dir = Path(tmp) / "fleet"
        index.save(store, format="store")
        reference = reference_bodies(store, range(NUM_NODES))

        print("phase 0: partition the store with `repro index shard`")
        shard_cli = repro("index", "shard", str(store), "--shards",
                          str(NUM_SHARDS), "--out", str(fleet_dir))
        check("index shard exits 0", shard_cli.returncode == 0)
        check("partition map written",
              (fleet_dir / "partition.json").is_file())

        faults = FaultPlan.of(
            FaultSpec(site="router.forward", kind="error", key=FAULT_SHARD,
                      attempts=(2, 5)),
        )
        fleet, base = start_server(
            Path(tmp), "fleet", "serve-fleet", str(fleet_dir),
            env=subprocess_env(faults),
        )
        try:
            print(f"router: {base}, shards: {worker_pids(fleet)}")
            check("all workers announced a pid",
                  set(worker_pids(fleet)) == set(range(NUM_SHARDS)))

            print("phase 1: faulted hammer vs serial single-process reference")
            results = sweep(base, range(NUM_NODES))
            bad = [
                node
                for node, (status, body) in sorted(results.items())
                if not acceptable(status, body, [reference[node]], REFUSALS)
            ]
            check("every routed response is correct bytes or explicit refusal",
                  bad == [])
            refused = [n for n, (s, _) in sorted(results.items()) if s != 200]
            check("injected router.forward faults surfaced as refusals",
                  len(refused) == 2
                  and all(results[n][0] == 502 for n in refused))
            for node in refused:
                status, _, body = fetch(base, f"/sphere/{node}")
                check(f"refused node {node} recovers on retry",
                      status == 200 and body == reference[node])

            batch_nodes = [0, 25, 45, 59, 13]
            status, _, body = fetch(base, "/spheres", method="POST",
                                    body={"nodes": batch_nodes})
            payload = json.loads(body)
            check(
                "scatter-gather batch matches per-node reference payloads",
                status == 200 and payload["count"] == len(batch_nodes)
                and all(
                    entry == json.loads(reference[node])
                    for node, entry in zip(batch_nodes, payload["results"])
                ),
            )

            text = metrics_text(base)
            check("metrics: injected forwards counted", metric_value(
                text,
                'repro_router_forward_failures_total'
                f'{{kind="injected",replica="0",shard="{FAULT_SHARD}"}}') == 2)
            check("metrics: worker samples carry shard labels",
                  f'shard="{KILL_SHARD}"' in text)

            print("phase 2: worker SIGKILL mid-hammer, supervisor respawn")
            first_pid = worker_pids(fleet)[KILL_SHARD]
            hammer = Hammer(base, range(NUM_NODES), (reference,),
                            refusals=REFUSALS)
            time.sleep(0.3)
            subprocess.run(["kill", "-9", str(first_pid)], check=True)
            fleet.wait_for(
                rf"\[fleet\] shard {KILL_SHARD} pid (?!{first_pid}\b)\d+ serving",
                90.0,
            )
            # Let the respawned worker absorb routed traffic before stopping.
            recovered = until(
                lambda: get_json(base, "/healthz").get("status") == "ok",
                timeout=30.0)
            failures = hammer.stop()
            check("supervisor respawned the killed worker with a new pid",
                  worker_pids(fleet)[KILL_SHARD] != first_pid)
            check("fleet healthz back to ok after respawn", recovered)
            check("outage responses were correct bytes or explicit refusals",
                  failures == [])
            lo = KILL_SHARD * NUM_NODES // NUM_SHARDS
            parity = [fetch(base, f"/sphere/{n}") for n in range(lo, lo + 5)]
            check(
                "respawned shard serves byte-identical spheres",
                all(s == 200 and b == reference[n]
                    for n, (s, _, b) in zip(range(lo, lo + 5), parity)),
            )

            print("phase 3: rolling SIGHUP reload mid-hammer")
            hammer = Hammer(base, range(NUM_NODES), (reference,))
            time.sleep(0.2)
            fleet.proc.send_signal(signal.SIGHUP)
            advanced = until(
                lambda: [
                    shard["store_generation"]
                    for shard in get_json(base, "/healthz").get("shards", [])
                ] == [2] * NUM_SHARDS,
                timeout=30.0)
            failures = hammer.stop()
            check("rolling reload advanced every shard to generation 2",
                  advanced)
            check("zero dropped or refused requests across the rolling reload",
                  failures == [])
            # The reload's summary line goes to the fleet's stderr log.
            check("rolling reload summary line in the fleet log", until(
                lambda: "rolling reload reloaded" in fleet.log_tail(1000),
                timeout=30.0))
            check("metrics: rolling reload counted ok", metric_value(
                metrics_text(base),
                'repro_router_reloads_total{result="ok"}') == 1)

            print("phase 4: open-loop smoke against the router")
            phase = read_smoke(base, reference)
            check(f"smoke: all {SMOKE_COUNT} open-loop requests completed",
                  len(phase.outcomes) == SMOKE_COUNT)
            check(f"smoke: at least {SMOKE_COUNT - 2} answers ok, none wrong "
                  "against the reference",
                  len(phase.ok()) >= SMOKE_COUNT - 2
                  and all(o.verdict != "wrong" for o in phase.outcomes))
            median = keepalive_ms(base, "/sphere/0")
            print(f"  keep-alive through the router: median {median:.2f} ms")
            check("keep-alive: median of 30 requests on one connection under 15 ms",
                  median < 15.0)

            print("phase 5: graceful drain")
            drain(fleet, banner="drain banner printed")
        finally:
            fleet.stop()

    print("all chaos-router checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
