#!/usr/bin/env python
"""Chaos gate for the replicated serving tier (.github/workflows/ci.yml).

Partitions a tiny store into a 2 shards x 2 replicas fleet with
``repro index shard --replicas 2``, runs a real ``python -m repro
serve-fleet`` process (replica-aware router + four supervised worker
processes), and verifies the replication contract one level up:

1. **deterministic failover + hedge** — an injected ``router.forward``
   transport failure on one replica is absorbed by transparent failover
   (200, byte parity), and an injected stall on another replica is
   beaten by a deadline-aware hedged read; both are visible in
   ``/metrics``;
2. **replica SIGKILL mid-hammer** — one replica of a shard is killed
   while strict traffic is in flight: zero non-200 responses, zero
   wrong bytes (peers absorb the outage), the fleet reports
   ``degraded`` during the window, and the supervisor respawns the
   replica back to ``healthz: ok``;
3. **scrub quarantines, repair restores** — a replica's column file is
   byte-corrupted on disk; ``POST /admin/scrub`` quarantines exactly
   that replica, traffic keeps flowing byte-identically on the verified
   peer, ``POST /admin/repair`` rebuilds it from the healthy peer, and
   a re-scrub comes back clean;
4. **whole shard down** — with every replica of one shard killed the
   router refuses with an explicit ``503`` + ``Retry-After`` (never a
   hang or garbage) while the other shard keeps serving, and the shard
   recovers on respawn;
5. **rolling SIGHUP reload** — every replica of every shard advances to
   ``store_generation`` 2;
6. **open-loop smoke** — perfbench's open-loop generator sends 80
   mixed reads at 40/s: availability (byte-correct answers over all
   requests) is at least 0.97, sheds are counted, and no sphere answer
   differs from the reference bytes;
7. **graceful drain** — SIGTERM shuts router and workers down cleanly.

Run from the repository root::

    PYTHONPATH=src python scripts/check_chaos_replica.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gatelib import (
    SMOKE_COUNT, Hammer, check, drain, fetch, get_json, metric_value,
    metrics_text, read_smoke, reference_bodies, repro, start_server,
    subprocess_env, until,
)

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.problearn.assign import assign_fixed
from repro.runtime.faults import FaultPlan, FaultSpec

SAMPLES = 6
SEED = 20160626
NUM_NODES = 60
NUM_SHARDS = 2
NUM_REPLICAS = 2
FAULT_SHARD = 1    # injected transport failure on its replica 0 -> failover
HEDGE_SHARD = 0    # injected stall on its replica 0 -> hedge wins
KILL_SHARD = 1     # loses one replica mid-hammer, later the whole shard
SCRUB_SHARD = 0    # its replica 1 gets a corrupted column on disk

_SERVING = re.compile(
    r"\[fleet\] shard (\d+) replica (\d+) pid (\d+) serving on (\S+)"
)


def shard_nodes(shard_id: int) -> range:
    """The node range owned by ``shard_id`` (canonical near-equal split)."""
    per = NUM_NODES // NUM_SHARDS
    return range(shard_id * per, (shard_id + 1) * per)


def worker_pids(fleet) -> dict[tuple[int, int], int]:
    """Latest pid per (shard, replica), from the spawn events so far."""
    return {
        (int(match.group(1)), int(match.group(2))): int(match.group(3))
        for match in map(_SERVING.search, list(fleet.lines))
        if match
    }


def healthz_when(base: str, predicate, timeout: float = 60.0) -> dict:
    """The first ``/healthz`` payload that satisfies ``predicate``."""
    payload = until(
        lambda: (payload := get_json(base, "/healthz")) and predicate(payload)
        and payload,
        timeout=timeout, interval=0.02,
    )
    if payload is None:
        raise AssertionError(f"no matching /healthz within {timeout:g}s")
    return payload


def corrupt_column(replica_dir: Path) -> str:
    """Byte-corrupt the first column of a replica via ``os.replace``.

    Replicas are hardlinked at partition time, so writing through the
    link would corrupt the peer too; a rename swaps in a fresh inode and
    diverges only this replica — exactly the failure scrub pins down.
    """
    target = sorted(replica_dir.glob("*.npy"))[0]
    junk = replica_dir / (target.name + ".junk")
    junk.write_bytes(b"not a column" * 64)
    os.replace(junk, target)
    return target.name


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

        print("phase 0: partition with `repro index shard --replicas 2`")
        shard_cli = repro("index", "shard", str(store), "--shards",
                          str(NUM_SHARDS), "--replicas", str(NUM_REPLICAS),
                          "--out", str(fleet_dir))
        check("index shard exits 0", shard_cli.returncode == 0)
        check("replica directories written", all(
            (fleet_dir / name).is_dir()
            for name in ("shard-00.cidx", "shard-00.r1.cidx",
                         "shard-01.cidx", "shard-01.r1.cidx")
        ))
        scrub_cli = repro("shard", "scrub", str(fleet_dir))
        check("`repro shard scrub` passes a fresh fleet",
              scrub_cli.returncode == 0
              and "every replica matches" in scrub_cli.stdout)

        faults = FaultPlan.of(
            FaultSpec(site="router.forward", kind="error",
                      key=f"{FAULT_SHARD}/0"),
            FaultSpec(site="router.forward", kind="sleep",
                      key=f"{HEDGE_SHARD}/0", seconds=1.5),
        )
        fleet, base = start_server(
            Path(tmp), "fleet", "serve-fleet", str(fleet_dir),
            "--hedge-after", "0.2", env=subprocess_env(faults),
        )
        try:
            print(f"router: {base}, workers: {worker_pids(fleet)}")
            check("all shard x replica workers announced a pid",
                  set(worker_pids(fleet)) == {
                      (s, r)
                      for s in range(NUM_SHARDS)
                      for r in range(NUM_REPLICAS)
                  })
            # No /healthz before phase 1: health polls traverse the same
            # ``router.forward`` fault site and would consume the
            # single-occurrence injected faults armed for the next phase.
            print("phase 1: injected failover and hedged read")
            node = shard_nodes(FAULT_SHARD)[0]
            status, _, body = fetch(base, f"/sphere/{node}")
            check("injected transport failure fails over transparently",
                  status == 200 and body == reference[node])
            node = shard_nodes(HEDGE_SHARD)[0]
            started = time.monotonic()
            status, _, body = fetch(base, f"/sphere/{node}")
            elapsed = time.monotonic() - started
            check("hedge beats the stalled primary, byte-identical",
                  status == 200 and body == reference[node]
                  and elapsed < 1.5)
            text = metrics_text(base)
            check("metrics: failover counted", metric_value(
                text,
                f'repro_router_failovers_total{{shard="{FAULT_SHARD}"}}') == 1)
            check("metrics: injected forward failure carries replica label",
                  metric_value(
                      text,
                      'repro_router_forward_failures_total'
                      f'{{kind="injected",replica="0",shard="{FAULT_SHARD}"}}'
                  ) == 1)
            check("metrics: hedge counted", metric_value(
                text,
                f'repro_router_hedges_total{{shard="{HEDGE_SHARD}"}}') == 1)
            payload = healthz_when(base, lambda p: p["status"] == "ok")
            check("healthz reports the replica topology",
                  payload["replicas"] == NUM_REPLICAS and all(
                      shard["replicas_total"] == NUM_REPLICAS
                      and shard["replicas_healthy"] == NUM_REPLICAS
                      for shard in payload["shards"]
                  ))

            print("phase 2: replica SIGKILL mid-hammer — zero non-200s")
            first_pid = worker_pids(fleet)[(KILL_SHARD, 0)]
            hammer = Hammer(base, range(NUM_NODES), (reference,))
            time.sleep(0.3)
            subprocess.run(["kill", "-9", str(first_pid)], check=True)
            degraded = healthz_when(
                base, lambda p: p["status"] in ("degraded", "ok")
                and p["shards"][KILL_SHARD]["replicas_healthy"] < NUM_REPLICAS
            )
            check("fleet degrades while the replica is down",
                  degraded["status"] == "degraded")
            fleet.wait_for(
                rf"\[fleet\] shard {KILL_SHARD} replica 0 pid "
                rf"(?!{first_pid}\b)\d+ serving", 90.0,
            )
            healthz_when(base, lambda p: p["status"] == "ok")
            failures = hammer.stop()
            check("supervisor respawned the replica with a new pid",
                  worker_pids(fleet)[(KILL_SHARD, 0)] != first_pid)
            check("zero non-200 and zero wrong-byte responses in the outage",
                  failures == [])

            print("phase 3: corrupt a column, scrub quarantines, repair heals")
            corrupt_column(fleet_dir / f"shard-0{SCRUB_SHARD}.r1.cidx")
            status, _, body = fetch(base, "/admin/scrub", method="POST",
                                    body={})
            payload = json.loads(body)
            check("scrub flags exactly the corrupted replica",
                  status == 200 and payload["ok"] is False
                  and [(e["shard_id"], e["replica"])
                       for e in payload["quarantined"]] == [(SCRUB_SHARD, 1)])
            health = get_json(base, "/healthz")
            check("healthz shows the quarantined replica",
                  health["status"] == "degraded"
                  and health["shards"][SCRUB_SHARD]["replicas"][1]["status"]
                  == "quarantined")
            parity = [
                fetch(base, f"/sphere/{n}")
                for n in list(shard_nodes(SCRUB_SHARD))[:8]
            ]
            check("quarantined shard keeps serving byte-identically via peer",
                  all(s == 200 and b == reference[n]
                      for n, (s, _, b) in zip(shard_nodes(SCRUB_SHARD),
                                              parity)))
            status, _, body = fetch(
                base, "/admin/repair", method="POST",
                body={"shard": SCRUB_SHARD, "replica": 1},
            )
            payload = json.loads(body)
            check("repair rebuilds from the healthy peer",
                  status == 200 and payload["status"] == "repaired"
                  and payload["source_replica"] == 0)
            status, _, body = fetch(base, "/admin/scrub", method="POST",
                                    body={})
            check("re-scrub is clean after repair",
                  status == 200 and json.loads(body)["ok"] is True)
            healthz_when(base, lambda p: p["status"] == "ok")
            scrub_cli = repro("shard", "scrub", str(fleet_dir))
            check("offline `repro shard scrub` agrees the fleet is clean",
                  scrub_cli.returncode == 0)

            print("phase 4: whole shard down — explicit 503, peer shard serves")
            pids = worker_pids(fleet)
            for replica in range(NUM_REPLICAS):
                subprocess.run(
                    ["kill", "-9", str(pids[(KILL_SHARD, replica)])],
                    check=True,
                )
            healthz_when(
                base,
                lambda p: p["shards"][KILL_SHARD]["replicas_healthy"] == 0,
            )
            down_node = shard_nodes(KILL_SHARD)[0]
            up_node = shard_nodes(1 - KILL_SHARD)[0]
            saw_503 = False
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not saw_503:
                status, headers, body = fetch(base, f"/sphere/{down_node}")
                if status == 200:
                    # A replica respawned under us; re-open the window.
                    for key, pid in worker_pids(fleet).items():
                        if key[0] == KILL_SHARD:
                            subprocess.run(["kill", "-9", str(pid)])
                    time.sleep(0.05)
                    continue
                check("downed shard refuses explicitly, never garbage",
                      status in (502, 503) and "error" in json.loads(body))
                if status == 503:
                    check("503 carries Retry-After", "Retry-After" in headers)
                    saw_503 = True
            check("shard with zero replicas surfaced a 503 + Retry-After",
                  saw_503)
            status, _, body = fetch(base, f"/sphere/{up_node}")
            check("the other shard keeps serving byte-identically",
                  status == 200 and body == reference[up_node])
            healthz_when(base, lambda p: p["status"] == "ok")
            status, _, body = fetch(base, f"/sphere/{down_node}")
            check("downed shard recovers after respawn",
                  status == 200 and body == reference[down_node])

            print("phase 5: rolling SIGHUP reload across every replica")
            fleet.proc.send_signal(signal.SIGHUP)
            healthz_when(base, lambda p: p["status"] == "ok" and all(
                replica["store_generation"] == 2
                for shard in p["shards"]
                for replica in shard["replicas"]
            ))
            check("metrics: rolling reload counted ok", metric_value(
                metrics_text(base),
                'repro_router_reloads_total{result="ok"}') == 1)

            print("phase 6: open-loop smoke against the replicated fleet")
            phase = read_smoke(base, reference)
            completed = len(phase.outcomes)
            shed = sum(o.status == 429 for o in phase.outcomes)
            print(f"  availability {len(phase.ok()) / completed:.3f}, {shed} shed")
            check(f"smoke: all {SMOKE_COUNT} open-loop requests completed",
                  completed == SMOKE_COUNT)
            check("smoke: availability >= 0.97, none wrong against the "
                  "reference", len(phase.ok()) >= 0.97 * completed
                  and all(o.verdict != "wrong" for o in phase.outcomes))

            print("phase 7: graceful drain")
            drain(fleet, banner="drain banner printed")
        finally:
            fleet.stop()

    print("all chaos-replica checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
