#!/usr/bin/env python
"""Chaos gate for the durable seed-selection job service
(.github/workflows/ci.yml).

Runs a real ``python -m repro serve --jobs`` process (process-mode
workers — the deployment shape) with torn-write faults armed on the
``jobs.commit`` journal site, keeps live ``/sphere`` read traffic
hammering throughout, and verifies the durability contract end to end:

1. **torn journal commit** — every job's first attempt tears its first
   ``step`` append (half a line hits the disk, the worker dies); the
   manager truncates the torn tail, respawns, and the finished job's
   result is byte-identical to an uninterrupted serial reference;
2. **worker SIGKILL mid-selection** — a slow job's worker process is
   SIGKILLed after >= 2 committed steps; the respawned attempt resumes
   from the journalled prefix and the final seed set has byte parity
   with the serial reference (resume purity);
3. **cancellation frees every slot** — running and queued jobs are
   cancelled over HTTP; afterwards the ``repro_jobs_running`` and
   ``repro_jobs_queued`` gauges are both zero and a fresh job completes;
4. **idempotent submission** — re-submitting the same payload and key
   returns the same job id with ``deduplicated: true`` (status 200);
5. **deadline enforcement** — a job with an exceeded wall-clock deadline
   settles ``failed-permanent`` and frees its slot;
6. **live traffic unharmed** — the concurrent ``/sphere`` hammer saw
   only byte-correct responses across every chaos phase;
7. **open-loop smoke** — perfbench's open-loop generator submits a mix
   of every job model at 4/s; every submit is answered without error
   and every accepted job drains to a terminal state;
8. **graceful drain** — SIGTERM exits 0.

Run from the repository root::

    PYTHONPATH=src python scripts/check_chaos_jobs.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from gatelib import (
    Hammer, Op, check, drain, fetch, get_json, metric_value, metrics_text,
    open_loop, poisson_schedule, reference_bodies, start_server,
    subprocess_env, until,
)

from repro.cascades.index import CascadeIndex
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.jobs.select import run_to_completion
from repro.jobs.spec import JobSpec
from repro.problearn.assign import assign_fixed
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.serve import query as q

SAMPLES = 8
SEED = 20160626
NUM_NODES = 60
TERMINAL = ("done", "cancelled", "failed-permanent")

#: Job ids are assigned sequentially (j000001, j000002, ...), so each
#: phase knows its job's id up front and can key per-job fault specs.
TORN_JOB = "j000001"
KILL_JOB = "j000002"
SLOW_A, SLOW_B, QUEUED_JOB = "j000003", "j000004", "j000005"
# j000006 is the freed-slot probe of phase 3, j000007 the keyed submit of
# phase 4 — ids are sequential, so the deadline phase gets j000008.
DEADLINE_JOB = "j000008"

#: The smoke phase's submissions, one of every job model the service
#: runs, small enough to drain: (payload, weight).
JOB_MIX = (
    ({"model": "celfpp", "k": 3}, 3),
    ({"model": "greedy_tc", "k": 3}, 3),
    ({"model": "stability", "k": 3}, 2),
    ({"model": "ris", "k": 3, "num_rr_sets": 200, "rr_seed": 7}, 2),
)
#: Submits in the smoke phase and their Poisson arrival rate (per second).
SUBMIT_COUNT = 8
SUBMIT_RATE = 4.0


def build_store(tmp: Path) -> Path:
    graph = assign_fixed(
        powerlaw_outdegree_digraph(NUM_NODES, mean_degree=5.0, seed=7), 0.15
    )
    index = CascadeIndex.build(graph, SAMPLES, seed=11)
    store = tmp / "idx"
    index.save(store, format="store")
    return store


def reference_result(store: Path, payload: dict) -> bytes:
    """Canonical bytes of the uninterrupted serial selection."""
    index = CascadeIndex.load(store)
    spec = JobSpec.from_payload(payload, index.num_nodes)
    return q.canonical_json(run_to_completion(spec, index))


def settled(base: str, job_id: str, timeout: float = 120.0) -> dict:
    """The job's view once it reaches a terminal state."""
    view = until(
        lambda: (view := get_json(base, f"/jobs/{job_id}")).get("state")
        in TERMINAL and view,
        timeout=timeout,
    )
    if view is None:
        raise AssertionError(f"job {job_id} never settled within {timeout:g}s")
    return view


def gauges_zero(base: str) -> bool:
    """Both job gauges read zero (polled: the journal turns terminal a
    beat before the manager's drive loop settles the gauges)."""
    return bool(until(
        lambda: all(
            metric_value(metrics_text(base), gauge) == 0
            for gauge in ("repro_jobs_running", "repro_jobs_queued")
        ),
        timeout=15.0,
    ))


def submit_smoke(base: str) -> list[tuple[str, dict]]:
    """:data:`SUBMIT_COUNT` open-loop submits of the :data:`JOB_MIX` at
    :data:`SUBMIT_RATE`/s, each with its own idempotency key; checks every
    answer and returns the accepted (job id, payload) pairs."""
    rng = np.random.default_rng(SEED)
    weights = np.array([weight for _, weight in JOB_MIX], dtype=float)
    ops = []
    for i, pick in enumerate(rng.choice(len(JOB_MIX), SUBMIT_COUNT,
                                        p=weights / weights.sum())):
        payload = dict(JOB_MIX[pick][0], idempotency_key=f"smoke-{i}")
        ops.append(Op("POST", "/jobs/infmax", q.canonical_json(payload)))
    phase = open_loop(base, ops, poisson_schedule(rng, SUBMIT_COUNT, SUBMIT_RATE),
                      lambda op, body: "id" in json.loads(body))
    statuses = [o.status for o in phase.outcomes]
    print(f"  open loop: {len(statuses)} submits in {phase.seconds:.1f}s, "
          f"statuses {sorted(statuses)}")
    check("smoke: every submit answered, zero errors (429 is shedding)",
          len(statuses) == SUBMIT_COUNT
          and all(status in (200, 202, 429) for status in statuses))
    return [
        (json.loads(o.body)["id"], json.loads(o.op.body))
        for o in phase.outcomes
        if o.status in (200, 202)
    ]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp_str:
        tmp = Path(tmp_str)
        print("phase 0: build store + uninterrupted serial references")
        store = build_store(tmp)
        torn_payload = {"model": "celfpp", "k": 6}
        kill_payload = {"model": "greedy_tc", "k": 8}
        torn_reference = reference_result(store, torn_payload)
        kill_reference = reference_result(store, kill_payload)
        spheres = reference_bodies(store, range(NUM_NODES))

        # One fault plan for the whole serve process (workers inherit it):
        # - every job's attempt 0 tears its first `step` journal append;
        # - the SIGKILL-phase job runs slow on attempts 0-2 so the kill
        #   lands mid-selection and the resumed attempt is observable;
        # - the cancellation/deadline jobs run slow on every attempt.
        plan = FaultPlan.of(
            FaultSpec(site="jobs.commit", kind="torn", key="step",
                      attempts=(0,)),
            FaultSpec(site="jobs.step", kind="sleep", key=KILL_JOB,
                      attempts=(0, 1, 2), seconds=0.25),
            *[
                FaultSpec(site="jobs.step", kind="sleep", key=job,
                          attempts=(0, 1, 2, 3), seconds=0.5)
                for job in (SLOW_A, SLOW_B, QUEUED_JOB, DEADLINE_JOB)
            ],
        )
        jobs_dir = tmp / "jobs"
        server, base = start_server(
            tmp, "serve", "serve", str(store), "--jobs", "--jobs-dir",
            str(jobs_dir), env=subprocess_env(plan), banner="serve --jobs came up",
        )
        try:
            print(f"server: {base}")
            hammer = Hammer(base, range(0, NUM_NODES, 3), (spheres,), threads=1)

            print("phase 1: torn jobs.commit -> truncate, respawn, byte parity")
            status, _, body = fetch(base, "/jobs/infmax", method="POST",
                                    body=torn_payload)
            check("submit accepted (202)", status == 202)
            check("job id assigned as expected",
                  json.loads(body)["id"] == TORN_JOB)
            view = settled(base, TORN_JOB)
            check("torn job finished done", view["state"] == "done")
            check("torn write cost exactly one respawn", view["attempts"] == 2)
            status, _, body = fetch(base, f"/jobs/{TORN_JOB}/result")
            result = q.canonical_json(json.loads(body)["result"])
            check("result has byte parity with the serial reference",
                  status == 200 and result == torn_reference)
            journal_bytes = (jobs_dir / TORN_JOB / "journal.jsonl").read_bytes()
            check("repaired journal is newline-terminated (no torn tail)",
                  journal_bytes.endswith(b"\n"))

            print("phase 2: SIGKILL the worker mid-selection, resume parity")
            status, _, body = fetch(base, "/jobs/infmax", method="POST",
                                    body=kill_payload)
            check("kill-phase submit accepted",
                  status == 202 and json.loads(body)["id"] == KILL_JOB)
            view = until(
                lambda: (v := get_json(base, f"/jobs/{KILL_JOB}")).get("steps", 0) >= 2
                and v.get("worker_pid") and v["state"] == "running" and v,
                interval=0.02,
            )
            check(f"{KILL_JOB} running with >= 2 committed steps", view is not None)
            victim = view["worker_pid"]
            before_steps = view["steps"]
            subprocess.run(["kill", "-9", str(victim)], check=True)
            view = settled(base, KILL_JOB)
            check("killed job finished done", view["state"] == "done")
            check("the SIGKILL forced at least one extra attempt",
                  view["attempts"] >= 3)  # torn attempt + killed + finisher
            check("resume continued past the committed prefix",
                  view["steps"] == 8 and view["steps"] > before_steps)
            status, _, body = fetch(base, f"/jobs/{KILL_JOB}/result")
            check(
                "resumed seed set has byte parity with the serial reference",
                status == 200
                and q.canonical_json(json.loads(body)["result"])
                == kill_reference,
            )

            print("phase 3: cancellation frees every admission slot")
            for job, payload in (
                (SLOW_A, {"model": "celfpp", "k": 30}),
                (SLOW_B, {"model": "celfpp", "k": 31}),
                (QUEUED_JOB, {"model": "celfpp", "k": 32}),
            ):
                status, _, body = fetch(base, "/jobs/infmax", method="POST",
                                        body=payload)
                check(f"{job} submitted", status == 202
                      and json.loads(body)["id"] == job)
            # Default max_running is 2: the third job must be queued.
            check("third job queued behind the slot limit",
                  get_json(base, f"/jobs/{QUEUED_JOB}")["state"] == "queued")
            for job in (QUEUED_JOB, SLOW_A, SLOW_B):
                status, _, _ = fetch(base, f"/jobs/{job}/cancel",
                                     method="POST")
                check(f"cancel {job} accepted", status == 200)
            for job in (SLOW_A, SLOW_B, QUEUED_JOB):
                check(f"{job} settled cancelled",
                      settled(base, job)["state"] == "cancelled")
            check("running and queued gauges drained to 0", gauges_zero(base))
            status, _, body = fetch(base, "/jobs/infmax", method="POST",
                                    body={"model": "greedy_tc", "k": 3})
            probe = json.loads(body)["id"]
            check("freed slots admit and finish new work",
                  settled(base, probe)["state"] == "done")

            print("phase 4: idempotent double-submit")
            payload = {"model": "celfpp", "k": 4, "idempotency_key": "chaos-1"}
            status, _, body = fetch(base, "/jobs/infmax", method="POST",
                                    body=payload)
            first = json.loads(body)
            check("first keyed submit is 202", status == 202)
            status, _, body = fetch(base, "/jobs/infmax", method="POST",
                                    body=payload)
            second = json.loads(body)
            check(
                "duplicate submit returns the same job, deduplicated, 200",
                status == 200
                and second["id"] == first["id"]
                and second.get("deduplicated") is True,
            )
            settled(base, first["id"])

            print("phase 5: wall-clock deadline settles failed-permanent")
            status, _, body = fetch(
                base, "/jobs/infmax", method="POST",
                body={"model": "celfpp", "k": 40, "deadline": 1.0},
            )
            check("deadline job submitted",
                  status == 202 and json.loads(body)["id"] == DEADLINE_JOB)
            view = settled(base, DEADLINE_JOB)
            check("deadline exceeded -> failed-permanent",
                  view["state"] == "failed-permanent"
                  and "deadline" in (view["error"] or ""))
            check("deadline job freed its slot", gauges_zero(base))

            print("phase 6: live /sphere traffic stayed byte-correct")
            check("zero read-path violations during job chaos",
                  hammer.stop() == [])

            print("phase 7: open-loop job-submission smoke")
            accepted = submit_smoke(base)
            views = [settled(base, job) for job, _ in accepted]
            check("smoke: every accepted job drained to a terminal state",
                  all(view["state"] in TERMINAL for view in views))
            check(
                "smoke: every finished job matches its serial reference",
                all(
                    q.canonical_json(get_json(base, f"/jobs/{job}/result")["result"])
                    == reference_result(store, payload)
                    for (job, payload), view in zip(accepted, views)
                    if view["state"] == "done"
                ),
            )

            print("phase 8: graceful drain")
            drain(server)
        finally:
            server.stop()

    print("all chaos-jobs checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
