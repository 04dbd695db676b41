"""The benchmark workloads, untraced (end to end) and traced (per layer).

``cold-sphere``  one ``serve``; every node distinct, so every sphere request
                 runs cascade extraction and the Jaccard median.  Its traced
                 run also ingests the epinions fixture and runs a fixed
                 sequence of InfMax jobs through ``serve --jobs``, so the
                 data and jobs layers are measured too.
``hot-fleet``    a 2 x 2 ``serve-fleet``; a Zipf-skewed hot set warmed into
                 every worker's cache, so the HTTP hop, encode and router do
                 all the work and compute does none.

Set-up builds everything from the seed: the graph, the index store, the
shard split, the server processes and the warm cache.
"""

from __future__ import annotations

import gc
import json
import math
import shutil
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from harness import (
    NPROC,
    Client,
    Op,
    Outcome,
    Phase,
    RssMonitor,
    ServerProcess,
    TransportError,
    closed_loop,
    median,
    open_loop,
    poisson_schedule,
    quantile,
    scrape,
    smooth_quantile,
    tail_quantile,
    wait_healthy,
)
from tracing import Tracer

from repro.cascades.index import CascadeIndex
from repro.core.sphere import SphereOfInfluence
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.data.ingest import ingest, load_graph
from repro.graph.condensation import condense
from repro.graph.generators import powerlaw_outdegree_digraph
from repro.graph.sampling import WorldSampler
from repro.graph.transitive import reduce_condensation
from repro.jobs.journal import JobJournal
from repro.jobs.select import build_selection
from repro.jobs.spec import JobSpec
from repro.median.chierichetti import jaccard_median
from repro.median.samples import SampleCollection
from repro.problearn.assign import assign_weighted_cascade
from repro.serve.query import canonical_json, cascade_stats_payload, sphere_payload
from repro.shard.partition import partition_store, shard_ranges

NUM_NODES = 10_000
MEAN_DEGREE = 8.0
#: The generated graph is one fixed fixture, like the epinions one; the run
#: seed drives world sampling and the schedule.  Across generator seeds the
#: p90 cold sphere cost moved by 2.4x, which no in-run sample size evens out.
GRAPH_SEED = 20160626
WORLDS = 64
SIZE_GRID_RATIO = 1.15  # the server's default median size sweep
CASCADES_SHARE = 0.1  # cold-sphere: share of GET /cascades/{v}
SHARDS, REPLICAS = 2, 2
HOT_NODES = 200  # below each worker's 1,024-entry cache even on one shard
ZIPF_EXPONENT = 1.1
BATCH_SHARE, BATCH_SIZE = 0.2, 8
JOB_SOURCE = "epinions"
#: 16 worlds, not 64: at 64 one greedy_tc job recomputes every sphere for
#: about 10 s, and the sequence plus its in-process reference check would
#: not fit the traced run.
JOB_WORLDS = 16
JOB_SEQUENCE = (
    {"model": "greedy_tc", "k": 20},
    {"model": "stability", "k": 20},
    {"model": "celfpp", "k": 10},
    {"model": "ris", "k": 20},
)
JOB_DRAIN_SECONDS = 30.0
TERMINAL = ("done", "cancelled", "failed-permanent")
#: Set-ups per run; setup_s is the fastest.  Set-up is CPU-bound, and the
#: same set-up took up to 1.3x longer from one minute to the next on a
#: shared VM: the minimum keeps the work and drops the machine's slow spells.
#: Each deployment serves one round, a SETUPS-th of the timed phase, so the
#: timed requests are spread over the whole run rather than one stretch of
#: it: one slow spell then lands in a round, not in the whole sample.
SETUPS = 4
OPEN_SHARE = 0.3  # of --seconds; the closed-loop phase gets the rest
CHECKED_BODIES = 64  # seeded sample byte-compared after each phase
#: Refused, error and transport-error requests above this share of a phase
#: make the run invalid; any wrong answer does, whatever the share.
MAX_FAILED_SHARE = 0.01
LATENESS_BOUND_MS = 25.0  # generator lateness p99 above this voids the run
HOP_SAMPLES = 40
THROUGHPUT_CHUNK = 10  # completions per throughput sample
SERVE_FAMILIES = (
    "repro_serve_computes_total",
    "repro_serve_cache_hits_total",
    "repro_serve_cache_misses_total",
    "repro_serve_shed_total",
    "repro_router_failovers_total",
    "repro_router_hedges_total",
)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # correctness/validity
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)


@dataclass
class Run:
    workdir: Path
    seed: int
    seconds: float
    rate: float
    env: dict
    tracer: Tracer | None
    result: Result = field(default_factory=Result)
    servers: list[ServerProcess] = field(default_factory=list)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def start(self, argv: list[str], label: str) -> ServerProcess:
        server = ServerProcess(
            argv, env=self.env, log_path=self.workdir / f"{label}.log", label=label
        )
        self.servers.append(server)
        return server

    def stop(self, server: ServerProcess) -> None:
        self.result.notes.extend(f"killed: {k}" for k in server.stop())
        self.servers.remove(server)

    def stop_all(self) -> None:
        for server in list(self.servers):
            self.stop(server)

    def span(self, name: str, request: int | None = None):
        return nullcontext() if self.tracer is None else self.tracer.span(name, request)


# -- set-up ------------------------------------------------------------------------


def generate_graph(run: Run):
    with run.span("fixture.generate"):
        graph = powerlaw_outdegree_digraph(NUM_NODES, MEAN_DEGREE, seed=GRAPH_SEED)
        return assign_weighted_cascade(graph)


def build_index(run: Run, graph, worlds: int) -> CascadeIndex:
    """``CascadeIndex.build`` (serial); traced, the same calls one span each."""
    world_seed = run.seed
    if run.tracer is None:
        return CascadeIndex.build(graph, worlds, seed=world_seed)
    sampler = WorldSampler(graph, world_seed)
    conds = []
    with run.span("index.build"):
        for i in range(worlds):
            with run.span("graph.sampling"):
                mask = sampler.world_mask(i)
            with run.span("graph.condensation"):
                cond = condense(graph, mask)
            with run.span("graph.transitive"):
                conds.append(reduce_condensation(cond))
        return CascadeIndex(graph, conds, reduced=True, sampler=sampler)


def write_store(run: Run, index: CascadeIndex, path: Path) -> Path:
    with run.span("store.write"):
        index.save(path, format="store")
    return path


def open_store(run: Run, path: Path) -> CascadeIndex:
    with run.span("store.open"):
        return CascadeIndex.load(path)


def setup_once(run: Run, setup: Callable[[Path], object]):
    """The traced run sets up once, with spans."""
    directory = run.workdir / "setup0"
    directory.mkdir()
    return setup(directory)


def repeated_setup(run: Run, setup: Callable[[Path], object], measure: Callable[[object], None]):
    """Set up SETUPS times and ``measure`` one round on each deployment.

    Every server is stopped after its round; the last set-up's files are
    kept and its deployment returned.  Reports the fastest set-up.
    """
    times = []
    for i in range(SETUPS):
        if i:
            shutil.rmtree(run.workdir / f"setup{i - 1}", ignore_errors=True)
        directory = run.workdir / f"setup{i}"
        directory.mkdir()
        start = time.perf_counter()
        deployment = setup(directory)
        times.append(time.perf_counter() - start)
        measure(deployment)
        run.stop_all()
    run.result.put(
        "setup_s", min(times), "s",
        f"fastest of {len(times)} set-ups: " + ", ".join(f"{t:.3f}" for t in times),
    )
    return deployment


def start_serve(run: Run, store: Path, label: str, *extra: str) -> tuple[ServerProcess, str]:
    with run.span("serve.start"):
        server = run.start(["serve", str(store), "--port", "0", *extra], label)
        base = server.base_url()
        wait_healthy(base)
    return server, base


@dataclass
class Fleet:
    store: Path
    router: ServerProcess
    base: str
    workers: dict[tuple[int, int], str]  # (shard, replica) -> base url


def start_fleet(run: Run, store: Path, fleet_dir: Path, hot: np.ndarray) -> Fleet:
    with run.span("shard.partition"):
        partition_store(store, fleet_dir, SHARDS, replicas=REPLICAS)
    with run.span("serve.start"):
        router = run.start(["serve-fleet", str(fleet_dir), "--port", "0"], "fleet")
        base = router.base_url()
        wait_healthy(base)
    workers = {}
    for shard in range(SHARDS):
        for replica in range(REPLICAS):
            pattern = (rf"\[fleet\] shard {shard} replica {replica} pid \d+ "
                       r"serving on (http://127\.0\.0\.1:\d+)")
            workers[(shard, replica)] = router.wait_for(pattern, 10.0).group(1)
    with run.span("serve.warm"):
        warm_workers(workers, hot)
    return Fleet(store, router, base, workers)


def owner(node: int) -> int:
    for shard, (lo, hi) in enumerate(shard_ranges(NUM_NODES, SHARDS)):
        if lo <= node < hi:
            return shard
    raise KeyError(node)


def warm_workers(workers: dict[tuple[int, int], str], hot: np.ndarray) -> None:
    """Compute the hot set into every replica's cache with batch requests."""
    errors: list[str] = []

    def warm(key: tuple[int, int], base: str) -> None:
        nodes = [int(v) for v in hot if owner(int(v)) == key[0]]
        client = Client(base)
        try:
            for lo in range(0, len(nodes), 200):
                body = canonical_json({"nodes": nodes[lo : lo + 200]})
                status, _ = client.request("POST", "/spheres", body)
                if status != 200:
                    errors.append(f"warm-up of {key} answered {status}")
        except TransportError as exc:
            errors.append(f"warm-up of {key}: {exc}")
        finally:
            client.close()

    threads = [threading.Thread(target=warm, args=item) for item in workers.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError("; ".join(errors))


# -- answers and references --------------------------------------------------------


def check_body(op: Op, body: bytes) -> bool:
    """Cheap per-response check: the answer is about the requested node(s)."""
    payload = json.loads(body)
    if op.method == "POST":
        nodes = [entry["node"] for entry in payload["results"]]
        return nodes == list(op.nodes) and all("members" in e for e in payload["results"])
    if op.path.startswith("/cascades/"):
        return payload["node"] == op.nodes[0] and len(payload["sizes"]) == payload["num_worlds"]
    return payload["node"] == op.nodes[0] and "members" in payload


class Reference:
    """In-process answers computed on the same store the servers read."""

    def __init__(self, store: Path):
        self.index = CascadeIndex.load(store)
        self.computer = TypicalCascadeComputer(self.index, size_grid_ratio=SIZE_GRID_RATIO)
        self._spheres: dict[int, dict] = {}

    def sphere(self, node: int) -> dict:
        if node not in self._spheres:
            self._spheres[node] = sphere_payload(node, self.computer.compute(node))
        return self._spheres[node]

    def body(self, op: Op) -> bytes:
        if op.method == "POST":
            results = [self.sphere(v) for v in op.nodes]
            return canonical_json({"count": len(results), "results": results})
        if op.path.startswith("/cascades/"):
            return canonical_json(cascade_stats_payload(self.index, op.nodes[0]))
        return canonical_json(self.sphere(op.nodes[0]))


def byte_check(run: Run, reference: Reference, outcomes: list[Outcome], count: int) -> None:
    """Byte-compare a seeded sample of answered bodies; a mismatch is wrong."""
    answered = [o for o in outcomes if o.verdict == "ok"]
    picks = run.rng(9).choice(len(answered), min(count, len(answered)), replace=False)
    for i in sorted(int(p) for p in picks):
        outcome = answered[i]
        if outcome.body != reference.body(outcome.op):
            outcome.verdict = "wrong"
    run.result.notes.append(f"byte-compared {len(picks)} of {len(answered)} answered bodies")


def outcome_gate(run: Run, what: str, outcomes: list[Outcome]) -> None:
    """Count a phase's outcomes; fail the run on any wrong answer, on a
    failure share above MAX_FAILED_SHARE, or when nothing was answered."""
    res = run.result
    failed = [o for o in outcomes if o.verdict != "ok"]
    for o in failed:
        if o.verdict == "wrong":
            res.problems.append(f"{what}: wrong answer to {o.op.method} {o.op.path} {o.op.nodes}")
    if len(failed) == len(outcomes):
        res.problems.append(f"{what}: no verified answer in {len(outcomes)} requests")
    elif len(failed) > MAX_FAILED_SHARE * len(outcomes):
        res.problems.append(
            f"{what}: {len(failed)} of {len(outcomes)} requests failed "
            f"(more than {MAX_FAILED_SHARE:.0%}): {dict(Counter(o.status for o in failed))}"
        )
    res.attempted += len(outcomes)
    res.failed += len(failed)
    res.notes.append(f"{what} outcomes: {dict(Counter(o.verdict for o in outcomes))}")


# -- schedules -----------------------------------------------------------------------


def cold_ops(run: Run) -> list[Op]:
    """Every node once, in seeded order; 10% ask for cascade stats."""
    rng = run.rng(3)
    nodes = rng.permutation(NUM_NODES)
    stats = rng.random(NUM_NODES) < CASCADES_SHARE
    return [
        Op("GET", f"/{'cascades' if s else 'sphere'}/{int(v)}", nodes=(int(v),))
        for v, s in zip(nodes, stats)
    ]


def hot_set(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """Seeded hot nodes and their Zipf request weights (rank order)."""
    hot = run.rng(4).choice(NUM_NODES, HOT_NODES, replace=False)
    weights = 1.0 / np.arange(1, HOT_NODES + 1) ** ZIPF_EXPONENT
    return hot, weights / weights.sum()


def hot_ops(run: Run, hot: np.ndarray, weights: np.ndarray) -> Iterator[Op]:
    rng = run.rng(5)
    while True:
        if rng.random() < BATCH_SHARE:
            nodes = tuple(int(v) for v in hot[rng.choice(HOT_NODES, BATCH_SIZE, replace=False, p=weights)])
            yield Op("POST", "/spheres", canonical_json({"nodes": list(nodes)}), nodes)
        else:
            v = int(hot[rng.choice(HOT_NODES, p=weights)])
            yield Op("GET", f"/sphere/{v}", nodes=(v,))


# -- the HTTP workloads ----------------------------------------------------------------


def latencies(phase: Phase) -> list[float]:
    """Per-request ms; a failed request never meets a limit (infinite)."""
    return [o.latency_ms if o.verdict == "ok" else float("inf") for o in phase.outcomes]


def latency_summary(values: list[float]) -> tuple[float, float, float]:
    """(p50, tail, tail quantile) of a sample."""
    q = tail_quantile(len(values))
    return median(values), quantile(values, q), q


def latency_metrics(run: Run, values: list[float], what: str) -> None:
    """``p50_ms`` and ``p90_ms`` as smooth estimates; the nearest-rank
    highest percentile the sample supports is printed, not compared."""
    _, tail, q = latency_summary(values)
    n = len(values)
    for name, level in (("p50_ms", 0.5), ("p90_ms", 0.9)):
        run.result.put(name, min(smooth_quantile(values, level), 1e9), "ms",
                       f"Harrell-Davis estimate, n={n} {what}")
    run.result.notes.append(
        f"p{100 * q:.4g} (nearest rank, {n - math.ceil(q * n - 1e-9)} samples beyond) "
        f"= {tail:.3f} ms of n={n} {what}; not compared"
    )


def lateness_gate(run: Run, phase: Phase) -> None:
    late = [o.lateness * 1000.0 for o in phase.outcomes]
    p99 = quantile(late, 0.99)
    run.result.notes.append(
        f"generator lateness: p50 {median(late):.3f} ms, p99 {p99:.3f} ms, "
        f"max {max(late):.3f} ms (bound p99 <= {LATENESS_BOUND_MS:g} ms)"
    )
    if p99 > LATENESS_BOUND_MS:
        run.result.problems.append(f"run invalid: generator lateness p99 {p99:.1f} ms")


@dataclass
class Timed:
    """The timed phase of an HTTP run: one open- and one closed-loop phase
    per round, the ``/metrics`` deltas summed and each round's peak RSS."""

    run: Run
    ops: Iterator[Op]  # the run's request sequence; each round takes the next ones
    opened: list[Phase] = field(default_factory=list)
    closed: list[Phase] = field(default_factory=list)
    delta: Counter = field(default_factory=Counter)
    rss_mb: list[float] = field(default_factory=list)
    schedule: np.random.Generator = field(init=False)  # open-loop arrival gaps

    def __post_init__(self) -> None:
        self.schedule = self.run.rng(7)

    def round(self, base: str, servers: list[ServerProcess]) -> None:
        run = self.run
        count = max(1, int(run.rate * run.seconds * OPEN_SHARE / SETUPS))
        open_ops = [next(self.ops) for _ in range(count)]
        due = poisson_schedule(self.schedule, len(open_ops), run.rate)
        before = scrape(base, SERVE_FAMILIES)
        # No collector pause in the load generator while it times requests:
        # a full collection of this process's heap takes ~10 ms on a 2-core VM.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            with RssMonitor(servers) as rss:
                self.opened.append(open_loop(base, open_ops, due, check_body))
                self.closed.append(closed_loop(
                    base, self.ops, run.seconds * (1 - OPEN_SHARE) / SETUPS, check_body))
        finally:
            gc.enable()
            gc.unfreeze()
        after = scrape(base, SERVE_FAMILIES)
        self.delta.update({k: after[k] - before[k] for k in after})
        self.rss_mb.append(rss.peak_mb)

    def outcomes(self, phases: list[Phase]) -> list[Outcome]:
        return [o for phase in phases for o in phase.outcomes]


def report_http(run: Run, timed: Timed, reference: Reference) -> None:
    res = run.result
    opened = Phase(timed.outcomes(timed.opened))
    closed = Phase(timed.outcomes(timed.closed), sum(p.seconds for p in timed.closed))
    byte_check(run, reference, opened.outcomes + closed.outcomes, CHECKED_BODIES)
    p50, tail, q = latency_summary(latencies(opened))
    res.notes.append(
        f"open loop, Poisson arrivals at {run.rate:g}/s: p50 {p50:.3f} ms, "
        f"p{100 * q:.4g} {tail:.3f} ms, n={len(opened.outcomes)} "
        "(timed from due time; not compared)"
    )
    lateness_gate(run, opened)
    latency_metrics(run, latencies(closed), f"closed-loop requests, {NPROC} persistent connections")
    rates = [rate for phase in timed.closed for rate in chunk_rates(phase)]
    res.put("ops_per_s", median(rates), "1/s",
            f"median over {len(rates)} runs of {THROUGHPUT_CHUNK} completions; "
            f"{len(closed.ok())} verified 2xx in {closed.seconds:.2f}s closed loop, "
            f"{NPROC} connections")
    res.put("server_rss_mb", median(timed.rss_mb), "MB",
            "peak VmHWM summed over server processes, median over rounds: "
            + ", ".join(f"{mb:.1f}" for mb in timed.rss_mb))
    outcome_gate(run, "open loop", opened.outcomes)
    outcome_gate(run, "closed loop", closed.outcomes)


def chunk_rates(phase: Phase) -> list[float]:
    """Verified completions per second over successive runs of completions.

    The median over chunks keeps one rare giant-cascade node (up to ~1 s
    of compute) from setting the whole run's throughput.
    """
    marks = [min(o.sent for o in phase.outcomes)]
    marks += sorted(o.done for o in phase.ok())
    return [
        THROUGHPUT_CHUNK / (marks[i + THROUGHPUT_CHUNK] - marks[i])
        for i in range(0, len(marks) - THROUGHPUT_CHUNK, THROUGHPUT_CHUNK)
    ] or [0.0]


def cold_sphere(run: Run) -> None:
    def setup(directory: Path):
        graph = generate_graph(run)
        index = build_index(run, graph, WORLDS)
        store = write_store(run, index, directory / "store")
        server, base = start_serve(run, store, "serve")
        return store, server, base

    ops = cold_ops(run)
    if run.tracer is not None:
        store, server, base = setup_once(run, setup)
        trace_http(run, store, base, ops, None)
        run.stop(server)
        return trace_jobs_fixture(run)
    timed = Timed(run, iter(ops))  # every node at most once over all rounds
    store, _, _ = repeated_setup(run, setup, lambda d: timed.round(d[2], [d[1]]))
    report_http(run, timed, Reference(store))
    spheres = sum(o.op.path.startswith("/sphere/") and o.status == 200
                  for o in timed.outcomes(timed.opened + timed.closed))
    delta = dict(timed.delta)
    computes = delta["repro_serve_computes_total"]
    run.result.notes.append(f"/metrics delta: {delta} over {spheres} sphere answers")
    if computes != spheres or delta["repro_serve_cache_hits_total"] != 0:
        run.result.problems.append(
            f"phase invalid: {computes:g} computes for {spheres} cold sphere answers"
        )


def hot_fleet(run: Run) -> None:
    hot, weights = hot_set(run)

    def setup(directory: Path):
        graph = generate_graph(run)
        index = build_index(run, graph, WORLDS)
        store = write_store(run, index, directory / "store")
        return start_fleet(run, store, directory / "fleet", hot)

    ops = hot_ops(run, hot, weights)
    if run.tracer is not None:
        fleet = setup_once(run, setup)
        return trace_http(run, fleet.store, fleet.base, ops, fleet)
    timed = Timed(run, ops)
    fleet = repeated_setup(run, setup, lambda f: timed.round(f.base, [f.router]))
    report_http(run, timed, Reference(fleet.store))
    delta = dict(timed.delta)
    run.result.notes.append(f"/metrics delta: {delta}")
    hits, misses = delta["repro_serve_cache_hits_total"], delta["repro_serve_cache_misses_total"]
    if delta["repro_serve_computes_total"] != 0 or misses != 0 or hits == 0:
        run.result.problems.append(
            f"phase invalid: hot phase computed {delta['repro_serve_computes_total']:g} "
            f"spheres ({hits:g} cache hits, {misses:g} misses)"
        )


# -- jobs (driven by the traced cold-sphere run) ------------------------------------------


@dataclass
class Job:
    payload: dict
    id: str = ""
    state: str = "unsubmitted"
    start: float = 0.0  # perf_counter at submit
    end: float = 0.0  # perf_counter once the result is fetched
    server_wall_s: float = 0.0
    result: bytes = b""
    verdict: str = "error"


def run_jobs(base: str, jobs: list[Job], deadline: float) -> None:
    """Drive ``jobs`` in waves of NPROC.

    A wave's jobs are submitted one after another and then awaited
    together; the next wave starts when the last one has ended, so the
    same jobs always share the machine.  (Refilling free slots instead made
    which job ran beside which depend on who finished first, and moved job
    wall times by ~15%.)
    """
    clients = [Client(base) for _ in range(NPROC)]
    try:
        for first in range(0, len(jobs), NPROC):
            wave = list(zip(clients, jobs[first : first + NPROC]))
            for client, job in wave:
                submit(client, job)
            waiters = [threading.Thread(target=await_result, args=(client, job, deadline))
                       for client, job in wave if job.id]
            for thread in waiters:
                thread.start()
            for thread in waiters:
                thread.join()
    finally:
        for client in clients:
            client.close()


def submit(client: Client, job: Job) -> None:
    job.start = time.perf_counter()
    try:
        status, body = client.request("POST", "/jobs/infmax", canonical_json(job.payload))
        if status not in (200, 202):
            job.state = f"submit-{status}"
            return
        job.id = json.loads(body)["id"]
    except (TransportError, ValueError, KeyError) as exc:
        job.state = f"error {exc!r}"


def await_result(client: Client, job: Job, deadline: float) -> None:
    """Poll to a terminal state, then fetch the result.  Never resubmits."""
    try:
        while True:
            status, view = client.get_json(f"/jobs/{job.id}")
            job.state = view.get("state", f"status-{status}")
            if job.state in TERMINAL or time.perf_counter() > deadline:
                break
            time.sleep(0.05)
        if job.state != "done":
            return
        job.server_wall_s = view["finished_at"] - view["submitted_at"]
        status, body = client.request("GET", f"/jobs/{job.id}/result")
        job.end = time.perf_counter()
        if status == 200:
            job.result = canonical_json(json.loads(body)["result"])
            job.verdict = "ok"
    except (TransportError, ValueError, KeyError) as exc:
        job.state = f"error {exc!r}"


def check_jobs(run: Run, jobs: list[Job], references: dict[str, bytes]) -> None:
    """Compare every fetched result with its reference and count the jobs.

    A wrong result, or no verified job at all, fails the run.  A job that
    did not finish counts as failed and is printed; it is never resubmitted.
    """
    res = run.result
    for job in jobs:
        if job.verdict != "ok":
            when = " at the drain timeout" if job.id and job.state not in TERMINAL else ""
            res.notes.append(f"job {job.id or '-'} {job.payload} failed: {job.state}{when}")
        elif job.result != references[canonical_json(job.payload).decode()]:
            job.verdict = "wrong"
            res.problems.append(f"job {job.id} {job.payload} result differs from run_to_completion")
    if not any(job.verdict == "ok" for job in jobs):
        res.problems.append(f"jobs: no verified result of {len(jobs)} jobs")
    res.attempted += len(jobs)
    res.failed += sum(job.verdict != "ok" for job in jobs)


# -- traced runs ---------------------------------------------------------------------------

def trace_setup_metrics(run: Run, store: Path) -> None:
    tracer, res = run.tracer, run.result
    for metric, span in (("sampling.world_ms", "graph.sampling"),
                         ("condense.world_ms", "graph.condensation"),
                         ("reduce.world_ms", "graph.transitive")):
        times = tracer.ms(span)
        res.put(metric, median(times), "ms", f"median per world, n={len(times)} worlds")
    res.put("store.write_s", tracer.ms("store.write")[0] / 1000.0, "s")
    for _ in range(5):
        open_store(run, store)
    opens = tracer.ms("store.open")
    res.put("store.open_ms", median(opens), "ms", f"median of {len(opens)} opens")


def untraced(name: str, request: int | None = None):
    """The span factory of an untraced replay."""
    return nullcontext()


def replay(index: CascadeIndex, op: Op, rid: int, span, stats: dict | None = None) -> bytes:
    """Run one request's work through each layer; returns its encoded body.

    ``span(name, rid)`` wraps each layer call; ``stats``, when given,
    collects the per-sphere counts.
    """
    if op.path.startswith("/cascades/"):
        with span("cascades.stats", rid):
            payload = cascade_stats_payload(index, op.nodes[0])
        return canonical_json(payload)
    spheres = []
    for v in op.nodes:
        with span("cascades.extract", rid):
            cascades = index.cascades(v)
        with span("median.collection", rid):
            samples = SampleCollection(index.num_nodes, cascades)
        with span("median.solve", rid):
            result = jaccard_median(samples, size_grid_ratio=SIZE_GRID_RATIO)
        counts = samples.sizes
        sphere = SphereOfInfluence(
            sources=(v,), members=result.median, cost=result.cost,
            num_samples=samples.num_samples, strategy=result.strategy,
            sample_size_mean=float(counts.mean()), sample_size_std=float(counts.std()),
            sample_size_max=int(counts.max()),
        )
        with span("encode.sphere", rid):
            spheres.append(sphere_payload(v, sphere))
            body = canonical_json(spheres[-1])
        if stats is not None:
            stats["elements"].append(int(counts.sum()))
            stats["candidates"].append(result.candidates_evaluated)
            stats["unions"].append(int(samples.union().size))
            stats["bytes"].append(len(body))
    if op.method == "POST":
        with span("encode.sphere", rid):
            body = canonical_json({"count": len(spheres), "results": spheres})
    return body


def replay_spheres(run: Run, index: CascadeIndex, ops: list[Op]) -> dict[int, bytes]:
    """Replay requests in-process, one span per layer call; returns each body.

    Each request runs three times: once to warm its pages, then untraced
    and traced, in alternating order.  The difference between the traced
    and the untraced per-request p50 is the tracing overhead, on the same
    inputs.  The traced bodies are returned so they can be compared with
    the bytes the server sent for the same requests.
    """
    stats: dict[str, list[int]] = {k: [] for k in ("elements", "candidates", "unions", "bytes")}
    bodies, plain_ms, traced_ms = {}, [], []
    for rid, op in enumerate(ops):
        replay(index, op, rid, untraced)
        for traced in ((False, True) if rid % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced:
                bodies[rid] = replay(index, op, rid, run.span, stats)
            else:
                replay(index, op, rid, untraced)
            (traced_ms if traced else plain_ms).append((time.perf_counter() - start) * 1000.0)
    res, tracer = run.result, run.tracer
    traced_p50, plain_p50 = median(traced_ms), median(plain_ms)
    res.put("trace.overhead_ms", traced_p50 - plain_p50, "ms",
            f"in-process replay: traced p50 {traced_p50:.4f} - untraced p50 "
            f"{plain_p50:.4f}, n={len(ops)} requests each")
    extract = tracer.ms("cascades.extract")
    solve = tracer.ms("median.solve")
    n = f"n={len(extract)} spheres"
    res.put("cascades.extract_ms.p50", median(extract), "ms", n)
    res.put("cascades.extract_ms.p99", quantile(extract, 0.99), "ms", n)
    res.put("cascades.elements", float(np.mean(stats["elements"])), "count",
            f"mean sum |S_i| per sphere, {n}")
    cascade_stats = tracer.ms("cascades.stats")
    if cascade_stats:  # only cold-sphere asks for cascade stats
        res.put("cascades.stats_ms", median(cascade_stats), "ms", f"n={len(cascade_stats)}")
    res.put("median.collection_ms", median(tracer.ms("median.collection")), "ms", n)
    res.put("median.solve_ms.p50", median(solve), "ms", n)
    res.put("median.solve_ms.p99", quantile(solve, 0.99), "ms", n)
    res.put("median.candidates", float(np.mean(stats["candidates"])), "count", f"mean per sphere, {n}")
    res.put("median.union_size", float(np.mean(stats["unions"])), "count", f"mean per sphere, {n}")
    res.put("encode.ms", median(tracer.ms("encode.sphere")), "ms", f"median per call, n={len(ops)} requests")
    res.put("encode.bytes", float(np.mean(stats["bytes"])), "bytes", f"mean per sphere, {n}")
    return bodies


def timed_gets(base: str, paths: list[str]) -> list[float]:
    """Latency (ms) of each GET over one persistent connection."""
    client = Client(base)
    try:
        client.request("GET", "/healthz")
        out = []
        for path in paths:
            start = time.perf_counter()
            status, _ = client.request("GET", path)
            out.append((time.perf_counter() - start) * 1000.0)
            if status != 200:
                raise RuntimeError(f"GET {path} answered {status}")
        return out
    finally:
        client.close()


def serve_deltas(run: Run, delta: dict[str, float], requests: int) -> None:
    res = run.result
    hits, misses = delta["repro_serve_cache_hits_total"], delta["repro_serve_cache_misses_total"]
    lookups = hits + misses
    res.put("serve.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio",
            f"{hits:g} hits of {lookups:g} cache lookups")
    res.put("serve.computes_per_request", delta["repro_serve_computes_total"] / requests, "ratio",
            f"{delta['repro_serve_computes_total']:g} computes over {requests} requests")
    res.put("serve.shed_ratio", delta["repro_serve_shed_total"] / requests, "ratio",
            f"{delta['repro_serve_shed_total']:g} shed of {requests} requests")


def trace_http(run: Run, store: Path, base: str, ops: Iterable[Op], fleet: Fleet | None) -> None:
    """Per-layer run of an HTTP workload's seeded inputs.

    A closed-loop slice of the schedule is sent with a span per request,
    then replayed in-process layer by layer, and every answered body is
    byte-compared with its replay.
    """
    res = run.result
    trace_setup_metrics(run, store)
    before = scrape(base, SERVE_FAMILIES)
    traced = closed_loop(base, iter(ops), run.seconds * (1 - OPEN_SHARE) / 2, check_body,
                         hook=lambda i, op: run.tracer.span("client.request", i))
    after = scrape(base, SERVE_FAMILIES)
    delta = {k: after[k] - before[k] for k in after}
    traced_ops = [o.op for o in traced.outcomes]
    serve_deltas(run, delta, len(traced_ops))
    res.put("router.failovers", delta["repro_router_failovers_total"], "count", "traced slice")
    res.put("router.hedges", delta["repro_router_hedges_total"], "count", "traced slice")

    index = open_store(run, store)
    bodies = replay_spheres(run, index, traced_ops)
    answered = [(i, o) for i, o in enumerate(traced.outcomes) if o.verdict == "ok"]
    for i, outcome in answered:
        if outcome.body != bodies[i]:
            outcome.verdict = "wrong"
    res.notes.append(f"byte-compared {len(answered)} traced bodies with the in-process replay")
    outcome_gate(run, "traced slice", traced.outcomes)

    # Cache hits straight to a worker: every sphere of the traced slice is cached.
    hits = [v for o in traced_ops if not o.path.startswith("/cascades/") for v in o.nodes]
    hits = hits[:HOP_SAMPLES]
    if fleet is None:
        direct = timed_gets(base, [f"/sphere/{v}" for v in hits])
    else:
        direct, via = [], []
        for v in hits:
            worker = fleet.workers[(owner(v), 0)]
            d = timed_gets(worker, [f"/sphere/{v}"])[0]
            r = timed_gets(fleet.base, [f"/sphere/{v}"])[0]
            direct.append(d)
            via.append(r - d)
        res.put("router.hop_ms.p50", median(via), "ms", f"via-router minus direct, n={len(via)} pairs")
        res.put("router.hop_ms.p99", quantile(via, 0.99), "ms", f"n={len(via)} pairs")
        batches = [o for o in traced.outcomes if o.op.method == "POST" and o.verdict == "ok"]
        client = Client(fleet.base)
        try:
            client.request("GET", "/healthz")
            batch_ms = []
            for o in batches[:HOP_SAMPLES]:
                start = time.perf_counter()
                client.request("POST", "/spheres", o.op.body)
                batch_ms.append((time.perf_counter() - start) * 1000.0)
        finally:
            client.close()
        if batch_ms:
            res.put("router.batch_ms", median(batch_ms), "ms", f"POST /spheres of {BATCH_SIZE}, n={len(batch_ms)}")
    res.put("serve.hop_ms.p50", median(direct), "ms", f"cache-hit GET straight to a worker, n={len(direct)}")
    res.put("serve.hop_ms.p99", quantile(direct, 0.99), "ms", f"n={len(direct)}")


def trace_job_layer(run: Run, index: CascadeIndex, base: str) -> None:
    """The jobs layer: one round through the server, then in-process.

    In-process, each job's ``build_selection``, every ``step()`` and a
    ``JobJournal.append`` per step get a span; the finished selections are
    the references every server result is compared with.
    """
    res, tracer = run.result, run.tracer
    jobs = [Job(dict(p)) for p in JOB_SEQUENCE]
    run_jobs(base, jobs, time.perf_counter() + run.seconds + JOB_DRAIN_SECONDS)
    for rid, job in enumerate(jobs):
        tracer.record("client.job", job.start, job.end or time.perf_counter(), rid)
    done = [j.server_wall_s for j in jobs if j.verdict == "ok"]
    res.put("jobs.server_wall_s", median(done) if done else 0.0, "s",
            f"finished_at - submitted_at, n={len(done)} jobs")
    references = {}
    for rid, payload in enumerate(JOB_SEQUENCE):
        spec = JobSpec.from_payload(payload, index.num_nodes)
        with tracer.span(f"jobs.build.{payload['model']}", rid):
            selection = build_selection(spec, index)
        journal = JobJournal(run.workdir / "journal-replay" / str(rid))
        while True:
            with tracer.span("jobs.step", rid):
                step = selection.step()
            if step is None:
                break
            with tracer.span("jobs.journal_append", rid):
                journal.append({"type": "step", **step, "at": time.time()}, attempt=0)
        references[canonical_json(payload).decode()] = canonical_json(selection.finalize())
    check_jobs(run, jobs, references)
    family = tracer.ms("jobs.build.greedy_tc") + tracer.ms("jobs.build.stability")
    res.put("jobs.family_s", median(family) / 1000.0, "s", "build_selection of greedy_tc and stability")
    steps = tracer.ms("jobs.step")
    res.put("jobs.step_ms.p50", median(steps), "ms", f"n={len(steps)} steps")
    res.put("jobs.step_ms.p99", quantile(steps, 0.99), "ms", f"n={len(steps)} steps")
    appends = tracer.ms("jobs.journal_append")
    res.put("jobs.journal_append_ms", median(appends), "ms", f"n={len(appends)} fsynced appends")


def trace_jobs_fixture(run: Run) -> None:
    """Ingest and serve the jobs fixture and trace the jobs layer on it.

    Part of the traced ``cold-sphere`` run, so the data and jobs layers are
    measured by a compared workload; its index build and store open carry
    no spans, leaving the graph and store metrics to the 10k-node index.
    """
    directory = run.workdir / "jobs-fixture"
    with run.span("data.ingest"):
        report = ingest(JOB_SOURCE, root=directory / "data", offline=True, assignment="wc")
    index = CascadeIndex.build(load_graph(report.directory), JOB_WORLDS, seed=run.seed)
    store = directory / "store"
    index.save(store, format="store")
    server, base = start_serve(
        run, store, "serve-jobs", "--jobs", "--jobs-dir", str(directory / "jobs"),
        "--jobs-mode", "process", "--jobs-max-running", str(NPROC),
    )
    trace_job_layer(run, CascadeIndex.load(store), base)
    run.stop(server)
    run.result.put("data.ingest_s", run.tracer.ms("data.ingest")[0] / 1000.0, "s",
                   "offline epinions fixture, WC probabilities")


WORKLOADS = {
    "cold-sphere": cold_sphere,
    "hot-fleet": hot_fleet,
}
