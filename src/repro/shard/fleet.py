"""Worker-fleet supervision: one serve process per shard *replica*,
respawned on crash.

Each worker is the unmodified single-process serve app
(``python -m repro serve <replica_dir> --port 0 --shard-id N
--replica-id R``) bound to one replica directory of its shard.  :class:`WorkerHandle` owns one worker: it spawns
the process, scrapes the bound ephemeral address from the startup banner,
and — on any unexpected exit — respawns it with the same deterministic
bounded backoff schedule the build supervisor uses
(:func:`repro.runtime.supervisor.backoff_delay`).  While a worker is down
its :meth:`~WorkerHandle.address` is ``None`` and the router refuses that
shard's traffic with an explicit ``503 Retry-After`` instead of hanging.

:func:`run_fleet` is the ``repro serve-fleet`` entry point: it starts the
workers, binds the frontend router over them, serves until SIGTERM/SIGINT,
and on SIGHUP rolls a generation-checked hot reload across the fleet one
shard at a time.  Drain order on shutdown is router first (no new traffic,
in-flight requests finish), then workers (each drains its own in-flight
requests) — so a clean SIGTERM drops zero requests end to end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Callable, Sequence

from repro.runtime.locksan import make_lock
from repro.runtime.supervisor import SupervisorConfig, backoff_delay
from repro.shard.partition import (
    PartitionMap,
    load_partition,
    verify_partition_stores,
)
from repro.store.errors import StoreError

#: A worker must stay up this long (seconds) for its failure streak to
#: reset — a crash loop cannot masquerade as a sequence of fresh failures.
STABLE_UPTIME = 5.0

#: Default budget for the whole fleet to come up in :meth:`Fleet.start`.
START_TIMEOUT = 60.0

FleetEvent = Callable[[str], None]


def _default_event(line: str) -> None:
    print(f"[fleet] {line}", flush=True)


class WorkerHandle:
    """One supervised serve process bound to one shard directory.

    The supervision loop runs on a dedicated thread: spawn, parse the
    banner for the bound address, wait for exit, respawn after
    ``backoff_delay`` unless :meth:`stop` was requested.  ``address()``
    is the router's liveness signal — ``None`` whenever the worker is
    down or still booting.
    """

    def __init__(
        self,
        shard_id: int,
        store_dir: str,
        *,
        host: str = "127.0.0.1",
        worker_args: Sequence[str] = (),
        config: SupervisorConfig | None = None,
        on_event: FleetEvent = _default_event,
        role: str = "shard",
        replica: int = 0,
        label: str | None = None,
    ) -> None:
        if role not in ("shard", "jobs"):
            raise ValueError(f"role must be 'shard' or 'jobs', got {role!r}")
        self.shard_id = int(shard_id)
        self.replica = int(replica)
        self.store_dir = os.fspath(store_dir)
        self.role = role
        if label is not None:
            self._label = label
        else:
            self._label = (
                f"shard {self.shard_id}" if role == "shard" else "jobs worker"
            )
        self._host = host
        self._worker_args = tuple(worker_args)
        self._config = config if config is not None else SupervisorConfig()
        self._on_event = on_event
        self._lock = make_lock("WorkerHandle._lock")
        self._proc: subprocess.Popen | None = None  # guarded-by: _lock
        self._address: str | None = None  # guarded-by: _lock
        self._stopping = False  # guarded-by: _lock
        self._spawns = 0  # guarded-by: _lock
        self._thread: threading.Thread | None = None

    # -- router protocol -----------------------------------------------------

    def address(self) -> str | None:
        """The worker's base URL, or ``None`` while it is down/booting."""
        with self._lock:
            return self._address

    def pid(self) -> int | None:
        with self._lock:
            return self._proc.pid if self._proc is not None else None

    @property
    def spawns(self) -> int:
        with self._lock:
            return self._spawns

    # -- lifecycle -----------------------------------------------------------

    def _argv(self) -> list[str]:
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            self.store_dir,
            "--host",
            self._host,
            "--port",
            "0",
        ]
        # The jobs worker serves the full index outside the node
        # partition, so it carries no shard id (its /jobs flags arrive
        # via worker_args instead).
        if self.role == "shard":
            argv += ["--shard-id", str(self.shard_id)]
            argv += ["--replica-id", str(self.replica)]
        return argv + list(self._worker_args)

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError(f"{self._label} already started")
        self._thread = threading.Thread(
            target=self._supervise,
            name=f"fleet-{self._label.replace(' ', '-')}",
            daemon=True,
        )
        self._thread.start()

    def _supervise(self) -> None:
        failures = 0
        while True:
            with self._lock:
                if self._stopping:
                    return
            try:
                proc = subprocess.Popen(
                    self._argv(),
                    stdout=subprocess.PIPE,
                    stderr=None,  # worker logs pass through to ours
                    text=True,
                )
            except OSError as exc:
                failures += 1
                self._on_event(
                    f"{self._label} spawn failed ({exc}); "
                    f"retry in {backoff_delay(self._config, failures):g}s"
                )
                time.sleep(backoff_delay(self._config, failures))
                continue
            with self._lock:
                if self._stopping:
                    # stop() raced the spawn: tear the fresh worker down.
                    stopping = True
                else:
                    stopping = False
                    self._proc = proc
                    self._spawns += 1
            if stopping:
                proc.terminate()
                proc.wait()
                if proc.stdout is not None:
                    proc.stdout.close()
                return
            started_at = time.monotonic()
            address = self._read_banner(proc)
            if address is not None:
                with self._lock:
                    self._address = address
                self._on_event(
                    f"{self._label} pid {proc.pid} serving on {address}"
                )
            # Drain stdout to EOF (= worker exit) so the pipe never fills;
            # the worker only writes its banner and a final drain line.
            try:
                if proc.stdout is not None:
                    for _line in proc.stdout:
                        pass
            finally:
                if proc.stdout is not None:
                    proc.stdout.close()
            code = proc.wait()
            uptime = time.monotonic() - started_at
            with self._lock:
                self._address = None
                self._proc = None
                if self._stopping:
                    return
            if uptime >= STABLE_UPTIME:
                failures = 0
            failures += 1
            delay = backoff_delay(self._config, failures)
            self._on_event(
                f"{self._label} pid {proc.pid} exited "
                f"(code {code}, uptime {uptime:.2f}s); respawn in {delay:g}s"
            )
            time.sleep(delay)

    def _read_banner(self, proc: subprocess.Popen) -> str | None:
        """Parse ``... on http://host:port`` from the worker's first line."""
        if proc.stdout is None:
            return None
        banner = proc.stdout.readline()
        if " on http://" not in banner:
            return None
        return banner.rsplit(" on ", 1)[1].strip()

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM the worker (it drains in-flight requests) and join."""
        with self._lock:
            self._stopping = True
            proc = self._proc
        if proc is not None:
            try:
                proc.terminate()
            except ProcessLookupError:
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive() and proc is not None:
                proc.kill()
                self._thread.join(timeout)


def check_fleet_topology(fleet_dir: str, partition: PartitionMap) -> None:
    """Refuse to start a fleet whose disk state disagrees with its map.

    Shard count and replica count come from the (checksummed) map shape;
    per-replica generation pinning is each store header's
    ``content_digest`` matching the map entry.  Any mismatch — a missing
    replica directory, a rebuilt store, a hand-swapped header — raises a
    single-line actionable error instead of letting the router route
    traffic into the void.
    """
    try:
        verify_partition_stores(fleet_dir, partition)
    except StoreError as exc:
        raise RuntimeError(
            f"fleet topology mismatch under {fleet_dir}: {exc} — re-run "
            f"`repro index shard --shards {partition.num_shards} "
            f"--replicas {partition.replicas}` or restore the replica "
            "with `repro shard repair`"
        ) from exc


class Fleet:
    """All ``num_shards x replicas`` workers of one partitioned fleet dir.

    ``worker_groups[s][r]`` is the handle for replica ``r`` of shard
    ``s`` — the nested shape the replica-aware router consumes;
    ``workers`` is the same set flattened for lifecycle iteration.
    """

    def __init__(
        self,
        fleet_dir: str,
        *,
        host: str = "127.0.0.1",
        worker_args: Sequence[str] = (),
        config: SupervisorConfig | None = None,
        on_event: FleetEvent = _default_event,
    ) -> None:
        self.fleet_dir = os.fspath(fleet_dir)
        self.partition: PartitionMap = load_partition(self.fleet_dir)
        check_fleet_topology(self.fleet_dir, self.partition)
        solo = self.partition.replicas == 1
        self.worker_groups: list[list[WorkerHandle]] = [
            [
                WorkerHandle(
                    entry.shard_id,
                    os.path.join(self.fleet_dir, dir_name),
                    host=host,
                    worker_args=worker_args,
                    config=config,
                    on_event=on_event,
                    replica=replica,
                    # Single-replica fleets keep the v1 "shard N" label so
                    # log scrapers and the chaos gates see stable lines.
                    label=(
                        f"shard {entry.shard_id}"
                        if solo
                        else f"shard {entry.shard_id} replica {replica}"
                    ),
                )
                for replica, dir_name in enumerate(entry.replica_dirs)
            ]
            for entry in self.partition.shards
        ]
        self.workers = [w for group in self.worker_groups for w in group]

    def start(self, timeout: float = START_TIMEOUT) -> None:
        """Start every worker and wait until each has a bound address."""
        for worker in self.workers:
            worker.start()
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            while worker.address() is None:
                if time.monotonic() >= deadline:
                    self.stop()
                    raise RuntimeError(
                        f"shard {worker.shard_id} replica {worker.replica} "
                        f"worker did not come up within {timeout:g}s"
                    )
                time.sleep(0.05)

    def stop(self, timeout: float = 30.0) -> None:
        for worker in self.workers:
            worker.stop(timeout)


def run_fleet(
    fleet_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    deadline: float | None = None,
    retry_after: float = 1.0,
    max_batch: int = 256,
    breaker_threshold: int = 3,
    breaker_reset: float = 2.0,
    worker_args: Sequence[str] = (),
    start_timeout: float = START_TIMEOUT,
    on_event: FleetEvent = _default_event,
    jobs_store: str | None = None,
    jobs_dir: str | None = None,
    hedge_after: float | None = None,
    retry_budget_ratio: float | None = None,
) -> str:
    """``repro serve-fleet``: workers + router until SIGTERM/SIGINT.

    SIGHUP triggers a rolling fleet reload on a helper thread (shard by
    shard, never below N-1 serving).  Shutdown drains the router first,
    then SIGTERMs the workers, so in-flight requests complete end to end.
    Must run on the main thread (signal delivery).

    With ``jobs_store`` a dedicated jobs worker (``serve <store> --jobs``
    over the full, unsharded index) joins the fleet under the same
    supervision, and the router relays ``/jobs/*`` to it.
    """
    from repro.serve.http import run_until_signal
    from repro.shard.handlers import make_router_server
    from repro.shard.router import ShardRouter

    fleet = Fleet(
        fleet_dir, host=host, worker_args=worker_args, on_event=on_event
    )
    jobs_handle = None
    if jobs_store is not None:
        jobs_args = ["--jobs", "--jobs-dir", jobs_dir or f"{jobs_store}.jobs"]
        jobs_handle = WorkerHandle(
            fleet.partition.num_shards,
            jobs_store,
            host=host,
            worker_args=jobs_args,
            on_event=on_event,
            role="jobs",
        )
    router_kwargs = {}
    if retry_budget_ratio is not None:
        router_kwargs["retry_budget_ratio"] = retry_budget_ratio
    router = ShardRouter(
        fleet.partition,
        fleet.worker_groups,
        deadline=deadline,
        retry_after=retry_after,
        max_batch=max_batch,
        breaker_threshold=breaker_threshold,
        breaker_reset=breaker_reset,
        jobs_endpoint=jobs_handle,
        hedge_after=hedge_after,
        fleet_dir=fleet.fleet_dir,
        **router_kwargs,
    )
    fleet.start(start_timeout)
    if jobs_handle is not None:
        jobs_handle.start()
        up_by = time.monotonic() + start_timeout
        while jobs_handle.address() is None:
            if time.monotonic() >= up_by:
                jobs_handle.stop()
                fleet.stop()
                raise RuntimeError(
                    f"jobs worker did not come up within {start_timeout:g}s"
                )
            time.sleep(0.05)
    try:
        server = make_router_server(router, host, port)
    except OSError:
        if jobs_handle is not None:
            jobs_handle.stop()
        fleet.stop()
        raise
    bound_host, bound_port = server.server_address[:2]
    jobs_note = ", jobs worker" if jobs_handle is not None else ""
    replica_note = (
        f" x {fleet.partition.replicas} replicas"
        if fleet.partition.replicas > 1
        else ""
    )
    print(
        f"routing {fleet_dir} ({fleet.partition.num_shards} shards"
        f"{replica_note}, {fleet.partition.num_nodes} nodes, "
        f"{fleet.partition.num_worlds} worlds{jobs_note}) "
        f"on http://{bound_host}:{bound_port}",
        flush=True,
    )

    def reload_fleet() -> None:
        status, payload = router.reload()
        print(
            f"[fleet] rolling reload {payload['status']} "
            f"(http {status}): "
            + ", ".join(
                f"shard {entry['shard_id']} {entry['status']}"
                for entry in payload["shards"]
            ),
            file=sys.stderr,
            flush=True,
        )

    # run_until_signal closes (drains) the router before the workers stop.
    try:
        run_until_signal(server, reload_fleet)
    finally:
        if jobs_handle is not None:
            jobs_handle.stop()
        fleet.stop()
    return "serve-fleet: drained router and workers, shut down cleanly"
