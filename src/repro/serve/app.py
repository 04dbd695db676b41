"""The online sphere-query service.

:class:`SphereService` is the transport-independent core: it answers sphere
and cascade queries over a loaded :class:`~repro.cascades.index.
CascadeIndex`, serving precomputed spheres straight out of the
memory-mapped sphere family the index store carries
(:attr:`~repro.cascades.index.CascadeIndex.sphere_family`) and falling
back to on-demand computation through a
:class:`~repro.core.typical_cascade.TypicalCascadeComputer` otherwise.  The
on-demand path is protected by three layers, outermost first:

1. a bounded LRU result cache (:mod:`repro.serve.cache`);
2. single-flight coalescing (:mod:`repro.serve.coalesce`) — N concurrent
   requests for the same cold node run exactly one computation;
3. admission control — once ``max_inflight`` distinct computations are in
   flight, further cold requests are shed with
   :class:`~repro.serve.errors.ShedLoad` (HTTP ``429 Retry-After``) instead
   of queueing threads without bound.

On top of the throughput layers sits the resilience layer
(:mod:`repro.serve.resilience`), whose contract is *either correct or
refused*:

* every request carries a :class:`Deadline`; cold computes run under a
  watchdog so an over-deadline request returns ``504``, frees its
  admission slot and leaves the orphaned computation to late-fill the
  cache;
* a :class:`CircuitBreaker` around the compute tier degrades the server
  to store+cache-only mode (``503 Retry-After``) after repeated compute
  failures or timeouts, probing its way back on a deterministic schedule;
* :meth:`SphereService.reload` hot-swaps to a checksum-verified candidate
  store, its sphere family included, under a :class:`ReadersWriterLock` —
  in-flight requests finish on their generation, a failed verification
  (or a family pinned to other worlds) rolls back to the old one;
* store columns that fail their read-time checksum (``verify="lazy"``)
  are quarantined and surface as explicit ``500 store-corrupt`` errors,
  never as silently-wrong spheres.

:func:`make_server` wraps a service in the
:class:`~repro.serve.http.DrainingHTTPServer` both serving tiers share;
:func:`~repro.serve.http.run_until_signal` runs it until SIGTERM/SIGINT,
finishing in-flight requests before returning (graceful shutdown), and
the ``serve`` CLI hands it :meth:`SphereService.reload` for SIGHUP.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Union

from repro.cascades.index import CascadeIndex
from repro.core.sphere import SphereOfInfluence
from repro.core.store import SphereStore
from repro.core.typical_cascade import TypicalCascadeComputer
from repro.runtime.errors import InjectedFault
from repro.runtime.faults import maybe_fire
from repro.runtime.locksan import make_lock
from repro.serve import query as q
from repro.serve.cache import MISSING, LRUCache
from repro.serve.coalesce import SingleFlight
from repro.serve.errors import (
    BadRequest,
    ComputeUnavailable,
    DeadlineExceeded,
    InternalError,
    NodeNotFound,
    ServeError,
    ShedLoad,
    StoreCorrupt,
)
from repro.serve.http import DrainingHTTPServer
from repro.serve.metrics import MetricsRegistry
from repro.serve.resilience import (
    CircuitBreaker,
    Clock,
    Deadline,
    ReadersWriterLock,
    call_with_watchdog,
)
from repro.store.errors import CorruptColumnError, StoreError
from repro.store.format import ARRAY_DTYPES, FAMILY_DTYPES

PathLike = Union[str, os.PathLike]

#: Prometheus value of the breaker-state gauge per state name.
_BREAKER_GAUGE = {"closed": 0, "half_open": 1, "open": 2}


class SphereService:
    """Query façade over an index and the sphere family its store carries.

    Thread safety: every public method may be called concurrently; see the
    read-path audit note on :class:`~repro.core.typical_cascade.
    TypicalCascadeComputer` (the index read path is immutable or
    lock-protected; the service never calls ``extend``).  Public methods
    take the generation read lock exactly once and never re-enter it —
    :meth:`reload` is the only writer.
    """

    def __init__(
        self,
        index: Union[CascadeIndex, PathLike],
        *,
        cache_size: int = 1024,
        max_inflight: int = 8,
        retry_after: float = 1.0,
        size_grid_ratio: float = 1.15,
        registry: MetricsRegistry | None = None,
        source: str | None = None,
        deadline: float | None = None,
        max_batch: int = 256,
        breaker_threshold: int = 5,
        breaker_reset: float = 5.0,
        verify: str = "lazy",
        shard_id: int | None = None,
        replica_id: int | None = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self._index_path: str | None = None
        if not isinstance(index, CascadeIndex):
            self._index_path = os.fspath(index)
            if source is None:
                source = self._index_path
            index = CascadeIndex.load(index, verify=verify)
        if max_inflight < 0:
            raise ValueError(f"max_inflight must be >= 0, got {max_inflight}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._index = index  # guarded-by: _lock
        self._spheres = index.sphere_family  # guarded-by: _lock
        self._computer = TypicalCascadeComputer(  # guarded-by: _lock
            index, size_grid_ratio=size_grid_ratio
        )
        self._retry_after = float(retry_after)
        self._size_grid_ratio = float(size_grid_ratio)
        self._source = source if source is not None else "in-memory index"
        self._verify = verify
        self._shard_id = int(shard_id) if shard_id is not None else None
        self._replica_id = int(replica_id) if replica_id is not None else None
        self._clock = clock
        self._deadline_seconds = (
            float(deadline) if deadline is not None and deadline > 0 else None
        )
        self._max_batch = int(max_batch)

        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self.requests_total = reg.counter(
            "repro_serve_requests_total", "HTTP requests by endpoint and status."
        )
        self.request_seconds = reg.histogram(
            "repro_serve_request_seconds", "Request latency by endpoint."
        )
        self.store_hits_total = reg.counter(
            "repro_serve_store_hits_total",
            "Sphere queries answered from the precomputed sphere store.",
        )
        self.computes_total = reg.counter(
            "repro_serve_computes_total",
            "On-demand TypicalCascadeComputer.compute calls actually run.",
        )
        self.coalesced_total = reg.counter(
            "repro_serve_coalesced_total",
            "Sphere requests that piggybacked on another request's compute.",
        )
        self.shed_total = reg.counter(
            "repro_serve_shed_total",
            "Cold sphere computations rejected by admission control.",
        )
        self.deadline_exceeded_total = reg.counter(
            "repro_serve_deadline_exceeded_total",
            "Requests refused with 504 for running past their deadline.",
        )
        self.compute_failures_total = reg.counter(
            "repro_serve_compute_failures_total",
            "On-demand computations that failed or timed out, by kind.",
        )
        self.breaker_rejected_total = reg.counter(
            "repro_serve_breaker_rejected_total",
            "Cold requests refused with 503 while the circuit breaker was open.",
        )
        self.store_corrupt_total = reg.counter(
            "repro_serve_store_corrupt_total",
            "Requests refused with 500 because a store column is quarantined.",
        )
        self.reloads_total = reg.counter(
            "repro_serve_reloads_total",
            "Hot store reloads by result (ok / rolled_back).",
        )
        self.breaker_state = reg.gauge(
            "repro_serve_breaker_state",
            "Compute circuit breaker state (0=closed, 1=half-open, 2=open).",
        )
        self.store_generation = reg.gauge(
            "repro_serve_store_generation",
            "Store generation counter; increments on each successful reload.",
        )
        self.quarantined_columns = reg.gauge(
            "repro_serve_quarantined_columns",
            "Store columns currently quarantined by read-time verification.",
        )
        cache_hits = reg.counter(
            "repro_serve_cache_hits_total", "LRU result-cache hits."
        )
        cache_misses = reg.counter(
            "repro_serve_cache_misses_total", "LRU result-cache misses."
        )
        cache_evictions = reg.counter(
            "repro_serve_cache_evictions_total", "LRU result-cache evictions."
        )
        self.cache = LRUCache(
            cache_size,
            on_hit=cache_hits.inc,
            on_miss=cache_misses.inc,
            on_evict=cache_evictions.inc,
        )
        self._flight = SingleFlight()
        # Admission control over *distinct* in-flight computations (a burst
        # of coalesced followers consumes one slot, not N).
        self._slots = threading.Semaphore(max_inflight)
        self._max_inflight = int(max_inflight)
        self._breaker = CircuitBreaker(
            breaker_threshold,
            breaker_reset,
            clock=clock,
            on_state_change=lambda s: self.breaker_state.set(_BREAKER_GAUGE[s]),
        )
        self._lock = ReadersWriterLock()
        self._reload_lock = make_lock("SphereService._reload_lock")
        self._generation = 1  # guarded-by: _lock
        self.store_generation.set(1)
        # Optional durable job subsystem; see attach_jobs().
        self.jobs = None

    def attach_jobs(self, manager) -> None:
        """Attach a :class:`~repro.jobs.manager.JobManager` to this service.

        Enables the ``/jobs`` endpoint family in the HTTP layer and folds
        the manager's admission state into :meth:`healthz`.  The manager
        shares this service's metrics registry when constructed with it.
        """
        self.jobs = manager

    # -- introspection -------------------------------------------------------

    @property
    def index(self) -> CascadeIndex:
        # Unlocked snapshot read: the reference swap in reload() is atomic
        # and callers of the property want "some recent generation".
        return self._index  # reprolint: disable=REP701

    @property
    def spheres(self) -> SphereStore | None:
        return self._spheres  # reprolint: disable=REP701 - snapshot read

    @property
    def source(self) -> str:
        return self._source

    @property
    def max_inflight(self) -> int:
        return self._max_inflight

    @property
    def max_batch(self) -> int:
        return self._max_batch

    @property
    def deadline_seconds(self) -> float | None:
        return self._deadline_seconds

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def generation(self) -> int:
        return self._generation  # reprolint: disable=REP701 - snapshot read

    @property
    def shard_id(self) -> int | None:
        """This worker's shard id when serving a fleet shard, else ``None``."""
        return self._shard_id

    @property
    def replica_id(self) -> int | None:
        """This worker's replica id within its shard, else ``None``."""
        return self._replica_id

    def new_deadline(self) -> Deadline:
        """A fresh per-request deadline from the configured budget."""
        return Deadline.after(self._deadline_seconds, self._clock)

    # -- resilience plumbing -------------------------------------------------

    def _quarantined(self) -> tuple[str, ...]:  # requires-lock: _lock
        guard = self._index.store_integrity
        return guard.quarantined() if guard is not None else ()

    def _map_corrupt(self, exc: CorruptColumnError) -> StoreCorrupt:  # requires-lock: _lock
        self.store_corrupt_total.inc()
        self.quarantined_columns.set(len(self._quarantined()))
        return StoreCorrupt(
            f"store column {exc.column!r} failed its checksum and is "
            f"quarantined: {exc}"
        )

    @contextmanager
    def _request_guard(self) -> Iterator[None]:  # requires-lock: _lock
        """Translate resilience-layer exceptions at the public surface."""
        try:
            yield
        except DeadlineExceeded:
            self.deadline_exceeded_total.inc()
            raise
        except CorruptColumnError as exc:
            raise self._map_corrupt(exc) from exc

    # -- core lookups --------------------------------------------------------

    def _check_node(self, node: int) -> int:  # requires-lock: _lock
        try:
            return q.require_node(node, self._index.num_nodes)
        except KeyError as exc:
            raise NodeNotFound(exc.args[0]) from exc

    def get_sphere(
        self, node: int, deadline: Deadline | None = None
    ) -> SphereOfInfluence:
        """The sphere of ``node``: family, then cache, then coalesced compute.

        With the node present in the store's sphere family this performs
        **zero** computer calls (the warm-path guarantee the smoke test
        pins via ``repro_serve_computes_total``).
        """
        if deadline is None:
            deadline = self.new_deadline()
        with self._lock.read(), self._request_guard():
            return self._sphere_locked(node, deadline)

    # requires-lock: _lock
    def _sphere_locked(
        self, node: int, deadline: Deadline
    ) -> SphereOfInfluence:
        node = self._check_node(node)
        deadline.require(f"sphere({node}) lookup")
        maybe_fire("serve.store_read", key=node)
        if self._spheres is not None:
            hit = self._spheres.get(node)
            if hit is not None:
                self.store_hits_total.inc()
                return hit
        hit = self.cache.get(node)
        if hit is not MISSING:
            return hit

        # Captured so the (possibly orphaned) computation banks its result
        # into the generation it was computed against, never a reloaded one.
        cache = self.cache
        generation = self._generation

        def bank(sphere: SphereOfInfluence) -> None:
            if self._generation == generation:
                cache.put(node, sphere)

        def bank_late(sphere: SphereOfInfluence) -> None:
            # Runs on an orphaned watchdog thread that holds no locks:
            # re-enter through the read lock so the generation check and
            # the cache fill are ordered against an in-progress reload
            # swap (the unlocked check in bank() is safe for the leader
            # only because the leader's caller already holds the lock).
            with self._lock.read():
                bank(sphere)

        def compute() -> SphereOfInfluence:
            try:
                self._breaker.allow()
            except ComputeUnavailable:
                self.breaker_rejected_total.inc()
                raise
            # Every admitted call must settle the breaker exactly once.
            # Outcomes the compute tier is accountable for (success,
            # error, timeout) are recorded; refusals that happen between
            # admission and the computation itself (shed, quarantined
            # column) abandon the slot instead — otherwise a half-open
            # probe that sheds would reserve the probe slot forever and
            # hold the breaker open with no way to close it.
            settled = False
            try:
                if not self._slots.acquire(blocking=False):
                    self.shed_total.inc()
                    raise ShedLoad(
                        f"compute queue full ({self._max_inflight} in flight); "
                        "retry shortly",
                        retry_after=self._retry_after,
                    )
                try:
                    self.computes_total.inc()

                    def run() -> SphereOfInfluence:
                        maybe_fire("serve.compute", key=node)
                        return self._computer.compute(node)

                    try:
                        sphere = call_with_watchdog(
                            run,
                            deadline,
                            what=f"compute(node={node})",
                            on_late_result=bank_late,
                        )
                    except DeadlineExceeded:
                        self.compute_failures_total.inc(kind="timeout")
                        self._breaker.record_failure()
                        settled = True
                        raise
                    except CorruptColumnError:
                        # Store damage, not a compute-tier fault: keep the
                        # breaker out of it so the 500 is not masked by a 503.
                        raise
                    except ServeError:
                        raise
                    except Exception as exc:
                        self.compute_failures_total.inc(kind="error")
                        self._breaker.record_failure()
                        settled = True
                        raise InternalError(
                            f"sphere computation for node {node} failed: {exc}"
                        ) from exc
                    self._breaker.record_success()
                    settled = True
                finally:
                    self._slots.release()
            finally:
                if not settled:
                    self._breaker.abandon()
            bank(sphere)
            return sphere

        try:
            sphere, leader = self._flight.do(
                node, compute, timeout=deadline.remaining()
            )
        except TimeoutError:
            # A follower outwaited its own deadline; the leader's flight
            # continues undisturbed for everyone else.
            raise DeadlineExceeded(
                f"deadline exceeded waiting for the in-flight computation "
                f"of node {node}"
            ) from None
        if not leader:
            self.coalesced_total.inc()
        return sphere

    # -- endpoint payloads ---------------------------------------------------

    def sphere(
        self, node: int, deadline: Deadline | None = None
    ) -> dict[str, Any]:
        if deadline is None:
            deadline = self.new_deadline()
        with self._lock.read(), self._request_guard():
            return q.sphere_payload(node, self._sphere_locked(node, deadline))

    def cascades(
        self,
        node: int,
        world: int | None = None,
        deadline: Deadline | None = None,
    ) -> dict[str, Any]:
        if deadline is None:
            deadline = self.new_deadline()
        with self._lock.read(), self._request_guard():
            deadline.require(f"cascades({node})")
            try:
                if world is None:
                    return q.cascade_stats_payload(self._index, node)
                return q.cascade_world_payload(self._index, node, world)
            except KeyError as exc:
                raise NodeNotFound(exc.args[0]) from exc

    def sphere_batch(
        self, nodes: Iterable[Any], deadline: Deadline | None = None
    ) -> dict[str, Any]:
        """``POST /spheres``: per-node results, errors embedded per entry.

        Per-node failures (unknown node, shed, breaker-open, quarantined
        column) are embedded so one bad entry does not void the rest;
        request-scoped failures (malformed input, the *request's* deadline)
        abort the whole batch.
        """
        if deadline is None:
            deadline = self.new_deadline()
        nodes = q.validate_batch(nodes, self._max_batch)
        results: list[dict[str, Any]] = []
        with self._lock.read(), self._request_guard():
            for raw in nodes:
                deadline.require(f"batch entry for node {raw}")
                try:
                    results.append(
                        q.sphere_payload(raw, self._sphere_locked(raw, deadline))
                    )
                except DeadlineExceeded:
                    raise
                except CorruptColumnError as exc:
                    mapped = self._map_corrupt(exc)
                    results.append(
                        {"node": int(raw), "error": {"status": mapped.status,
                                                     "message": mapped.message}}
                    )
                except ServeError as exc:
                    results.append(
                        {"node": int(raw), "error": {"status": exc.status,
                                                     "message": exc.message}}
                    )
        return {"count": len(results), "results": results}

    def most_reliable(self, count: int, min_size: int = 2) -> dict[str, Any]:
        with self._lock.read():
            if self._spheres is None:
                raise BadRequest(
                    "most-reliable needs a precomputed sphere family; write "
                    "one into the store with 'repro sphere --all --index'"
                )
            if count <= 0:
                raise BadRequest(f"count must be positive, got {count}")
            if min_size < 1:
                raise BadRequest(f"min-size must be >= 1, got {min_size}")
            return q.most_reliable_payload(self._spheres, count, min_size)

    def healthz(self) -> dict[str, Any]:
        with self._lock.read():
            quarantined = self._quarantined()
            breaker = self._breaker.snapshot()
            degraded = breaker["state"] != CircuitBreaker.CLOSED or quarantined
            self.quarantined_columns.set(len(quarantined))
            payload = {
                "status": "degraded" if degraded else "ok",
                "shard_id": self._shard_id,
                "replica_id": self._replica_id,
                "store_generation": self._generation,
                "source": self._source,
                "num_nodes": self._index.num_nodes,
                "num_worlds": self._index.num_worlds,
                "precomputed_spheres": (
                    len(self._spheres) if self._spheres is not None else 0
                ),
                "cache": self.cache.stats(),
                "max_inflight": self._max_inflight,
                "max_batch": self._max_batch,
                "deadline_seconds": self._deadline_seconds,
                "generation": self._generation,
                "breaker": breaker,
                "quarantined_columns": list(quarantined),
            }
        if self.jobs is not None:
            payload["jobs"] = self.jobs.healthz()
        return payload

    def metrics_text(self) -> str:
        return self.registry.render()

    # -- hot reload ----------------------------------------------------------

    def reload(self, index_path: PathLike | None = None) -> dict[str, Any]:
        """Verify a candidate store and atomically swap to it.

        With no argument, re-opens the store the service was started from
        (the SIGHUP case, e.g. after ``index append`` grew the store
        in place — safe because appends replace columns via ``os.replace``,
        so the old generation's mmaps stay valid).  The candidate is opened
        with its sphere family and every column it serves from
        SHA-256-verified before the swap; any failure, or a family pinned to other worlds, rolls
        back — the running generation is untouched and keeps serving.

        The swap itself happens under the write lock: in-flight requests
        drain on their generation, then the store/cache/computer pointers
        flip together, so no request ever observes a mixed generation and
        none are dropped.
        """
        index_path = (
            os.fspath(index_path) if index_path is not None else self._index_path
        )
        if index_path is None:
            raise BadRequest(
                "server was started from an in-memory index; there is no "
                "store path to reload"
            )
        # Blocking I/O (candidate load + full SHA-256 scrub) deliberately
        # happens under the reload mutex: it serialises concurrent reloads
        # and is never on a request path (requests take only the RW lock).
        with self._reload_lock:  # reprolint: disable=REP703
            try:
                candidate = CascadeIndex.load(index_path, verify="lazy")
                # Promote the lazy open to a full scrub: hash every column
                # it serves from, the family's included, so the swap is
                # all-or-nothing.  (A family whose files a crashed sweep
                # left at other sizes opened as absent; it serves nothing.)
                candidate.store_integrity.verify(*ARRAY_DTYPES)
                if candidate.sphere_family is not None:
                    candidate.store_integrity.verify(*FAMILY_DTYPES)
                maybe_fire("serve.reload")
            except (StoreError, FileNotFoundError, InjectedFault) as exc:
                self.reloads_total.inc(result="rolled_back")
                raise StoreCorrupt(
                    f"reload rolled back ({type(exc).__name__}: {exc}); "
                    "still serving the previous store generation"
                ) from exc
            new_computer = TypicalCascadeComputer(
                candidate, size_grid_ratio=self._size_grid_ratio
            )
            with self._lock.write():
                self._index = candidate
                self._spheres = candidate.sphere_family
                self._computer = new_computer
                dropped = self.cache.clear()
                self._generation += 1
                generation = self._generation
            # Fresh verified store: give the compute tier a clean slate.
            self._breaker.record_success()
            self.reloads_total.inc(result="ok")
            self.store_generation.set(generation)
            self.quarantined_columns.set(0)
            # Report the candidate's facts directly — re-reading
            # self._index/_spheres here would race a concurrent reload.
            family = candidate.sphere_family
            return {
                "status": "reloaded",
                "generation": generation,
                "source": index_path,
                "num_worlds": candidate.num_worlds,
                "precomputed_spheres": len(family) if family is not None else 0,
                "dropped_cache_entries": dropped,
            }


def make_server(
    service: SphereService, host: str = "127.0.0.1", port: int = 0
) -> DrainingHTTPServer:
    """Bind a draining server for ``service`` (``port=0`` = ephemeral)."""
    from repro.serve.handlers import SphereRequestHandler

    return DrainingHTTPServer((host, port), SphereRequestHandler, service)
