"""Deterministic fault injection: every recovery path runs in tests.

Fault tolerance that is never exercised is a comment, not a property.  This
module lets tests (and the CI gate) name *exact* failure points — "crash the
worker processing the chunk starting at world 8, on its first two attempts",
"tear a swapped-in sphere-family column" — and have production code fail
there, deterministically, with zero randomness and zero overhead when no
plan is armed.

A :class:`FaultPlan` is a tuple of :class:`FaultSpec` entries.  Each names a
*site* (a string like ``"build.chunk"`` that production code passes at its
injection point), an optional *key* narrowing the site to one unit of work,
the *attempts* on which to fire, and a *kind*:

``crash``
    ``os._exit`` the current process — from a pool worker this produces the
    ``BrokenProcessPool`` the supervisor must recover from.
``error``
    raise :class:`~repro.runtime.errors.InjectedFault` — a transient
    worker-side exception, retryable at chunk granularity.
``sleep``
    block for ``seconds`` — simulates a hung chunk for timeout handling.
``torn``
    only meaningful at write sites: the writer persists a truncated
    payload and then raises, simulating a crash mid-write.

Plans travel through the ``REPRO_FAULTS`` environment variable, so pool
workers spawned after :func:`fault_scope` arms a plan inherit it
automatically.  Sites that cannot pass an explicit attempt number use a
per-process occurrence counter instead; counters reset whenever the armed
plan changes, so consecutive scopes do not bleed into each other.

Injection points are deterministic by construction: a site fires iff the
plan names it, the key matches, and the attempt matches — no clocks, no
RNGs.  The same plan against the same workload fails at the same points
every run.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, Union

from repro.runtime.errors import InjectedFault

#: Environment variable carrying the armed plan's JSON across processes.
ENV_VAR = "REPRO_FAULTS"

#: Exit status of an injected ``crash`` — recognisable in worker logs.
CRASH_EXIT_CODE = 87

VALID_KINDS = ("crash", "error", "sleep", "torn")

#: Every injection point production code currently exposes, with the unit
#: of work its ``key`` narrows to.  Chaos scripts should target these names
#: (an unknown site in a plan silently never fires).  Note that ``crash``
#: at the ``serve.*`` sites kills the *server* process, not a worker — the
#: request-level failure modes there are ``error`` and ``sleep``.
KNOWN_SITES: dict[str, str] = {
    "build.chunk": "one world-range chunk of a parallel index build "
    "(key: first world of the chunk, attempt: retry number)",
    "append.stage": "staging one column file during append_worlds or a "
    "sphere-family batch commit (key: array name)",
    "append.swap": "swapping one staged column file in, before the header "
    "commit (key: array name; 'torn' halves the swapped-in file)",
    "serve.compute": "one on-demand sphere computation in the query "
    "service (key: node id; 'sleep' past the deadline exercises the "
    "watchdog, 'error' feeds the circuit breaker)",
    "serve.store_read": "the store/cache lookup of one sphere request "
    "(key: node id)",
    "serve.reload": "a hot store reload, after candidate verification "
    "and before the generation swap ('error' forces a rollback)",
    "router.pick": "the partition-map lookup routing one request "
    "(key: node id; 'error' surfaces as an explicit router 500)",
    "router.forward": "one router->worker HTTP round-trip, fired before "
    "any bytes are sent (key: shard id; 'error' counts as a transport "
    "failure and feeds that shard's circuit breaker)",
    "router.reload": "one shard's step of a rolling fleet reload, before "
    "its worker is asked to swap (key: shard id; 'error' stops the roll "
    "with a 'partial' report and the remaining shards untouched)",
    "router.replica_pick": "the replica-ordering step routing one request "
    "to a shard's replica set (key: shard id; 'error' surfaces as an "
    "explicit router 500 before any replica is contacted)",
    "router.hedge": "launching the hedged second read after the primary "
    "replica missed the hedge deadline (key: shard id; 'error' abandons "
    "the hedge and lets the primary attempt run to completion)",
    "repair.copy": "staging one column file while rebuilding a replica "
    "from a healthy peer (key: array name; 'error' aborts the repair "
    "with the staging directory discarded and the target untouched)",
    "repair.commit": "committing a verified replica rebuild, after every "
    "staged column hashed clean and before the atomic rename (key: "
    "'<shard>/<replica>'; 'crash' leaves the old directory in place)",
    "jobs.submit": "admission and journalling of one job submission "
    "(key: job id; 'error' refuses the submission as a clean 500)",
    "jobs.step": "one greedy-iteration step of a running seed-selection "
    "job (key: job id, attempt: worker attempt number; 'crash' kills the "
    "job worker mid-selection, 'error' is a retryable step failure)",
    "jobs.commit": "appending one record to a job journal (key: record "
    "type, attempt: worker attempt number — passed explicitly so a plan "
    "does not re-fire in every respawned worker; 'torn' persists half "
    "the line, the crash artefact recovery must repair)",
    "jobs.result": "finalising a job's result record after the last "
    "selection step (key: job id, attempt: worker attempt number)",
    "data.fetch": "committing one fetched/materialised source file into "
    "the download cache, before the verify-then-rename (key: source "
    "name; 'torn' persists half the payload into the .part file, which "
    "the next fetch detects by digest and rewrites)",
    "data.parse": "one spill chunk or sort/dedup pass of a streaming "
    "ingest (key: chunk ordinal or pass name; 'crash' interrupts the "
    "parse stage, which the journalled ingest restarts cleanly)",
    "data.commit": "writing the self-checksummed dataset.json at the "
    "end of an ingest, before the staging directory is renamed into "
    "place (key: dataset name; 'torn' persists half the manifest, "
    "which loading refuses and a re-run ingest replaces)",
}

KeyLike = Union[int, str, None]


@dataclass(frozen=True)
class FaultSpec:
    """One named failure: where (site, key), when (attempts), what (kind)."""

    site: str
    kind: str
    key: KeyLike = None
    attempts: tuple[int, ...] = (0,)
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault site must be a non-empty string")
        if self.kind not in VALID_KINDS:
            raise ValueError(
                f"fault kind must be one of {VALID_KINDS}, got {self.kind!r}"
            )
        if not self.attempts:
            raise ValueError("fault attempts must name at least one attempt")
        if any(a < 0 for a in self.attempts):
            raise ValueError(f"fault attempts must be non-negative: {self.attempts}")
        if self.seconds < 0:
            raise ValueError(f"fault seconds must be non-negative, got {self.seconds}")

    def matches(self, site: str, key: KeyLike, attempt: int) -> bool:
        if site != self.site or attempt not in self.attempts:
            return False
        return self.key is None or self.key == key

    def to_mapping(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "key": self.key,
            "attempts": list(self.attempts),
            "seconds": self.seconds,
        }

    @classmethod
    def from_mapping(cls, raw: dict) -> "FaultSpec":
        key = raw.get("key")
        if key is not None and not isinstance(key, (int, str)):
            raise ValueError(f"fault key must be int, str or null, got {key!r}")
        return cls(
            site=str(raw["site"]),
            kind=str(raw["kind"]),
            key=key,
            attempts=tuple(int(a) for a in raw.get("attempts", (0,))),
            seconds=float(raw.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of failure points, serialisable for worker export."""

    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def of(cls, *faults: FaultSpec) -> "FaultPlan":
        return cls(faults=tuple(faults))

    def match(self, site: str, key: KeyLike, attempt: int) -> FaultSpec | None:
        """First spec firing at this (site, key, attempt), or ``None``."""
        for spec in self.faults:
            if spec.matches(site, key, attempt):
                return spec
        return None

    def to_json(self) -> str:
        return json.dumps(
            {"faults": [spec.to_mapping() for spec in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
            raw_faults = payload["faults"]
            if not isinstance(raw_faults, list):
                raise ValueError("'faults' must be a list")
            return cls(
                faults=tuple(FaultSpec.from_mapping(raw) for raw in raw_faults)
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed fault plan: {exc}") from exc


class FaultInjector:
    """Per-process injection engine.

    Parses the armed plan lazily from the environment (re-parsing only when
    the raw value changes, which also resets the occurrence counters) and
    interprets matched specs at each injection point.
    """

    def __init__(self) -> None:
        self._raw: str | None = None
        self._plan: FaultPlan | None = None
        self._counts: dict[tuple[str, KeyLike], int] = {}

    def plan(self) -> FaultPlan | None:
        raw = os.environ.get(ENV_VAR)
        if raw != self._raw:
            self._raw = raw
            self._plan = FaultPlan.from_json(raw) if raw else None
            self._counts = {}
        return self._plan

    def reset(self) -> None:
        """Forget cached plan and counters (a new scope starts clean)."""
        self._raw = None
        self._plan = None
        self._counts = {}

    def take(self, site: str, key: KeyLike = None, attempt: int | None = None) -> FaultSpec | None:
        """Consume one occurrence of ``site``/``key``; return the matched spec.

        When ``attempt`` is ``None`` the injector's per-process occurrence
        counter supplies it (sites like column staging, where the caller
        has no natural attempt number).  Returns ``None`` when no plan is
        armed or nothing matches — the fast path is one env lookup.
        """
        plan = self.plan()
        if plan is None:
            return None
        if attempt is None:
            counter_key = (site, key)
            attempt = self._counts.get(counter_key, 0)
            self._counts[counter_key] = attempt + 1
        return plan.match(site, key, attempt)

    def fire(
        self, site: str, key: KeyLike = None, attempt: int | None = None, *,
        torn: Path | None = None,
    ) -> None:
        """Standard injection point: crash, raise or hang per the plan.

        ``torn`` names the file the site has just written: a matched
        ``torn`` spec truncates it to half its size before raising.
        """
        spec = self.take(site, key, attempt=attempt)
        if spec is None:
            return
        if spec.kind == "torn" and torn is not None:
            os.truncate(torn, os.path.getsize(torn) // 2)
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        if spec.kind == "sleep":
            time.sleep(spec.seconds)
            return
        raise InjectedFault(
            f"injected {spec.kind} at site {site!r} (key={key!r}, attempt={attempt})"
        )

    def write_bytes(self, path: os.PathLike, payload: bytes, *, site: str, key: KeyLike = None) -> None:
        """Write ``payload`` to ``path`` — unless the plan tears this write.

        A matched ``torn`` spec persists only the first half of the payload
        and raises :class:`InjectedFault`, simulating a crash mid-write.
        Other kinds behave as in :meth:`fire`.
        """
        spec = self.take(site, key)
        if spec is not None and spec.kind == "torn":
            Path(path).write_bytes(payload[: len(payload) // 2])
            raise InjectedFault(
                f"injected torn write at site {site!r} (key={key!r})"
            )
        if spec is not None:
            if spec.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if spec.kind == "sleep":
                time.sleep(spec.seconds)
            else:
                raise InjectedFault(
                    f"injected {spec.kind} at site {site!r} (key={key!r})"
                )
        Path(path).write_bytes(payload)


#: The process-wide injector every production injection point goes through.
_INJECTOR = FaultInjector()


def maybe_fire(
    site: str, key: KeyLike = None, attempt: int | None = None, *, torn: Path | None = None
) -> None:
    """Module-level convenience over the process-wide injector."""
    _INJECTOR.fire(site, key, attempt=attempt, torn=torn)


def take_fault(site: str, key: KeyLike = None, attempt: int | None = None) -> FaultSpec | None:
    """Consume and return the matched spec for site-specific handling."""
    return _INJECTOR.take(site, key, attempt=attempt)


def faulty_write_bytes(path: os.PathLike, payload: bytes, *, site: str, key: KeyLike = None) -> None:
    """Write bytes through the injector (torn-write injection point)."""
    _INJECTOR.write_bytes(path, payload, site=site, key=key)


@contextmanager
def fault_scope(plan: FaultPlan | Sequence[FaultSpec] | None) -> Iterator[None]:
    """Arm ``plan`` for the duration of the block (and for child processes).

    Sets ``REPRO_FAULTS`` so process pools created inside the block inherit
    the plan, and restores the previous value (plus fresh injector
    counters) on exit.  ``None`` disarms injection inside the block.
    """
    if plan is not None and not isinstance(plan, FaultPlan):
        plan = FaultPlan(faults=tuple(plan))
    previous = os.environ.get(ENV_VAR)
    if plan is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = plan.to_json()
    _INJECTOR.reset()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        _INJECTOR.reset()
