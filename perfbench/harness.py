"""Process, HTTP and load-generation plumbing shared by the workloads.

Everything here talks to the real ``python -m repro`` server processes the
way a pooled client does: one persistent HTTP/1.1 connection per thread,
at most ``nproc`` threads, all in this one process.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

NPROC = os.cpu_count() or 1

#: Statuses that mean "refused, retry later" rather than "broken".
REFUSED = (429, 503, 504)


# -- statistics -----------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered) - 1e-9)))
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def smooth_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of a non-empty sample.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics.
    Closed-loop latencies fall on a 4 ms grid (the client's delayed ACK
    fires on kernel ticks, and each request starts when the last ends), so
    a nearest-rank quantile jumps a whole step when a few samples move; this
    estimate moves smoothly.  Weights come from the Beta density integrated
    over 64 sub-intervals per order statistic.  An infinite sample (a failed
    request) with non-zero weight makes the estimate infinite.
    """
    cells = 64
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    mids = (np.arange(n * cells) + 0.5) / (n * cells)
    log_pdf = (a - 1) * np.log(mids) + (b - 1) * np.log1p(-mids)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, cells).sum(axis=1)
    weights /= weights.sum()
    used = weights > 0
    return float(weights[used] @ ordered[used])


def tail_quantile(count: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    ``p99`` needs 1,000 samples; below that the tail is the percentile
    that leaves exactly ten (or more) samples above it.
    """
    if count < 11:
        return 1.0
    return min(0.99, (count - 10) / count)


# -- processes ------------------------------------------------------------------


def _proc_stat(pid: int) -> tuple[str, int] | None:
    """(state, process group) of ``pid``, or None once it is gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2 :].split()
    return fields[0], int(fields[2])


def group_members(pgid: int) -> list[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _proc_stat(int(entry))
        if stat is not None and stat[1] == pgid and stat[0] != "Z":
            members.append(int(entry))
    return members


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MB (0 if it has exited)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ServerProcess:
    """One ``python -m repro <argv>`` server in its own process group.

    The server binds an ephemeral port; its stdout is drained on a thread
    so banner lines (and, for a fleet, each worker's address) can be read
    while the pipe never fills.  Workers and job attempts it spawns share
    its process group, so :meth:`stop` and :class:`RssMonitor` cover them.
    """

    def __init__(self, argv: Sequence[str], *, env: dict, log_path: Path, label: str):
        self.label = label
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.lines: list[str] = []
        self._eof = False
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append(line.rstrip("\n"))
                self._cond.notify_all()
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def wait_for(self, pattern: str, timeout: float) -> re.Match:
        """First match of ``pattern`` in the stdout text so far.

        Matched against the whole text, not line by line: a fleet prints
        from several threads, and two of its lines can run together.
        """
        deadline = time.monotonic() + timeout
        regex = re.compile(pattern, re.MULTILINE)
        with self._cond:
            while True:
                match = regex.search("\n".join(self.lines))
                if match is not None:
                    return match
                remaining = deadline - time.monotonic()
                if self._eof or remaining <= 0:
                    break
                self._cond.wait(remaining)
        raise RuntimeError(
            f"{self.label}: no expected stdout line within {timeout:g}s "
            f"(exit code {self.proc.poll()}); stdout: {self.lines[-8:]}; "
            f"log tail:\n{self.log_tail()}"
        )

    def base_url(self, timeout: float = 120.0) -> str:
        """Address from the ``serving|routing ... on http://host:port`` banner."""
        banner = r"^(?:serving|routing) .* on (http://127\.0\.0\.1:\d+)$"
        return self.wait_for(banner, timeout).group(1)

    def log_tail(self, lines: int = 20) -> str:
        self._log.flush()
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def stop(self, timeout: float = 15.0) -> list[str]:
        """SIGTERM, wait, then SIGKILL the group; returns what was killed.

        Callers close their client connections first: ``serve`` does not
        exit on SIGTERM while an idle keep-alive connection is open, and a
        kill here is recorded in the output rather than hidden.
        """
        kills: list[str] = []
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                kills.append(f"{self.label} pid {pgid}: no exit {timeout:g}s after SIGTERM")
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait()
        leftovers = group_members(pgid)
        if leftovers:
            kills.append(f"{self.label}: SIGKILL to leftover pids {leftovers}")
            for pid in leftovers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            gone_by = time.monotonic() + 10.0
            while group_members(pgid) and time.monotonic() < gone_by:
                time.sleep(0.05)
        self._reader.join(5.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return kills


class RssMonitor:
    """Peak RSS of some servers and every process in their groups.

    Each process's ``VmHWM`` is sampled while a phase runs and its largest
    value kept; the result is the sum over every process seen.
    """

    def __init__(self, servers: Sequence[ServerProcess], interval: float = 0.1):
        self._servers = servers
        self._interval = interval
        self._stop = threading.Event()
        self._peaks: dict[int, float] = {}
        self.peak_mb = 0.0
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        for server in self._servers:
            for pid in group_members(server.proc.pid):
                self._peaks[pid] = max(self._peaks.get(pid, 0.0), peak_rss_mb(pid))

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def __enter__(self) -> "RssMonitor":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
        self.peak_mb = sum(self._peaks.values())


# -- HTTP -----------------------------------------------------------------------


class TransportError(Exception):
    """The connection failed before a full response arrived."""


class Client:
    """One persistent HTTP/1.1 connection (reopened only after a failure)."""

    def __init__(self, base_url: str, timeout: float = 60.0):
        hostport = base_url.split("://", 1)[1].rstrip("/")
        host, port = hostport.rsplit(":", 1)
        if host != "127.0.0.1":
            raise ValueError(f"the benchmark only talks to 127.0.0.1, not {base_url!r}")
        self._host, self._port, self._timeout = host, int(port), timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise TransportError(f"{method} {path}: {exc!r}") from exc
        if response.will_close:
            self.close()
        return response.status, data

    def get_json(self, path: str) -> tuple[int, dict]:
        status, data = self.request("GET", path)
        return status, json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def wait_healthy(base_url: str, timeout: float = 120.0) -> None:
    """Poll ``/healthz`` on fresh connections until it answers ``ok``."""
    deadline = time.monotonic() + timeout
    last = "no answer"
    while time.monotonic() < deadline:
        client = Client(base_url, timeout=5.0)
        try:
            status, payload = client.get_json("/healthz")
            if status == 200 and payload.get("status") == "ok":
                return
            last = f"{status} {payload.get('status')}"
        except (TransportError, ValueError) as exc:
            last = repr(exc)
        finally:
            client.close()
        time.sleep(0.05)
    raise RuntimeError(f"{base_url}/healthz not ok within {timeout:g}s ({last})")


def scrape(base_url: str, families: Iterable[str]) -> dict[str, float]:
    """Each ``/metrics`` family's samples summed over all label sets."""
    client = Client(base_url)
    try:
        status, data = client.request("GET", "/metrics")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"{base_url}/metrics answered {status}")
    totals = {name: 0.0 for name in families}
    for line in data.decode().splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name in totals:
            totals[name] += float(line.rsplit(" ", 1)[1])
    return totals


# -- load generation ------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request of a precomputed schedule."""

    method: str
    path: str
    body: bytes | None = None
    nodes: tuple[int, ...] = ()  # the node(s) the answer must be about


@dataclass
class Outcome:
    op: Op
    due: float  # perf_counter time the request was due (closed loop: sent)
    sent: float
    done: float
    status: int  # 0 = transport error
    verdict: str  # ok | refused | error | wrong
    body: bytes = b""
    lateness: float = 0.0  # generator's own delay past the due time

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


Checker = Callable[[Op, bytes], bool]


def _execute(client: Client, op: Op, check: Checker) -> tuple[int, str, bytes]:
    try:
        status, body = client.request(op.method, op.path, op.body)
    except TransportError:
        return 0, "error", b""
    if status in REFUSED:
        return status, "refused", body
    if status != 200:
        return status, "error", body
    try:
        return status, ("ok" if check(op, body) else "wrong"), body
    except (ValueError, KeyError, TypeError):
        return status, "wrong", body


@dataclass
class Phase:
    outcomes: list[Outcome] = field(default_factory=list)
    seconds: float = 0.0

    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.verdict == "ok"]


def warm_connections(clients: Sequence[Client]) -> None:
    """Open every connection (one ``/healthz`` each) before timing."""
    for client in clients:
        client.request("GET", "/healthz")


def poisson_schedule(rng, count: int, rate: float) -> list[float]:
    """Due offsets (s) of ``count`` independent arrivals at ``rate``/s."""
    return [float(t) for t in rng.exponential(1.0 / rate, count).cumsum()]


def open_loop(
    base_url: str,
    ops: Sequence[Op],
    due_offsets: Sequence[float],
    check: Checker,
) -> Phase:
    """Send ``ops[i]`` at ``due_offsets[i]`` regardless of completions.

    Each request is timed from its due time, so a stall delays the
    requests queued behind it too.
    """
    clients = [Client(base_url) for _ in range(NPROC)]
    warm_connections(clients)
    outcomes: list[Outcome | None] = [None] * len(ops)
    lock = threading.Lock()
    cursor = iter(range(len(ops)))
    start = time.perf_counter() + 0.05

    def worker(client: Client) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            grabbed = time.perf_counter()
            due = start + due_offsets[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, verdict, body = _execute(client, ops[i], check)
            done = time.perf_counter()
            outcomes[i] = Outcome(
                ops[i], due, sent, done, status, verdict, body,
                lateness=max(0.0, sent - max(due, grabbed)),
            )

    _run_threads(worker, clients)
    return Phase([o for o in outcomes if o is not None], time.perf_counter() - start)


def closed_loop(
    base_url: str,
    ops: Iterator[Op],
    seconds: float,
    check: Checker,
    *,
    hook: Callable[[int, Op], object] | None = None,
) -> Phase:
    """``NPROC`` clients each send their next request when the last ends.

    Outcomes are listed in send order.  ``hook(i, op)`` may return a context
    manager that wraps request ``i`` (the traced run records spans).
    """
    clients = [Client(base_url) for _ in range(NPROC)]
    warm_connections(clients)
    outcomes: list[Outcome | None] = []
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def worker(client: Client) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                op = next(ops, None)
                if op is None:
                    return
                i = len(outcomes)
                outcomes.append(None)
            sent = time.perf_counter()
            with hook(i, op) if hook is not None else nullcontext():
                status, verdict, body = _execute(client, op, check)
            outcomes[i] = Outcome(op, sent, sent, time.perf_counter(), status, verdict, body)

    _run_threads(worker, clients)
    return Phase([o for o in outcomes if o is not None], time.perf_counter() - start)


def _run_threads(worker: Callable[[Client], None], clients: Sequence[Client]) -> None:
    pool = [threading.Thread(target=worker, args=(c,), daemon=True) for c in clients]
    try:
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        for client in clients:
            client.close()
