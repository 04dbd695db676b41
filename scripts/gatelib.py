"""Helpers the CI gates in this directory share.

Servers run through perfbench's :class:`harness.ServerProcess` (its own
process group, an ephemeral port, stderr in a log file), and the smoke
phases drive them with perfbench's open-loop generator.  The rest is the
gates' own vocabulary: a printed ``[ok]``/``[FAIL]`` check, ``fetch`` on a
fresh connection per request, ``keepalive_ms`` over one connection,
serially computed reference answers, a contract-checking hammer and one
poll-until helper.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from harness import Op, Phase, ServerProcess, open_loop, poisson_schedule, quantile  # noqa: E402

from repro.cascades.index import CascadeIndex  # noqa: E402
from repro.core.typical_cascade import TypicalCascadeComputer  # noqa: E402
from repro.runtime.faults import ENV_VAR, FaultPlan  # noqa: E402
from repro.serve import query as q  # noqa: E402

SIZE_GRID_RATIO = 1.15  # the serve default; references must match it


def check(label: str, ok: bool) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        sys.exit(1)


def fetch(base: str, path: str, *, method: str = "GET", body=None):
    """(status, headers, body_bytes) over a fresh connection; HTTP error
    statuses are returned, not raised."""
    data = json.dumps(body).encode("ascii") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def keepalive_ms(base: str, path: str, n: int = 30) -> float:
    """Median latency in ms of ``n`` GETs of ``path`` sent one after another
    over one keep-alive connection.

    A fresh connection per request, as :func:`fetch` opens, cannot show a
    stall that only a reused connection meets (a delayed ACK).  ``inf``
    if an answer is not ``200`` or the server ends the connection.
    """
    url = urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    latencies = []
    try:
        for _ in range(n):
            start = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            latencies.append((time.perf_counter() - start) * 1000.0)
            if response.status != 200 or response.will_close:
                return math.inf
    finally:
        conn.close()
    return float(np.median(latencies))


def get_json(base: str, path: str) -> dict:
    """The JSON body of ``GET path``, or ``{}`` if it cannot be had."""
    try:
        return json.loads(fetch(base, path)[2])
    except (OSError, ValueError):
        return {}


def metrics_text(base: str) -> str:
    return fetch(base, "/metrics")[2].decode()


def metric_value(metrics_text: str, sample: str) -> float:
    for line in metrics_text.splitlines():
        if line.startswith(sample + " "):
            return float(line.split()[-1])
    raise AssertionError(f"sample {sample!r} not found in /metrics")


def until(probe: Callable[[], object], timeout: float = 60.0,
          interval: float = 0.05):
    """Call ``probe()`` until it returns something truthy; return that,
    or ``None`` once ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while True:
        value = probe()
        if value:
            return value
        if time.monotonic() > deadline:
            return None
        time.sleep(interval)


# -- processes ------------------------------------------------------------------


def subprocess_env(faults: FaultPlan | None = None, **extra: str) -> dict[str, str]:
    """Environment of a ``python -m repro`` child: ``src`` on the path, and
    ``REPRO_FAULTS`` set to ``faults`` (an inherited plan is dropped)."""
    env = dict(os.environ, **extra)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop(ENV_VAR, None)
    if faults is not None:
        env[ENV_VAR] = faults.to_json()
    return env


def repro(*argv: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """One ``python -m repro`` command run to completion, output captured."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env or subprocess_env(),
    )


def start_server(workdir: Path, label: str, *argv: str,
                 env: dict[str, str] | None = None,
                 banner: str = "listening banner printed") -> tuple[ServerProcess, str]:
    """``python -m repro <argv> --port 0`` and its base URL.

    Checks, under the label ``banner``, that the server printed its
    address.  Its stderr goes to ``workdir/<label>.log``; the caller owns
    :meth:`ServerProcess.stop`.
    """
    server = ServerProcess(
        [*argv, "--port", "0"],
        env=env or subprocess_env(),
        log_path=workdir / f"{label}.log",
        label=label,
    )
    try:
        base = server.base_url()
    except BaseException as exc:
        server.stop()
        if not isinstance(exc, RuntimeError):
            raise
        print(f"  {exc}")
        base = ""
    check(banner, base.startswith("http://"))
    return server, base


def drain(server: ServerProcess, prefix: str = "", banner: str | None = None) -> None:
    """SIGTERM ``server``, check it exits 0 and, given a ``banner`` label,
    that it printed its drain line."""
    server.proc.send_signal(signal.SIGTERM)
    try:
        code = server.proc.wait(60)
    except subprocess.TimeoutExpired:
        code = None
    check(f"{prefix}exit code 0 after SIGTERM", code == 0)
    if banner is not None:
        try:
            printed = bool(server.wait_for("shut down cleanly", 10.0))
        except RuntimeError:
            printed = False
        check(banner, printed)


# -- answers --------------------------------------------------------------------


def reference_bodies(index_path: Path, nodes) -> dict[int, bytes]:
    """Serially computed canonical sphere bodies for ``nodes``."""
    index = CascadeIndex.load(index_path)
    computer = TypicalCascadeComputer(index, size_grid_ratio=SIZE_GRID_RATIO)
    return {
        node: q.canonical_json(q.sphere_payload(node, computer.compute(node)))
        for node in nodes
    }


def acceptable(status: int, body: bytes, expected: Sequence[bytes],
               refusals: Sequence[int] = ()) -> bool:
    """Correct bytes (one of ``expected``) or an explicit JSON refusal."""
    if status == 200:
        return body in expected
    try:
        return status in refusals and "error" in json.loads(body)
    except ValueError:
        return False


#: Threads that share one :func:`sweep`.
SWEEP_THREADS = 6


def sweep(base: str, nodes: Sequence[int]) -> dict[int, tuple[int, bytes]]:
    """Every node's sphere answer once, fetched by :data:`SWEEP_THREADS`
    threads that split ``nodes`` between them."""
    results: dict[int, tuple[int, bytes]] = {}

    def fetch_all(share) -> None:
        for node in share:
            status, _, body = fetch(base, f"/sphere/{node}")
            results[node] = (status, body)

    pool = [threading.Thread(target=fetch_all, args=(nodes[i::SWEEP_THREADS],))
            for i in range(SWEEP_THREADS)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    return results


class Hammer:
    """Threads asking for spheres round and round until :meth:`stop`.

    Every thread fetches all of ``nodes``, in the same order, on fresh
    connections, so with several threads the same node is asked for
    concurrently.  An answer that is neither the node's bytes in one of
    ``references`` nor an explicit refusal whose status is in
    ``refusals`` is a failure.
    """

    def __init__(self, base: str, nodes: Sequence[int],
                 references: Sequence[dict[int, bytes]], *, threads: int = 4,
                 refusals: Sequence[int] = ()):
        self.failures: list = []
        self._base, self._nodes = base, nodes
        self._references, self._refusals = references, refusals
        self._stop = threading.Event()
        self._pool = [threading.Thread(target=self._run, daemon=True)
                      for _ in range(threads)]
        for thread in self._pool:
            thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            for node in self._nodes:
                try:
                    status, _, body = fetch(self._base, f"/sphere/{node}")
                except Exception as exc:  # a dropped connection is a dropped request
                    self.failures.append((node, "transport", repr(exc)))
                    continue
                expected = [reference[node] for reference in self._references]
                if not acceptable(status, body, expected, self._refusals):
                    self.failures.append((node, status, body[:200]))

    def stop(self) -> list:
        """Stop and join the threads; the failures seen."""
        self._stop.set()
        for thread in self._pool:
            thread.join(timeout=60)
        return self.failures


# -- open-loop smoke --------------------------------------------------------------


#: The smoke phases' read mix: sphere, cascade stats, 8-node batch.
READ_MIX = {"sphere": 0.7, "cascades": 0.2, "batch": 0.1}
BATCH_SIZE = 8
#: Requests in one read smoke, their Poisson arrival rate (per second)
#: and the seed of both the mix and the schedule.
SMOKE_COUNT = 80
SMOKE_RATE = 40.0
SMOKE_SEED = 20160626


def read_smoke(base: str, reference: dict[int, bytes]) -> Phase:
    """:data:`SMOKE_COUNT` open-loop reads at :data:`SMOKE_RATE`/s in the
    :data:`READ_MIX`.

    Sphere and batch answers are byte-checked against ``reference``
    (every node's sphere body); cascade stats must be about their node.
    """
    rng = np.random.default_rng(SMOKE_SEED)
    ops = []
    for kind in rng.choice(list(READ_MIX), SMOKE_COUNT, p=list(READ_MIX.values())):
        if kind == "batch":
            nodes = tuple(int(v) for v in rng.choice(len(reference), BATCH_SIZE, replace=False))
            ops.append(Op("POST", "/spheres", q.canonical_json({"nodes": list(nodes)}), nodes))
        else:
            node = int(rng.integers(len(reference)))
            ops.append(Op("GET", f"/{kind}/{node}", nodes=(node,)))

    def correct(op: Op, body: bytes) -> bool:
        if op.method == "POST":
            results = [json.loads(reference[v]) for v in op.nodes]
            return body == q.canonical_json({"count": len(results), "results": results})
        if op.path.startswith("/cascades/"):
            payload = json.loads(body)
            return payload["node"] == op.nodes[0] and len(payload["sizes"]) == payload["num_worlds"]
        return body == reference[op.nodes[0]]

    phase = open_loop(base, ops, poisson_schedule(rng, SMOKE_COUNT, SMOKE_RATE), correct)
    latencies = [o.latency_ms for o in phase.outcomes]
    verdicts = dict(Counter(o.verdict for o in phase.outcomes))
    print(f"  open loop: {len(phase.outcomes)} requests in {phase.seconds:.1f}s, "
          f"{verdicts}, p50 {quantile(latencies, 0.5):.1f} ms, "
          f"p99 {quantile(latencies, 0.99):.1f} ms")
    return phase
