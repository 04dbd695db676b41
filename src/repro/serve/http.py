"""The HTTP layer shared by the worker (``repro serve``) and the shard
router (``repro serve-fleet``).

The two tiers differ only in their routes and endpoint bodies
(:mod:`repro.serve.handlers`, :mod:`repro.shard.handlers`).  Everything
beneath those lives here, once:

* :class:`JSONRequestHandler` — response writes; the JSON error document
  ``{"error": {"status": ..., "message": ...}}`` for routed failures *and*
  transport-level ones (unsupported method, bad request line); the
  metrics-recording :meth:`~JSONRequestHandler._dispatch` that turns any
  unexpected exception into a sanitized ``500``; query parsing; the body
  read capped at :data:`MAX_BODY_BYTES` *before* reading; and the ``404``
  for an unknown route.
* :class:`DrainingHTTPServer` — a threading server whose close drains:
  requests in flight run to a complete response, connections idle between
  requests are ended.
* :func:`run_until_signal` — the SIGTERM/SIGINT drain and SIGHUP reload
  loop of both CLIs.

Each response leaves as one write: status line, headers and body in one
buffer, sent with one ``sendall``.  Written as two (headers, then body), a
keep-alive response met Nagle's algorithm on the server and delayed ACK on
the client, and the body waited ~40 ms for the ACK of the headers.
"""

from __future__ import annotations

import json
import math
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import FrameType
from typing import Any, Callable, Protocol
from urllib.parse import parse_qs, urlsplit

from repro.runtime.locksan import make_lock
from repro.serve.errors import (
    BadRequest,
    NodeNotFound,
    PayloadTooLarge,
    RetryableError,
    ServeError,
)
from repro.serve.metrics import Counter, Histogram
from repro.serve.query import canonical_json

#: Max accepted request body (1 MiB — thousands of node ids).
MAX_BODY_BYTES = 1 << 20


class InstrumentedApp(Protocol):
    """What a server carries for its handlers: the request metrics."""

    request_seconds: Histogram
    requests_total: Counter


class JSONRequestHandler(BaseHTTPRequestHandler):
    """Plumbing of a JSON service; subclasses add ``do_*`` routes."""

    protocol_version = "HTTP/1.1"
    server: DrainingHTTPServer

    # Per-request access logging off: the services are instrumented
    # through /metrics instead, and the hammer tests would flood stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- connection state (what lets the server drain) -----------------------

    def handle_one_request(self) -> None:
        # About to block reading the next request line.
        self.server._set_idle(self.connection, True)
        super().handle_one_request()

    def parse_request(self) -> bool:
        # A request line arrived: in flight until its response is sent.
        self.server._set_idle(self.connection, False)
        return super().parse_request()

    def finish(self) -> None:
        self.server._set_idle(self.connection, False)
        super().finish()

    # -- responses -----------------------------------------------------------

    # http.server's buffer of the status line and headers, which
    # ``send_response`` and ``send_header`` fill (absent in HTTP/0.9 mode).
    _headers_buffer: list[bytes]

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: tuple[tuple[str, str], ...] = (),
        reason: str | None = None,
    ) -> None:
        """Write one response to the socket with a single ``sendall``.

        The blank line and the body join the header buffer, so
        ``flush_headers`` sends the whole response at once.  A ``HEAD``
        response carries the headers of its body but not the body; an
        HTTP/0.9 one has no status line or headers, only the body.
        """
        self.send_response(status, reason)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":
            self._headers_buffer = []
        else:
            self._headers_buffer.append(b"\r\n")
        if self.command != "HEAD":
            self._headers_buffer.append(body)
        self.flush_headers()

    def _send_json(
        self,
        status: int,
        payload: Any,
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._send(status, canonical_json(payload), extra_headers=extra_headers)

    def _send_error_payload(self, exc: ServeError) -> None:
        extra: tuple[tuple[str, str], ...] = ()
        if isinstance(exc, RetryableError):
            # RFC 9110 allows only whole seconds; rounding up never
            # invites a retry earlier than asked.
            extra = (("Retry-After", str(math.ceil(exc.retry_after))),)
        self._send_json(
            exc.status,
            {"error": {"status": exc.status, "message": exc.message}},
            extra_headers=extra,
        )

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        # http.server calls this for transport-level failures (unsupported
        # method -> 501, bad request line -> 400); emit the same JSON error
        # shape as every routed failure instead of the default HTML page.
        code = int(code)
        if message is None:
            short, _ = self.responses.get(code, ("error", ""))
            message = short
        self.close_connection = True
        try:
            self._send(
                code,
                canonical_json({"error": {"status": code, "message": str(message)}}),
                extra_headers=(("Connection", "close"),),
                reason=str(message),
            )
        except OSError:
            pass  # client already gone

    def _dispatch(self, endpoint: str, handler: Callable[[], int]) -> None:
        """Run one routed handler, recording latency and outcome metrics.

        Every exception class ends as a JSON response: :class:`ServeError`
        with its own status, a vanished client silently, and anything else
        (an injected fault included) as a sanitized ``500`` that names the
        exception type but leaks no message or traceback.
        """
        app = self.server.app
        start = time.perf_counter()
        status = 500
        try:
            status = handler()
        except ServeError as exc:
            status = exc.status
            self._send_error_payload(exc)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing left to send
        except Exception as exc:
            status = 500
            try:
                self._send_json(
                    500,
                    {"error": {"status": 500,
                               "message": f"internal error ({type(exc).__name__})"}},
                )
            except OSError:
                pass
        finally:
            app.request_seconds.observe(
                time.perf_counter() - start, endpoint=endpoint
            )
            app.requests_total.inc(endpoint=endpoint, status=str(status))

    # -- request parsing -----------------------------------------------------

    def _query_params(self) -> dict[str, str]:
        parsed = parse_qs(urlsplit(self.path).query, keep_blank_values=False)
        return {name: values[-1] for name, values in parsed.items()}

    @staticmethod
    def _parse_int(raw: str, name: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise BadRequest(f"{name} must be an integer, got {raw!r}") from None

    def _read_body(self) -> bytes | None:
        """The request body bytes, size-capped before the read."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise BadRequest("Content-Length must be an integer") from None
        if length <= 0:
            return None
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
            )
        return self.rfile.read(length)

    def _read_json_body(self, *, required: bool) -> Any:
        """The request body as parsed JSON, size-capped before the read."""
        raw = self._read_body()
        if raw is None:
            if required:
                raise BadRequest("this endpoint needs a JSON body")
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from None

    def _handle_unknown(self) -> int:
        raise NodeNotFound(f"no route for {self.command} {self.path}")


def _end_reads(conn: socket.socket) -> None:
    # A blocked read of the next request line returns EOF; bytes that
    # already arrived stay readable and the write side stays open.
    try:
        conn.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # connection already closed


class DrainingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server whose ``server_close`` drains.

    ``ThreadingHTTPServer`` marks handler threads as daemons, which makes
    ``server_close`` abandon in-flight requests; flipping ``daemon_threads``
    off restores ``socketserver``'s thread tracking, so close joins every
    handler and each accepted request finishes.  A keep-alive connection
    waiting for its next request would block that join for as long as the
    client keeps it open, so close ends the read side of every connection
    idle between requests; one that turns idle after close (its in-flight
    response sent) ends the same way.

    ``app`` is what the handlers serve (a :class:`~repro.serve.app.
    SphereService` or a :class:`~repro.shard.router.ShardRouter`).
    """

    daemon_threads = False
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        handler_class: type[JSONRequestHandler],
        app: InstrumentedApp,
    ) -> None:
        self.app = app
        self._conn_lock = make_lock("DrainingHTTPServer._conn_lock")
        self._idle: set[socket.socket] = set()  # guarded-by: _conn_lock
        self._closing = False  # guarded-by: _conn_lock
        super().__init__(address, handler_class)

    def _set_idle(self, conn: socket.socket, idle: bool) -> None:
        """Record whether ``conn`` waits for a request (``idle``) or not."""
        with self._conn_lock:
            closing = self._closing
            if idle and not closing:
                self._idle.add(conn)
            else:
                self._idle.discard(conn)
        if idle and closing:
            _end_reads(conn)

    def server_close(self) -> None:
        with self._conn_lock:
            self._closing = True
            idle = list(self._idle)
        for conn in idle:
            _end_reads(conn)
        super().server_close()


def run_until_signal(
    server: DrainingHTTPServer,
    on_reload: Callable[[], None],
    signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
) -> None:
    """Serve until one of ``signals`` arrives, then drain and close.

    ``BaseServer.shutdown`` blocks until the serve loop exits, so calling
    it from a signal handler running *in* the serving main thread would
    deadlock; the handler hands it to a helper thread instead.  Must be
    called from the main thread (CPython delivers signals there).

    Where the platform has SIGHUP, it runs ``on_reload`` on a helper
    thread; the caller decides what a reload is and how it reports.
    """

    def request_shutdown(signum: int, frame: FrameType | None) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    def request_reload(signum: int, frame: FrameType | None) -> None:
        threading.Thread(target=on_reload, daemon=True).start()

    previous = {s: signal.signal(s, request_shutdown) for s in signals}
    if hasattr(signal, "SIGHUP"):
        previous[signal.SIGHUP] = signal.signal(signal.SIGHUP, request_reload)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        server.server_close()
