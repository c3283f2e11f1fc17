"""Minimal asyncio HTTP/1.1 front end for the mapping service.

Stdlib-only by design (the repo bakes in no web framework): requests
are parsed straight off :mod:`asyncio` streams, responses are written
with explicit ``Content-Length``, and connections are keep-alive until
a client closes or the server drains.

Endpoints:

* ``POST /map`` — communication matrix in, hierarchical mapping out.
* ``POST /map/delta`` — sparse matrix delta against a prior ``key`` in,
  remap-or-hold verdict out.
* ``POST /cache/push`` — cluster replication: sibling shards' solves in
  (see :mod:`repro.cluster.replica`), caches warmed.
* ``GET /healthz`` — liveness plus queue/cache gauges.
* ``GET /metrics`` — Prometheus text exposition.
* ``GET /trace`` — Chrome-trace JSON of the service span ring buffer.

Shutdown contract (SIGTERM/SIGINT): stop accepting, close idle
connections, wait up to ``drain_timeout`` for busy requests to finish
(they are answered, never dropped), then drain the batcher and stop the
worker pool.
"""

from __future__ import annotations

import asyncio
import signal
from typing import Dict, Optional, Tuple

from repro.faults.injector import InjectedReset, get_injector
from repro.faults.plan import SITE_HTTP_RESPONSE
from repro.obs.context import TraceContext
from repro.obs.trace import activate_tracing
from repro.service.app import MappingService, Response, ServiceConfig, _error_body

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_HEADERS = 100

#: After a framing error: the most bytes, and the longest time, spent
#: reading and dropping what the client still sends before closing.
_DISCARD_BYTES = 64 * 1024 * 1024
_DISCARD_SECONDS = 2.0


class _HttpError(Exception):
    """A malformed request; carries the status to answer with."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Request:
    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: Dict[str, str], body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body


class MappingServer:
    """One listening socket bound to one :class:`MappingService`."""

    def __init__(self, service: MappingService):
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Dict[asyncio.StreamWriter, bool] = {}
        self._handlers: "set[asyncio.Task[None]]" = set()
        self._busy = 0
        self._closing = False
        self._shutdown_requested = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port)."""
        await self.service.start()
        cfg = self.service.config
        self._server = await asyncio.start_server(
            self._handle_conn, host=cfg.host, port=cfg.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    def request_shutdown(self) -> None:
        """Signal-safe: ask the serve loop to drain and exit."""
        self._shutdown_requested.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into a graceful drain (best effort)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                return  # non-main thread or unsupported platform

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then drain and close."""
        await self._shutdown_requested.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: finish busy requests, then stop the pipeline."""
        self._closing = True
        # Swap the handle out *before* awaiting so a concurrent
        # shutdown() (signal + explicit call) can't double-drain: the
        # second caller sees None and skips straight to the conn sweep.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        # Idle keep-alive connections are parked in readline(); closing
        # them delivers EOF and their handlers exit.  Busy ones finish
        # their current response first.
        for writer, busy in list(self._conns.items()):
            if not busy:
                writer.close()
        if self._busy > 0:
            self._drained.clear()
            try:
                await asyncio.wait_for(
                    self._drained.wait(), timeout=self.service.config.drain_timeout
                )
            except asyncio.TimeoutError:
                pass  # give up waiting; remaining handlers see _closing
        await self.service.aclose()
        for writer in list(self._conns):
            writer.close()
        # Closing a transport delivers EOF to its handler only on a later
        # loop tick; await the handlers so nothing is left for loop
        # teardown to cancel noisily.
        pending = {task for task in self._handlers if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=1.0)

    # -- connection handling -----------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self._conns[writer] = False
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    self.service.metrics.inc("http_errors_total")
                    await self._write_response(
                        writer,
                        (exc.status, {}, _error_body("BadRequest", str(exc))),
                        keep_alive=False,
                    )
                    await self._discard_unread(reader, writer)
                    break
                if request is None:
                    break
                self._conns[writer] = True
                self._busy += 1
                self.service.metrics.inc("requests_total")
                self.service.metrics.inc("inflight")
                started = self.service.clock()
                try:
                    response = await self._route(request)
                except _HttpError as exc:
                    # Routing-level rejection (e.g. a malformed
                    # X-Repro-Trace header): a typed 4xx, not a 500.
                    self.service.metrics.inc("http_errors_total")
                    response = (
                        exc.status,
                        {},
                        _error_body("BadRequest", str(exc)),
                    )
                except Exception as exc:  # noqa: BLE001 — must answer, not crash
                    self.service.metrics.inc("http_errors_total")
                    response = (
                        500,
                        {},
                        _error_body("InternalError", f"{type(exc).__name__}: {exc}"),
                    )
                finally:
                    self.service.metrics.inc("inflight", -1)
                    self._busy -= 1
                    self._conns[writer] = False
                    if self._busy == 0:
                        self._drained.set()
                elapsed_ms = (self.service.clock() - started) * 1000.0
                self.service.metrics.observe("latency_ms", elapsed_ms)
                keep_alive = (
                    not self._closing  # repro-lint: ignore[RPL102] -- deliberate fresh re-read: the decision wants the *current* drain state, it does not rely on the loop-top guard
                    and request.headers.get("connection", "").lower() != "close"
                )
                # Chaos site: a scheduled `reset` here drops the fully
                # computed response on the floor and aborts the socket —
                # the half-closed-connection failure mode clients must
                # survive via their retry budget.  `slow` delays the
                # write without blocking the loop.
                try:
                    await get_injector().afire(SITE_HTTP_RESPONSE)
                except InjectedReset:
                    self.service.metrics.inc("connection_resets_total")
                    writer.transport.abort()
                    break
                await self._write_response(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            self._conns.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _discard_unread(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Half-close after a framing error, then drop what the peer still sends.

        Closing a socket with unread bytes makes the kernel reset the
        connection, and a reset can destroy the error response before
        the client reads it (an over-limit body is refused before it is
        read).  So: send FIN after the response, read and drop the rest
        until the client closes, and give up after :data:`_DISCARD_BYTES`
        or :data:`_DISCARD_SECONDS`.
        """
        try:
            writer.write_eof()
        except OSError:
            return  # the peer is already gone

        async def drain() -> None:
            left = _DISCARD_BYTES
            while left > 0:
                chunk = await reader.read(min(left, 1 << 16))
                if not chunk:
                    return
                left -= len(chunk)

        try:
            await asyncio.wait_for(drain(), timeout=_DISCARD_SECONDS)
        except asyncio.TimeoutError:
            pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[_Request]:
        """Parse one request; None on clean EOF, _HttpError on garbage."""
        try:
            line = await reader.readline()
            if not line:
                return None
            # latin-1 maps every byte, so decoding cannot fail.
            parts = line.decode("latin-1").strip().split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                raise _HttpError(400, f"malformed request line: {line[:80]!r}")
            method, path, _version = parts
            headers: Dict[str, str] = {}
            for _ in range(_MAX_HEADERS):
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n"):
                    break
                if not raw:
                    return None  # EOF mid-headers: treat as disconnect
                name, sep, value = raw.decode("latin-1").partition(":")
                if not sep:
                    raise _HttpError(400, f"malformed header: {raw[:80]!r}")
                headers[name.strip().lower()] = value.strip()
            else:
                raise _HttpError(400, "too many headers")
        except ValueError as exc:
            # StreamReader.readline raises ValueError for a line longer
            # than the stream limit (64 KiB by default).
            raise _HttpError(400, "request line or header line too long") from exc
        if "transfer-encoding" in headers:
            raise _HttpError(400, "chunked transfer encoding is not supported")
        length_raw = headers.get("content-length", "0")
        # ASCII digits only: int() would also take "+27" and "2_7".  It
        # still raises for more digits than sys.get_int_max_str_digits().
        if not (length_raw.isascii() and length_raw.isdigit()):
            raise _HttpError(400, f"bad Content-Length: {length_raw[:80]!r}")
        try:
            length = int(length_raw)
        except ValueError as exc:
            raise _HttpError(400, "Content-Length has too many digits") from exc
        if length > self.service.config.max_body_bytes:
            raise _HttpError(
                413,
                f"body of {length} bytes exceeds limit "
                f"{self.service.config.max_body_bytes}",
            )
        body = await reader.readexactly(length) if length else b""
        return _Request(method=method, path=path, headers=headers, body=body)

    @staticmethod
    def _trace_context(request: _Request) -> Optional[TraceContext]:
        """Parse the ``X-Repro-Trace`` header; raise 400 on garbage.

        A corrupted header must fail loudly at the boundary — a silently
        dropped context would mis-parent a distributed trace in a way no
        later check can detect.
        """
        raw = request.headers.get("x-repro-trace")
        if raw is None:
            return None
        try:
            return TraceContext.from_header(raw)
        except ValueError as exc:
            raise _HttpError(400, f"bad X-Repro-Trace header: {exc}") from exc

    async def _route(self, request: _Request) -> Response:
        if request.path == "/map":
            if request.method != "POST":
                return 405, {"Allow": "POST"}, _error_body(
                    "MethodNotAllowed", "/map accepts POST only"
                )
            return await self.service.handle_map(
                request.body, trace_ctx=self._trace_context(request)
            )
        if request.path == "/map/delta":
            if request.method != "POST":
                return 405, {"Allow": "POST"}, _error_body(
                    "MethodNotAllowed", "/map/delta accepts POST only"
                )
            return await self.service.handle_delta(
                request.body, trace_ctx=self._trace_context(request)
            )
        if request.path == "/cache/push":
            if request.method != "POST":
                return 405, {"Allow": "POST"}, _error_body(
                    "MethodNotAllowed", "/cache/push accepts POST only"
                )
            return await self.service.handle_cache_push(request.body)
        if request.path == "/healthz":
            if request.method != "GET":
                return 405, {"Allow": "GET"}, _error_body(
                    "MethodNotAllowed", "/healthz accepts GET only"
                )
            return self.service.healthz()
        if request.path == "/metrics":
            if request.method != "GET":
                return 405, {"Allow": "GET"}, _error_body(
                    "MethodNotAllowed", "/metrics accepts GET only"
                )
            return self.service.render_metrics()
        if request.path == "/trace":
            if request.method != "GET":
                return 405, {"Allow": "GET"}, _error_body(
                    "MethodNotAllowed", "/trace accepts GET only"
                )
            return self.service.render_trace()
        return 404, {}, _error_body("NotFound", f"no route for {request.path}")

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        status, headers, body = response
        reason = _REASONS.get(status, "Unknown")
        out = [f"HTTP/1.1 {status} {reason}"]
        merged = {"Content-Type": "application/json; charset=utf-8"}
        merged.update(headers)
        merged["Content-Length"] = str(len(body))
        merged["Connection"] = "keep-alive" if keep_alive else "close"
        for name, value in merged.items():
            out.append(f"{name}: {value}")
        head = ("\r\n".join(out) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def serve(config: Optional[ServiceConfig] = None) -> None:
    """Run a service until SIGTERM/SIGINT (the ``repro serve`` body)."""
    service = MappingService(config or ServiceConfig())
    if service.tracer.enabled:
        # Standalone process: the service tracer IS this process's
        # tracer, so thread-executor worker spans (workers=0) land in
        # the same ring the shard serves on GET /trace.
        activate_tracing(service.tracer)
    server = MappingServer(service)
    host, port = await server.start()
    server.install_signal_handlers()
    print(f"repro service listening on http://{host}:{port}", flush=True)
    await server.serve_until_shutdown()
    print("repro service drained and stopped", flush=True)
