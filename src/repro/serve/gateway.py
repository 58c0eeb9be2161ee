"""The HTTP/WebSocket production front door (stdlib only).

:class:`GatewayServer` layers an HTTP/1.1 gateway over the same
:class:`~repro.serve.session.SessionManager` the TCP JSON-lines server
uses, adding what a deployment-facing edge needs and a raw socket
protocol cannot give:

* **Bearer-token auth** (``Authorization: Bearer <token>`` or
  ``?token=``) and **per-client token-bucket rate limiting** via a
  shared :class:`~repro.serve.policy.AccessPolicy` — the *same object*
  the TCP server enforces, so the two front doors cannot drift.  A
  rejected request is answered ``401``/``429`` at the edge without
  touching the session manager or consuming a scheduler slice.
* **Observability**: a ``/metrics`` endpoint exposing engine cache and
  compiled-core counters (``stream_hits``/``misses``, ``core_hits``),
  session/eviction counts, admission counters, tracer stats, and
  rolling p50/p95/p99 fetch latency (a
  :class:`~repro.obs.latency.LatencyWindow` over the
  :class:`~repro.obs.latency.LatencyStats` machinery) — as JSON, or as
  Prometheus text exposition via content negotiation (``Accept:
  text/plain`` or ``?format=prometheus``).  Structured JSON request
  logging on ``repro.serve.gateway`` carries a per-request
  ``request_id`` (honouring a client's ``X-Request-Id``, echoed back in
  the response header) and the request's wall-clock ``ms``.
* **Two client shapes over one semantics**: request/response JSON
  endpoints (``POST /v1/prepare`` …) for stateless HTTP clients, and a
  WebSocket upgrade (``GET /v1/ws``) that speaks the *exact* JSON-lines
  protocol of :mod:`repro.serve.protocol`, one message per text frame.
  Both paths dispatch through the TCP server's
  :class:`~repro.serve.server.OpDispatcher`, so validation, error
  codes, and result framing are bit-identical across transports.

Endpoints
---------

====================  ======================================================
``GET  /healthz``     liveness (never authenticated, never throttled)
``GET  /metrics``     engine/session/latency/admission counters
``GET  /debug``       HTML status page (sessions, latency, memory)
``GET  /v1/stats``    the ``stats`` op (full per-session detail)
``POST /v1/prepare``  the ``prepare`` op; body = op fields sans ``op``
``POST /v1/fetch``    the ``fetch`` op; results buffered into ``results``
``POST /v1/explain``  the ``explain`` op
``POST /v1/close``    the ``close`` op (cursor or whole session)
``GET  /v1/ws``       WebSocket upgrade to the JSON-lines protocol
====================  ======================================================

Everything is implemented on ``asyncio`` streams with the standard
library only — no web framework — matching the repo's zero-dependency
serving stack.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import logging
import time
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.engine.engine import Engine
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.top import debug_html
from repro.obs.trace import new_request_id
from repro.serve import protocol
from repro.serve.policy import AccessPolicy
from repro.util.resilience import COUNTERS as RESILIENCE_COUNTERS
from repro.serve.server import CoalescingWriter, OpDispatcher, ServerThread
from repro.serve.session import SessionManager
from repro.util import faults

logger = logging.getLogger("repro.serve.gateway")

#: Protocol error code → HTTP status.
HTTP_STATUS = {
    protocol.ERR_BAD_REQUEST: 400,
    protocol.ERR_UNKNOWN_OP: 400,
    protocol.ERR_QUERY: 400,
    protocol.ERR_UNAUTHORIZED: 401,
    protocol.ERR_BUDGET: 403,
    protocol.ERR_UNKNOWN_SESSION: 404,
    protocol.ERR_UNKNOWN_CURSOR: 404,
    protocol.ERR_THROTTLED: 429,
    protocol.ERR_INTERNAL: 500,
    protocol.ERR_OVERLOADED: 503,
    protocol.ERR_DEADLINE: 504,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    101: "Switching Protocols",
}

#: RFC 6455 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_WS_TEXT, _WS_CLOSE, _WS_PING, _WS_PONG = 0x1, 0x8, 0x9, 0xA

#: Paths → protocol ops for the request/response endpoints.
_POST_OPS = {
    "/v1/prepare": "prepare",
    "/v1/fetch": "fetch",
    "/v1/explain": "explain",
    "/v1/close": "close",
}


def ws_accept_key(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's handshake key."""
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def ws_encode_frame(payload: bytes, opcode: int = _WS_TEXT) -> bytes:
    """One server→client (unmasked) WebSocket frame."""
    head = bytearray([0x80 | opcode])
    n = len(payload)
    if n < 126:
        head.append(n)
    elif n < 1 << 16:
        head.append(126)
        head += n.to_bytes(2, "big")
    else:
        head.append(127)
        head += n.to_bytes(8, "big")
    return bytes(head) + payload


async def ws_read_frame(
    reader: asyncio.StreamReader, max_bytes: int
) -> tuple[bool, int, bytes]:
    """Read one frame: (fin, opcode, unmasked payload)."""
    head = await reader.readexactly(2)
    fin = bool(head[0] & 0x80)
    opcode = head[0] & 0x0F
    masked = bool(head[1] & 0x80)
    length = head[1] & 0x7F
    if length == 126:
        length = int.from_bytes(await reader.readexactly(2), "big")
    elif length == 127:
        length = int.from_bytes(await reader.readexactly(8), "big")
    if length > max_bytes:
        raise ValueError(f"frame of {length} bytes exceeds {max_bytes}")
    mask = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length)
    if mask:
        payload = bytes(b ^ mask[i % 4] for i, b in enumerate(payload))
    return fin, opcode, payload


class _CollectWriter:
    """Writer shim that keeps a response's protocol lines, encoded.

    An HTTP response needs its status line first, so nothing is sent
    while the op runs: the dispatcher's ``protocol.encode`` lines are
    kept as they are and :meth:`GatewayServer._dispatch_http` splices
    them into one body when the terminator has arrived — only that one
    line is ever decoded here.  ``is_closing`` proxies the real
    transport so a client that disconnects mid-fetch still aborts the
    enumeration (the scheduler rewinds the undelivered slice).
    """

    def __init__(self, transport_writer: asyncio.StreamWriter):
        self._writer = transport_writer
        self.lines: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.lines.append(data)

    async def drain(self) -> None:
        return None

    def is_closing(self) -> bool:
        return self._writer.is_closing()


class _WsWriter(CoalescingWriter):
    """Writer shim that wraps each protocol line into a text frame.

    One frame per line, as ever; the frames written between two drains
    (a slice of results, or the last slice and the terminator) reach the
    socket as one send.
    """

    def write(self, data: bytes) -> None:
        faults.hit("gateway.write")
        super().write(ws_encode_frame(data.rstrip(b"\n")))


class _HttpRequest:
    """One parsed HTTP/1.1 request."""

    __slots__ = (
        "method", "path", "query", "headers", "body", "keep_alive",
        "request_id",
    )

    def __init__(self, method, path, query, headers, body, keep_alive):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive
        #: Set by the connection handler: the client's ``X-Request-Id``
        #: or a freshly generated id; echoed on the response and logged.
        self.request_id: str | None = None


class GatewayServer:
    """A stdlib HTTP/1.1 + WebSocket gateway over one session manager.

    Pass ``manager=`` to share sessions (and edge policy) with a
    running :class:`~repro.serve.server.ServeServer`; otherwise a
    private manager is built over ``engine`` with the same knobs the
    TCP server takes.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        manager: SessionManager | None = None,
        policy: AccessPolicy | None = None,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        result_budget: int | None = None,
        slice_size: int = 64,
        max_frame_bytes: int = 1 << 20,
        log_requests: bool = True,
        drain_s: float = 0.0,
    ):
        if drain_s < 0:
            raise ValueError(f"drain_s must be non-negative, got {drain_s}")
        if manager is None:
            if engine is None:
                raise ValueError("GatewayServer needs an engine or a manager")
            manager = SessionManager(
                engine,
                max_sessions=max_sessions,
                ttl_seconds=ttl_seconds,
                result_budget=result_budget,
                slice_size=slice_size,
            )
        self.manager = manager
        self.engine = manager.engine
        self.policy = policy if policy is not None else AccessPolicy()
        self.dispatcher = OpDispatcher(manager, self.policy)
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.log_requests = log_requests
        #: Default grace period for :meth:`stop`.
        self.drain_s = drain_s
        #: The engine's tracer: gateway request spans open here, so
        #: engine spans created while dispatching nest under them and
        #: the whole request is one trace (request-ID propagation).
        self.tracer = self.engine.tracer
        self._server: asyncio.AbstractServer | None = None
        self.started_at = time.time()
        self.http_requests = Counter(
            "repro_gateway_http_requests_total", "HTTP requests received."
        )
        self.ws_connections = Counter(
            "repro_gateway_ws_connections_total", "WebSocket upgrades."
        )
        self.ws_messages = Counter(
            "repro_gateway_ws_messages_total", "WebSocket messages received."
        )
        #: Requests currently inside dispatch (drain watches this).
        #: A plain int (goes down as well as up); exported as a gauge.
        self.active_requests = 0
        #: The deployment's typed-instrument registry behind
        #: ``GET /metrics?format=prometheus``.  Per-gateway, never
        #: process-global: two gateways (or two test fixtures) each see
        #: exactly their own deployment's instruments.
        self.registry = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        registry = self.registry
        registry.attach(self.http_requests)
        registry.attach(self.ws_connections)
        registry.attach(self.ws_messages)
        registry.attach(self.dispatcher.requests)
        registry.attach(RESILIENCE_COUNTERS.family)
        self.policy.register_metrics(registry)
        self.manager.register_metrics(registry)
        self.engine.register_metrics(registry)
        registry.gauge(
            "repro_gateway_uptime_seconds",
            "Seconds since the gateway started.",
            fn=lambda: round(time.time() - self.started_at, 3),
        )
        registry.gauge(
            "repro_gateway_active_requests",
            "Requests currently inside dispatch.",
            fn=lambda: self.active_requests,
        )
        tracer_stats = self.tracer.stats
        registry.gauge(
            "repro_tracing_enabled",
            "1 when the engine tracer records spans.",
            fn=lambda: 1 if tracer_stats().get("enabled") else 0,
        )
        for field in ("recorded", "dropped", "buffered"):
            registry.gauge(
                f"repro_tracing_{field}",
                f"Engine tracer: spans {field}.",
                fn=lambda field=field: tracer_stats().get(field, 0),
            )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(
        self, close_sessions: bool = True, drain_s: float | None = None
    ) -> None:
        """Stop accepting, drain in-flight dispatches, drop sessions.

        Same drain semantics as :meth:`ServeServer.stop`: during the
        grace period a mid-fetch client still receives its full page.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drain_s = self.drain_s if drain_s is None else drain_s
        if drain_s > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + drain_s
            while self.active_requests > 0 and loop.time() < deadline:
                await asyncio.sleep(0.005)
        if close_sessions:
            self.manager.close()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- HTTP plumbing ---------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _HttpRequest | None:
        """Parse one request; ``None`` on clean EOF, ValueError on junk."""
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=300.0
            )
        except asyncio.TimeoutError:
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ValueError(f"malformed request line {request_line!r}")
        method, target, version = parts
        split = urlsplit(target)
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await reader.readline()
            header_bytes += len(line)
            if header_bytes > self.max_frame_bytes:
                raise ValueError("header section too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.max_frame_bytes:
            raise ValueError(
                f"body of {length} bytes exceeds {self.max_frame_bytes}"
            )
        body = await reader.readexactly(length) if length else b""
        keep_alive = version == "HTTP/1.1" and (
            headers.get("connection", "").lower() != "close"
        )
        return _HttpRequest(method, split.path, query, headers, body, keep_alive)

    def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool = True,
        extra_headers: dict[str, str] | None = None,
        request_id: str | None = None,
    ) -> int:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return self._respond_raw(
            writer, status, body, "application/json", keep_alive,
            extra_headers, request_id,
        )

    def _respond_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        keep_alive: bool = True,
        extra_headers: dict[str, str] | None = None,
        request_id: str | None = None,
    ) -> int:
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if request_id:
            headers.append(f"X-Request-Id: {request_id}")
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        faults.hit("gateway.write")
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body)
        return len(body)

    def _log(
        self,
        request: _HttpRequest | None,
        peer: str,
        status: int,
        elapsed: float,
        **extra: Any,
    ) -> None:
        if not self.log_requests:
            return
        record = {
            "event": "request",
            "client": peer,
            "method": request.method if request else "-",
            "path": request.path if request else "-",
            "status": status,
            "ms": round(elapsed * 1e3, 3),
        }
        record.update(extra)
        logger.info(json.dumps(record, separators=(",", ":")))

    # -- auth / admission ------------------------------------------------------

    def _request_token(self, request: _HttpRequest) -> str | None:
        auth = request.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return request.query.get("token")

    def _edge_check(self, request: _HttpRequest, peer: str) -> dict | None:
        """Auth + admission; an error dict means "reject at the edge"."""
        if request.path == "/healthz":
            return None
        if not self.policy.authorize(self._request_token(request)):
            return protocol.error(
                protocol.ERR_UNAUTHORIZED, "missing or invalid auth token"
            )
        if not self.policy.admit(peer):
            retry = self.policy.retry_after(peer)
            return protocol.error(
                protocol.ERR_THROTTLED,
                f"rate limit exceeded; retry in {retry:.3f}s",
            )
        return None

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else str(peername)
        try:
            while True:
                started = time.perf_counter()
                request_id = new_request_id()
                try:
                    request = await self._read_request(reader)
                except (ValueError, asyncio.IncompleteReadError) as exc:
                    self.http_requests += 1
                    self._respond(
                        writer,
                        400,
                        protocol.error(protocol.ERR_BAD_REQUEST, str(exc)),
                        keep_alive=False,
                        request_id=request_id,
                    )
                    await writer.drain()
                    self._log(
                        None, peer, 400, time.perf_counter() - started,
                        request_id=request_id,
                    )
                    break
                if request is None:
                    break
                # Honour a client-supplied id (trace continuation across
                # services); otherwise the generated one stands.
                request.request_id = (
                    request.headers.get("x-request-id") or request_id
                )
                self.http_requests += 1
                rejection = self._edge_check(request, peer)
                if rejection is not None:
                    status = HTTP_STATUS[rejection["error"]]
                    extra = {}
                    if status == 429:
                        extra["Retry-After"] = str(
                            max(1, round(self.policy.retry_after(peer)))
                        )
                    self._respond(
                        writer, status, rejection,
                        keep_alive=request.keep_alive, extra_headers=extra,
                        request_id=request.request_id,
                    )
                    await writer.drain()
                    self._log(
                        request, peer, status, time.perf_counter() - started,
                        request_id=request.request_id,
                    )
                    if not request.keep_alive:
                        break
                    continue
                if self._is_ws_upgrade(request):
                    self._log(
                        request, peer, 101, time.perf_counter() - started,
                        request_id=request.request_id,
                    )
                    await self._serve_websocket(request, reader, writer, peer)
                    break
                status = await self._route(request, writer)
                await writer.drain()
                self._log(
                    request, peer, status, time.perf_counter() - started,
                    request_id=request.request_id,
                )
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    # -- routing ---------------------------------------------------------------

    async def _route(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> int:
        if request.path == "/healthz":
            if request.method != "GET":
                return self._method_not_allowed(request, writer, "GET")
            self._respond(
                writer,
                200,
                {"ok": True, "status": "serving"},
                keep_alive=request.keep_alive,
                request_id=request.request_id,
            )
            return 200
        if request.path == "/metrics":
            if request.method != "GET":
                return self._method_not_allowed(request, writer, "GET")
            # Content negotiation: Prometheus scrapers ask for
            # text/plain (or ?format=prometheus) and get the typed
            # registry exposition; everyone else keeps the JSON
            # document.
            accept = request.headers.get("accept", "")
            if (
                "text/plain" in accept
                or request.query.get("format") == "prometheus"
            ):
                self._respond_raw(
                    writer,
                    200,
                    self.registry.render().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                    keep_alive=request.keep_alive,
                    request_id=request.request_id,
                )
            else:
                self._respond(
                    writer, 200, self.metrics(),
                    keep_alive=request.keep_alive,
                    request_id=request.request_id,
                )
            return 200
        if request.path == "/debug":
            if request.method != "GET":
                return self._method_not_allowed(request, writer, "GET")
            self._respond_raw(
                writer,
                200,
                debug_html(self.metrics()).encode("utf-8"),
                "text/html; charset=utf-8",
                keep_alive=request.keep_alive,
                request_id=request.request_id,
            )
            return 200
        if request.path == "/v1/stats":
            if request.method != "GET":
                return self._method_not_allowed(request, writer, "GET")
            return await self._dispatch_http(request, writer, {"op": "stats"})
        op = _POST_OPS.get(request.path)
        if op is not None:
            if request.method != "POST":
                return self._method_not_allowed(request, writer, "POST")
            try:
                fields = (
                    json.loads(request.body.decode("utf-8"))
                    if request.body
                    else {}
                )
                if not isinstance(fields, dict):
                    raise ValueError("request body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                self._respond(
                    writer,
                    400,
                    protocol.error(protocol.ERR_BAD_REQUEST, str(exc)),
                    keep_alive=request.keep_alive,
                    request_id=request.request_id,
                )
                return 400
            fields.pop("token", None)
            fields["op"] = op
            return await self._dispatch_http(request, writer, fields)
        self._respond(
            writer,
            404,
            protocol.error(
                protocol.ERR_BAD_REQUEST, f"no route for {request.path!r}"
            ),
            keep_alive=request.keep_alive,
            request_id=request.request_id,
        )
        return 404

    def _method_not_allowed(
        self, request: _HttpRequest, writer: asyncio.StreamWriter, allow: str
    ) -> int:
        self._respond(
            writer,
            405,
            protocol.error(
                protocol.ERR_BAD_REQUEST,
                f"{request.method} not allowed on {request.path}",
            ),
            keep_alive=request.keep_alive,
            extra_headers={"Allow": allow},
            request_id=request.request_id,
        )
        return 405

    async def _dispatch_http(
        self,
        request: _HttpRequest,
        writer: asyncio.StreamWriter,
        wire_request: dict,
    ) -> int:
        """Run one protocol op, folding its line stream into one body.

        Results stream through the same scheduler slices (and abort on
        client disconnect) as on the TCP path; they are simply buffered
        into a single JSON response at the end, because an HTTP
        response needs its status line first.
        """
        collector = _CollectWriter(writer)
        # The request span roots the trace: dispatch runs in this task,
        # so session/engine spans opened below nest under it and carry
        # the edge's request id end to end.
        self.active_requests += 1
        try:
            with self.tracer.span(
                "gateway.request",
                method=request.method,
                path=request.path,
                op=wire_request["op"],
                request_id=request.request_id,
            ):
                await self.dispatcher.dispatch(wire_request, collector)
        finally:
            self.active_requests -= 1
        lines = collector.lines or [
            protocol.encode(
                protocol.error(protocol.ERR_INTERNAL, "op produced no response")
            )
        ]
        # The body is the terminator line, for a fetch with the result
        # lines spliced in as its "results" member — bytes the dispatcher
        # encoded once, none decoded or encoded again.
        terminator = protocol.decode(lines[-1])
        body = lines[-1][:-1]
        extra_headers: dict[str, str] = {}
        if terminator.get("ok"):
            status = 200
            if terminator.get("deadline_exceeded") and len(lines) == 1:
                # Zero progress before the deadline: that is a timeout,
                # not a page.  (With any results at all the partial page
                # goes out as 200 + deadline_exceeded — any-k's
                # bounded time-to-first-answer means losing a computed
                # ranked prefix to a timeout would be strictly worse.)
                status = 504
                body = protocol.encode(
                    protocol.error(
                        protocol.ERR_DEADLINE,
                        "deadline expired before any result was enumerated",
                    )
                )[:-1]
            elif wire_request["op"] == "fetch":
                body = (
                    body[:-1]
                    + b',"results":'
                    + protocol.join_results(lines[:-1])
                    + b"}"
                )
        else:
            status = HTTP_STATUS.get(terminator.get("error"), 400)
            if status in (429, 503):
                retry = terminator.get("retry_after")
                extra_headers["Retry-After"] = str(
                    max(1, round(retry)) if retry else 1
                )
        self._respond_raw(
            writer, status, body, "application/json",
            keep_alive=request.keep_alive, extra_headers=extra_headers,
            request_id=request.request_id,
        )
        return status

    # -- websocket -------------------------------------------------------------

    @staticmethod
    def _is_ws_upgrade(request: _HttpRequest) -> bool:
        return (
            request.path == "/v1/ws"
            and "upgrade" in request.headers.get("connection", "").lower()
            and request.headers.get("upgrade", "").lower() == "websocket"
        )

    async def _serve_websocket(
        self,
        request: _HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        peer: str,
    ) -> None:
        """Upgrade and speak the JSON-lines protocol, one op per frame.

        Auth already happened at the upgrade request; admission control
        is then enforced per message, exactly like the TCP server.
        """
        key = request.headers.get("sec-websocket-key")
        if not key:
            self._respond(
                writer,
                400,
                protocol.error(
                    protocol.ERR_BAD_REQUEST, "missing Sec-WebSocket-Key"
                ),
                keep_alive=False,
            )
            return
        writer.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {ws_accept_key(key)}\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        self.ws_connections += 1
        ws_writer = _WsWriter(writer)
        message = bytearray()
        try:
            while True:
                try:
                    fin, opcode, payload = await ws_read_frame(
                        reader, self.max_frame_bytes
                    )
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                ):
                    break
                except ValueError as exc:
                    ws_writer.write(
                        protocol.encode(
                            protocol.error(protocol.ERR_BAD_REQUEST, str(exc))
                        )
                    )
                    await ws_writer.drain()
                    break
                if opcode == _WS_CLOSE:
                    writer.write(ws_encode_frame(payload[:2], _WS_CLOSE))
                    await writer.drain()
                    break
                if opcode == _WS_PING:
                    writer.write(ws_encode_frame(payload, _WS_PONG))
                    await writer.drain()
                    continue
                if opcode == _WS_PONG:
                    continue
                message += payload
                if not fin:
                    continue
                frame, message = bytes(message), bytearray()
                if len(frame) > self.max_frame_bytes:
                    ws_writer.write(
                        protocol.encode(
                            protocol.error(
                                protocol.ERR_BAD_REQUEST,
                                f"message exceeds {self.max_frame_bytes} bytes",
                            )
                        )
                    )
                    await ws_writer.drain()
                    continue
                self.ws_messages += 1
                try:
                    wire_request = protocol.decode(frame)
                except ValueError as exc:
                    ws_writer.write(
                        protocol.encode(
                            protocol.error(protocol.ERR_BAD_REQUEST, str(exc))
                        )
                    )
                    await ws_writer.drain()
                    continue
                if wire_request.get("op") != "ping" and not self.policy.admit(
                    peer
                ):
                    retry = self.policy.retry_after(peer)
                    ws_writer.write(
                        protocol.encode(
                            protocol.error(
                                protocol.ERR_THROTTLED,
                                f"rate limit exceeded; retry in {retry:.3f}s",
                            )
                        )
                    )
                    await ws_writer.drain()
                    continue
                self.active_requests += 1
                try:
                    with self.tracer.span(
                        "gateway.ws",
                        op=wire_request.get("op"),
                        request_id=(
                            wire_request.get("request_id") or request.request_id
                        ),
                    ):
                        await self.dispatcher.dispatch(wire_request, ws_writer)
                finally:
                    self.active_requests -= 1
                await ws_writer.drain()
        except (BrokenPipeError, asyncio.CancelledError):
            pass

    # -- observability ---------------------------------------------------------

    def metrics(self) -> dict:
        """The ``/metrics`` JSON payload (also what ``repro top`` polls)."""
        manager_stats = self.manager.stats()
        memory = self.engine.memory_stats()
        session_detail = {
            name: {
                "served": entry["served"],
                "cursors": len(entry["cursors"]),
                "memory_bytes": entry["memory_bytes"],
                "idle_seconds": entry["idle_seconds"],
            }
            for name, entry in manager_stats["sessions"].items()
        }
        return {
            "ok": True,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "gateway": {
                "http_requests": int(self.http_requests),
                "ws_connections": int(self.ws_connections),
                "ws_messages": int(self.ws_messages),
                "dispatched": int(self.dispatcher.requests),
                "active_requests": self.active_requests,
            },
            "policy": self.policy.snapshot(),
            "latency": {
                "fetch": self.manager.fetch_latency.snapshot(),
                "fetch_histogram": (
                    self.manager.fetch_latency_histogram.snapshot()
                ),
            },
            "sessions": {
                "session_count": manager_stats["session_count"],
                "evictions": manager_stats["evictions"],
                "expirations": manager_stats["expirations"],
                "detail": session_detail,
            },
            "memory": {
                **memory,
                "session_bytes": sum(
                    entry["memory_bytes"] for entry in session_detail.values()
                ),
                "memory_budget_bytes": manager_stats["memory_budget_bytes"],
            },
            "scheduler": manager_stats["scheduler"],
            "engine": manager_stats["engine"],
            "tracing": self.tracer.stats(),
            "resilience": {
                **RESILIENCE_COUNTERS.snapshot(),
                "shed": int(self.policy.shed),
                "deadline_stops": manager_stats["scheduler"].get(
                    "deadline_stops", 0
                ),
                "faults": faults.counters(),
            },
        }


class GatewayThread(ServerThread):
    """A :class:`GatewayServer` hosted on a daemon-thread event loop.

    Mirrors :class:`~repro.serve.server.ServerThread`::

        with GatewayThread(engine, policy=policy) as (host, port):
            ...
    """

    server_class = GatewayServer
    thread_name = "repro-gateway"
