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
  :class:`~repro.obs.latency.LatencyStats` machinery) — as JSON, or,
  via content negotiation (``Accept: text/plain`` or
  ``?format=prometheus``), as the Prometheus exposition of the
  deployment's typed :class:`~repro.obs.metrics.MetricsRegistry`.
  Structured JSON request logging on ``repro.serve.gateway`` carries a
  per-request ``request_id`` (honouring a client's ``X-Request-Id``,
  echoed back in the response header) and the request's wall-clock
  ``ms``.
* **Two client shapes over one semantics**: request/response JSON
  endpoints (``POST /v1/prepare`` …) for stateless HTTP clients, and a
  WebSocket upgrade (``GET /v1/ws``) that speaks the *exact* JSON-lines
  protocol of :mod:`repro.serve.protocol`, one message per text frame.
  Both paths dispatch through the same
  :class:`~repro.serve.server.OpDispatcher` as the TCP server, so
  validation, error codes, and result framing are bit-identical across
  transports.

The gateway is a *framing*: listener lifecycle, drain, the connection
shell, the edge check and the tracked dispatch are
:class:`~repro.serve.server.Listener`'s, shared with the TCP server;
this module adds HTTP parsing and routing, the response writer, and the
WebSocket frames.  An HTTP page is buffered (the status line must come
first) and leaves in one write; if that write fails the page is taken
back — cursor rewound, budget refunded — exactly as the TCP path takes
back a slice whose send failed.

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
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

from repro.engine.engine import Engine
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.top import debug_html
from repro.obs.trace import new_request_id
from repro.serve import protocol
from repro.serve.policy import AccessPolicy
from repro.util.resilience import COUNTERS as RESILIENCE_COUNTERS
from repro.serve.server import CoalescingWriter, Listener, ServerThread
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

#: RFC 6455 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_WS_TEXT, _WS_CLOSE, _WS_PING, _WS_PONG = 0x1, 0x8, 0x9, 0xA


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


class _CollectWriter(CoalescingWriter):
    """Writer shim that keeps a response's protocol lines, encoded.

    An HTTP response needs its status line first, so nothing is sent
    while the op runs: the dispatcher's ``protocol.encode`` lines stay
    ``pending`` and :meth:`GatewayServer._run_op` splices them into one
    body when the terminator has arrived — only that one line is ever
    decoded here.  ``is_closing`` still proxies the real transport, so a
    client that disconnects mid-fetch aborts the enumeration (the
    scheduler rewinds the undelivered slice).
    """

    async def drain(self) -> None:
        return None


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
    """One parsed HTTP/1.1 request, and the way to answer it."""

    __slots__ = (
        "writer", "method", "path", "query", "headers", "body", "keep_alive",
        "request_id",
    )

    def __init__(self, writer, method, path, query, headers, body, keep_alive):
        self.writer = writer
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive
        #: The client's ``X-Request-Id`` or a freshly generated id;
        #: echoed on the response and logged.
        self.request_id = headers.get("x-request-id") or new_request_id()

    @property
    def token(self) -> str | None:
        auth = self.headers.get("authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return self.query.get("token")

    async def respond(
        self,
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
    ) -> int:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        return await self.respond_raw(
            status, body, "application/json", extra_headers
        )

    async def respond_raw(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: dict[str, str] | None = None,
    ) -> int:
        """Send the whole response in one write; returns ``status``."""
        headers = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if self.keep_alive else 'close'}",
            f"X-Request-Id: {self.request_id}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        faults.hit("gateway.write")
        self.writer.write(
            "\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body
        )
        await self.writer.drain()
        return status


class GatewayServer(Listener):
    """A stdlib HTTP/1.1 + WebSocket gateway over one session manager.

    Pass ``manager=`` to share sessions (and edge policy) with a
    running :class:`~repro.serve.server.ServeServer`; otherwise a
    private manager is built over ``engine`` with the same knobs the
    TCP server takes.
    """

    connections_metric = (
        "repro_gateway_connections_total", "HTTP connections accepted."
    )
    requests_metric = (
        "repro_gateway_http_requests_total", "HTTP requests received."
    )

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
        super().__init__(
            engine, host, port, manager,
            policy if policy is not None else AccessPolicy(),
            max_frame_bytes, drain_s,
            max_sessions=max_sessions,
            ttl_seconds=ttl_seconds,
            result_budget=result_budget,
            slice_size=slice_size,
        )
        self.log_requests = log_requests
        #: The engine's tracer, whose statistics ``/metrics`` reports.
        self.tracer = self.engine.tracer
        self.started_at = time.time()
        self.ws_connections = Counter(
            "repro_gateway_ws_connections_total", "WebSocket upgrades."
        )
        self.ws_messages = Counter(
            "repro_gateway_ws_messages_total", "WebSocket messages received."
        )
        #: Path → (method, handler) of every endpoint but the upgrade.
        self._routes = {
            "/healthz": ("GET", self._get_healthz),
            "/metrics": ("GET", self._get_metrics),
            "/debug": ("GET", self._get_debug),
            "/v1/stats": ("GET", self._run_op),
            "/v1/prepare": ("POST", self._run_op),
            "/v1/fetch": ("POST", self._run_op),
            "/v1/explain": ("POST", self._run_op),
            "/v1/close": ("POST", self._run_op),
        }
        #: The deployment's typed-instrument registry behind
        #: ``GET /metrics?format=prometheus``.  Per-gateway, never
        #: process-global: two gateways (or two test fixtures) each see
        #: exactly their own deployment's instruments.
        self.registry = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        registry = self.registry
        registry.attach(self.requests)
        registry.attach(self.ws_connections)
        registry.attach(self.ws_messages)
        registry.attach(self.dispatcher.requests)
        registry.attach(self.dispatcher.lines_encoded)
        registry.attach(self.dispatcher.lines_replayed)
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

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- HTTP plumbing ---------------------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
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
        return _HttpRequest(
            writer, method, split.path, query, headers, body, keep_alive
        )

    def _log(
        self, request: _HttpRequest, peer: str, status: int, started: float
    ) -> None:
        if not self.log_requests:
            return
        record = {
            "event": "request",
            "client": peer,
            "method": request.method,
            "path": request.path,
            "status": status,
            "ms": round((time.perf_counter() - started) * 1e3, 3),
            "request_id": request.request_id,
        }
        logger.info(json.dumps(record, separators=(",", ":")))

    # -- connection handling ---------------------------------------------------

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, peer: str
    ) -> None:
        while True:
            started = time.perf_counter()
            try:
                request = await self._read_request(reader, writer)
            except (ValueError, asyncio.IncompleteReadError) as exc:
                # Nothing of the request can be trusted, its framing
                # least of all: answer, log and hang up.
                self.requests += 1
                request = _HttpRequest(writer, "-", "-", {}, {}, b"", False)
                status = await request.respond(
                    400, protocol.error(protocol.ERR_BAD_REQUEST, str(exc))
                )
            else:
                if request is None:
                    break
                self.requests += 1
                rejection = self._edge_check(
                    request.path == "/healthz", request.token, peer
                )
                if rejection is not None:
                    status = HTTP_STATUS[rejection["error"]]
                    extra = {}
                    if status == 429:
                        extra["Retry-After"] = str(
                            max(1, round(self.policy.retry_after(peer)))
                        )
                    await request.respond(status, rejection, extra)
                elif (
                    request.path == "/v1/ws"
                    and "upgrade" in request.headers.get("connection", "").lower()
                    and request.headers.get("upgrade", "").lower() == "websocket"
                ):
                    self._log(request, peer, 101, started)
                    await self._serve_websocket(request, reader, peer)
                    break
                else:
                    status = await self._route(request)
            self._log(request, peer, status, started)
            if not request.keep_alive:
                break

    async def _route(self, request: _HttpRequest) -> int:
        method, handler = self._routes.get(request.path, (None, None))
        if handler is None:
            return await request.respond(
                404,
                protocol.error(
                    protocol.ERR_BAD_REQUEST, f"no route for {request.path!r}"
                ),
            )
        if request.method != method:
            return await request.respond(
                405,
                protocol.error(
                    protocol.ERR_BAD_REQUEST,
                    f"{request.method} not allowed on {request.path}",
                ),
                {"Allow": method},
            )
        return await handler(request)

    # -- routes ----------------------------------------------------------------

    async def _get_healthz(self, request: _HttpRequest) -> int:
        return await request.respond(200, {"ok": True, "status": "serving"})

    async def _get_metrics(self, request: _HttpRequest) -> int:
        # Content negotiation: Prometheus scrapers ask for text/plain
        # (or ?format=prometheus) and get the typed registry exposition;
        # everyone else keeps the JSON document.
        if (
            "text/plain" in request.headers.get("accept", "")
            or request.query.get("format") == "prometheus"
        ):
            return await request.respond_raw(
                200,
                self.registry.render().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        return await request.respond(200, self.metrics())

    async def _get_debug(self, request: _HttpRequest) -> int:
        return await request.respond_raw(
            200,
            debug_html(self.metrics()).encode("utf-8"),
            "text/html; charset=utf-8",
        )

    async def _run_op(self, request: _HttpRequest) -> int:
        """Run the protocol op the path names, folding its line stream
        into one body.

        Results stream through the same scheduler slices (and abort on
        client disconnect) as on the TCP path; they are simply buffered
        into a single JSON response at the end, because an HTTP
        response needs its status line first.
        """
        try:
            fields = (
                json.loads(request.body.decode("utf-8")) if request.body else {}
            )
            if not isinstance(fields, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            return await request.respond(
                400, protocol.error(protocol.ERR_BAD_REQUEST, str(exc))
            )
        fields.pop("token", None)
        op = fields["op"] = request.path.rpartition("/")[2]
        collector = _CollectWriter(request.writer)
        await self._dispatch(
            "gateway.request", fields, collector, request.request_id,
            method=request.method, path=request.path,
        )
        lines = collector.pending or [
            protocol.error_line(protocol.ERR_INTERNAL, "op produced no response")
        ]
        # The body is the terminator line, for a fetch with the result
        # lines spliced in as its "results" member — bytes the dispatcher
        # encoded once, none decoded or encoded again.
        terminator = protocol.decode(lines[-1])
        body = lines[-1][:-1]
        extra_headers: dict[str, str] = {}
        page: tuple[int, int] | None = None
        if terminator.get("ok"):
            status = 200
            if terminator.get("deadline_exceeded") and len(lines) == 1:
                # Zero progress before the deadline: that is a timeout,
                # not a page.  (With any results at all the partial page
                # goes out as 200 + deadline_exceeded — any-k's
                # bounded time-to-first-answer means losing a computed
                # ranked prefix to a timeout would be strictly worse.)
                status = 504
                body = protocol.error_line(
                    protocol.ERR_DEADLINE,
                    "deadline expired before any result was enumerated",
                )[:-1]
            elif op == "fetch":
                body = (
                    body[:-1]
                    + b',"results":'
                    + protocol.join_results(lines[:-1])
                    + b"}"
                )
                served = terminator["served"]
                page = (terminator["position"] - served, served)
        else:
            status = HTTP_STATUS.get(terminator.get("error"), 400)
            if status in (429, 503):
                retry = terminator.get("retry_after")
                extra_headers["Retry-After"] = str(
                    max(1, round(retry)) if retry else 1
                )
        try:
            return await request.respond_raw(
                status, body, "application/json", extra_headers
            )
        except BaseException:
            if page is not None:
                # The page was buffered, so a lost response loses all of
                # it: take it back as the TCP path takes back the slice
                # a failed send carried (not charged, and not rewound
                # past another reader that has moved the cursor on).
                self.manager.undeliver(
                    fields["session"], fields["cursor"], *page
                )
            raise

    # -- websocket -------------------------------------------------------------

    async def _serve_websocket(
        self, request: _HttpRequest, reader: asyncio.StreamReader, peer: str
    ) -> None:
        """Upgrade and speak the JSON-lines protocol, one op per frame.

        The upgrade request passed the edge check; each message then
        passes it again under the upgrade's token, exactly like a line
        on the TCP server.
        """
        writer = request.writer
        key = request.headers.get("sec-websocket-key")
        if not key:
            request.keep_alive = False
            await request.respond(
                400,
                protocol.error(
                    protocol.ERR_BAD_REQUEST, "missing Sec-WebSocket-Key"
                ),
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
        token = request.token

        async def refuse(message: str) -> None:
            ws_writer.write(protocol.error_line(protocol.ERR_BAD_REQUEST, message))
            await ws_writer.drain()

        message = bytearray()
        while True:
            try:
                fin, opcode, payload = await ws_read_frame(
                    reader, self.max_frame_bytes
                )
            except (asyncio.IncompleteReadError, ConnectionResetError):
                break
            except ValueError as exc:
                await refuse(str(exc))
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
                await refuse(f"message exceeds {self.max_frame_bytes} bytes")
                continue
            self.ws_messages += 1
            await self._handle_message(
                "gateway.ws", frame, ws_writer, peer, token, request.request_id
            )

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
                "http_requests": int(self.requests),
                "ws_connections": int(self.ws_connections),
                "ws_messages": int(self.ws_messages),
                "dispatched": int(self.dispatcher.requests),
                "lines_encoded": int(self.dispatcher.lines_encoded),
                "lines_replayed": int(self.dispatcher.lines_replayed),
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
