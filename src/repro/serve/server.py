"""The asyncio streaming query server: listener core, op dispatcher,
and the TCP JSON-lines framing (stdlib only).

:class:`Listener` is everything about a front door that is not its
framing: the session manager, the accept / stop / drain lifecycle, the
connection shell, the auth-then-admit edge check and the tracked
dispatch.  :class:`ServeServer` frames it as JSON lines over TCP (see
:mod:`repro.serve.protocol`); :mod:`repro.serve.gateway` frames it as
HTTP/1.1 and WebSocket on a second port.  Design points that matter for
serving ranked enumeration:

* **Streaming with backpressure, one send per slice** — each answer is
  encoded once, a scheduler slice's lines are joined and handed to the
  transport in one ``write`` (:class:`CoalescingWriter`), and the fetch
  then ``drain()``-s before enumerating further.  So the first answers
  of a long page reach a slow client before the last ones are
  computed, and a client that stops reading suspends its own
  enumeration instead of buffering the server into the ground.  The
  slice that completes the page is not sent on its own: it leaves with
  the terminator, so a page of up to ``slice_size`` answers is exactly
  one send.  A send that fails rewinds the slice it carried.
* **Cooperative fairness** — every fetch runs through the session
  manager's :class:`~repro.serve.session.CooperativeScheduler`, which
  yields to the event loop between bounded slices.  Concurrent
  connections therefore interleave at slice granularity: a worst-case
  cycle query grinding through its output cannot starve a cheap path
  query on another connection.
* **Edge admission** — an optional shared
  :class:`~repro.serve.policy.AccessPolicy` authenticates and
  rate-limits every request *before* it reaches the session manager:
  an unauthorized or over-limit client is refused without consuming a
  scheduler slice.  The check is :meth:`Listener._edge_check`, the one
  place every framing asks.
* **Shared work** — connections are stateless transports; all state
  (sessions, cursors, memoized prefixes) lives behind the engine, so
  two clients paginating the same query share one enumeration.

The protocol op handlers live in :class:`OpDispatcher`, which is
transport-agnostic (it only needs a ``write``/``drain`` writer): every
framing dispatches through it, so validation and semantics — the types
of the request fields included — cannot drift between them.

:class:`ServerThread` hosts a listener's event loop in a daemon thread,
which is how the tests, the load benchmark, and the example embed a
live server without blocking.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from repro.engine.engine import Engine
from repro.obs.metrics import Counter, MetricsRegistry
from repro.ranking.dioid import NAMED_DIOIDS
from repro.serve import protocol
from repro.serve.cursor import CursorBudgetExceeded
from repro.serve.policy import AccessPolicy
from repro.serve.session import (
    ServeError,
    SessionBudgetExceeded,
    SessionManager,
    UnknownCursor,
    UnknownSession,
)
from repro.util import faults
from repro.util.resilience import COUNTERS as RESILIENCE_EVENTS

#: ServeError subclasses → protocol error codes.
_ERROR_CODES = {
    UnknownSession: protocol.ERR_UNKNOWN_SESSION,
    UnknownCursor: protocol.ERR_UNKNOWN_CURSOR,
    SessionBudgetExceeded: protocol.ERR_BUDGET,
}

#: Bytes read from the transport per loop iteration (not a frame cap).
_READ_CHUNK = 1 << 16


class CoalescingWriter:
    """Writer shim: the lines written between drains leave in one send.

    ``write`` only collects; ``drain`` joins what was collected, hands
    it to the transport as one buffer and then waits on the transport's
    own flow control.  It holds at most what its user writes between two
    drains — for a fetch, one scheduler slice of lines.
    """

    def __init__(self, transport_writer: asyncio.StreamWriter):
        self._writer = transport_writer
        #: The lines written since the last drain.
        self.pending: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.pending.append(data)

    async def drain(self) -> None:
        if self.pending:
            self._writer.write(b"".join(self.pending))
            self.pending.clear()
        await self._writer.drain()

    def is_closing(self) -> bool:
        return self._writer.is_closing()


def _is_string(value: Any) -> bool:
    return isinstance(value, str)


def _is_count(value: Any) -> bool:
    return protocol.valid_int(value) and value >= 0


#: What a typed request field must be, whichever op carries it: name →
#: (predicate, description).  Checked before any handler runs, so a
#: mistyped field is the client's ``bad_request`` on every transport and
#: never an exception out of the planner (which would count against the
#: circuit breaker, i.e. let one client shed everybody's requests).
_FIELD_TYPES = {
    **dict.fromkeys(
        ("session", "query", "cursor", "algorithm", "dioid", "projection"),
        (_is_string, "a string"),
    ),
    "budget": (_is_count, "a non-negative int or null"),
    "n": (_is_count, "a non-negative int"),
    "deadline_ms": (protocol.valid_ms, "a positive number or null"),
}

#: Fields whose JSON ``null`` means "not given".
_NULLABLE_FIELDS = ("cursor", "budget", "deadline_ms")


class OpDispatcher:
    """Protocol op handlers over one session manager, transport-agnostic.

    ``dispatch`` takes a decoded request and a stream-writer-like object
    (``write(bytes)``, ``async drain()``, ``is_closing()``); every
    transport — the TCP server, the gateway's WebSocket endpoint, and
    the gateway's buffered HTTP endpoints — routes through one instance,
    so a validation rule fixed here is fixed everywhere at once.

    Every ``write`` is one complete protocol line, the terminator last;
    how lines are batched into sends is the writer's business.
    """

    def __init__(
        self,
        manager: SessionManager,
        policy: AccessPolicy | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.manager = manager
        #: Shared edge policy; when set, its overload gate (circuit
        #: breaker + in-flight cap) sheds prepare/fetch requests here —
        #: after auth/throttle but before any engine work — and its
        #: breaker is fed from dispatch outcomes.
        self.policy = policy
        #: The numbers of the ``stats`` op's document (its listener's
        #: registry; a private one for a bare dispatcher).
        self.registry = MetricsRegistry() if registry is None else registry
        #: Requests dispatched (all transports sharing this dispatcher).
        self.requests = Counter(
            "repro_dispatched_requests_total",
            "Requests dispatched across all transports.",
        )
        #: Result lines sent, by whether the slice had to encode them or
        #: the stream's memo already held their bytes (bumped per slice).
        self.lines_encoded = Counter(
            "repro_wire_lines_encoded_total",
            "Result lines encoded for their first trip over the wire.",
        )
        self.lines_replayed = Counter(
            "repro_wire_lines_replayed_total",
            "Result lines sent again from the bytes the stream holds.",
        )
        for counter in (
            self.requests, self.lines_encoded, self.lines_replayed
        ):
            self.registry.attach(counter)

    def _record(self, succeeded: bool) -> None:
        if self.policy is not None:
            self.policy.record_result(succeeded)

    async def dispatch(self, request: dict, writer: Any) -> None:
        self.requests += 1
        op = request.get("op")
        handler = getattr(self, f"op_{op}", None) if op in protocol.OPS else None
        if handler is None:
            writer.write(
                protocol.error_line(protocol.ERR_UNKNOWN_OP, f"unknown op {op!r}")
            )
            return
        acquired = False
        if self.policy is not None:
            admitted, retry = self.policy.overload_acquire(op)
            if not admitted:
                writer.write(
                    protocol.error_line(
                        protocol.ERR_OVERLOADED,
                        f"server overloaded; retry in {retry:.3f}s",
                        retry_after=round(retry, 3),
                    )
                )
                return
            acquired = True
        # Every way out of the handler but a server-side failure feeds
        # the breaker a success: it spent a half-open probe on this
        # request, and a probe that ends unrecorded leaves it half-open
        # with none left, shedding everything.  "Your fault" is an
        # answer — the engine is up.
        engine_failed = False
        try:
            self._check_fields(request)
            await handler(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            # Transport-level failures end the connection (handled by
            # the caller); writing an error line would be pointless.
            # The only sends inside a handler are a fetch's slices, so
            # the engine had produced what the dead socket lost: that
            # counts for the breaker like a delivered page.
            raise
        except ServeError as exc:
            writer.write(
                protocol.error_line(
                    _ERROR_CODES.get(type(exc), protocol.ERR_BAD_REQUEST),
                    str(exc),
                )
            )
        except CursorBudgetExceeded as exc:
            writer.write(protocol.error_line(protocol.ERR_BUDGET, str(exc)))
        except (ValueError, KeyError, TypeError) as exc:
            # Planner/parser rejections (bad query text, unknown
            # relation, unsupported algorithm) — the client's fault.
            writer.write(protocol.error_line(protocol.ERR_QUERY, str(exc)))
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            # Server-side failure: this is what the circuit breaker
            # counts — enough of these in a row and the edge starts
            # shedding instead of queueing doomed work.
            engine_failed = True
            writer.write(protocol.error_line(protocol.ERR_INTERNAL, repr(exc)))
        finally:
            self._record(not engine_failed)
            if acquired:
                self.policy.overload_release(op)

    # -- ops -------------------------------------------------------------------

    @staticmethod
    def _check_fields(request: dict) -> None:
        for name, value in request.items():
            rule = _FIELD_TYPES.get(name)
            if rule is None or (value is None and name in _NULLABLE_FIELDS):
                continue
            accepts, expected = rule
            if not accepts(value):
                raise ServeError(f"{name} must be {expected}, got {value!r}")

    @staticmethod
    def _require(request: dict, *fields: str) -> list[Any]:
        values = []
        for name in fields:
            if name not in request:
                raise ServeError(f"missing field {name!r}")
            values.append(request[name])
        return values

    async def op_prepare(self, request: dict, writer: Any) -> None:
        session_name, query = self._require(request, "session", "query")
        dioid_name = request.get("dioid", "tropical")
        if dioid_name not in NAMED_DIOIDS:
            raise ServeError(
                f"unknown dioid {dioid_name!r} "
                f"(expected one of {sorted(NAMED_DIOIDS)})"
            )
        session, cursor_id = self.manager.open_cursor(
            session_name,
            query,
            algorithm=request.get("algorithm", "take2"),
            dioid=NAMED_DIOIDS[dioid_name],
            projection=request.get("projection", "all_weight"),
            budget=request.get("budget"),
            deadline_ms=request.get("deadline_ms"),
        )
        cursor = session.cursor(cursor_id)
        writer.write(
            protocol.encode(
                protocol.ok(
                    "prepare",
                    session=session.name,
                    cursor=cursor_id,
                    strategy=cursor.prepared.logical.strategy,
                    algorithm=cursor.prepared.logical.algorithm,
                )
            )
        )

    async def op_fetch(self, request: dict, writer: Any) -> None:
        session_name, cursor_id = self._require(request, "session", "cursor")
        n = request.get("n", 10)

        # Stream slice by slice: the sink runs after every scheduler
        # slice, so results go out (and drain() applies transport
        # backpressure) while the enumeration is still advancing.
        # Budget clamping/reservation all happens inside fetch_async —
        # one slice loop for the sync, async, and wire paths.
        unsent = n
        held: tuple[int, int] | None = None

        async def sink(start_rank: int, page) -> None:
            nonlocal unsent, held
            if writer.is_closing():
                # Client went away mid-stream: abort the fetch now (the
                # scheduler rewinds the undelivered slice) instead of
                # enumerating and writing the rest into a dead socket.
                raise ConnectionResetError("client disconnected mid-fetch")
            lines, encoded = protocol.result_lines(start_rank, page)
            for line in lines:
                writer.write(line)
            self.lines_encoded += encoded
            self.lines_replayed += len(lines) - encoded
            unsent -= len(page)
            if unsent:
                await writer.drain()
            else:
                # The page is complete: this slice leaves with the
                # terminator, in the drain below.
                held = (start_rank, len(page))

        outcome = await self.manager.fetch_async(
            session_name,
            cursor_id,
            n,
            sink=sink,
            deadline_ms=request.get("deadline_ms"),
        )
        terminator = protocol.ok(
            "fetch",
            served=len(outcome.results),
            position=outcome.position,
            exhausted=outcome.exhausted,
        )
        if outcome.deadline_exceeded:
            # Only present on early stops: the partial page already
            # streamed is valid, the flag tells the client not to treat
            # short-of-n as exhaustion.
            terminator["deadline_exceeded"] = True
        writer.write(protocol.encode(terminator))
        try:
            await writer.drain()
        except BaseException:
            if held is not None:
                # Same promise as for a slice lost mid-stream: what never
                # reached the client is taken back, not charged.
                self.manager.undeliver(session_name, cursor_id, *held)
            raise

    async def op_explain(self, request: dict, writer: Any) -> None:
        session_name, cursor_id = self._require(request, "session", "cursor")
        plan = self.manager.explain(session_name, cursor_id)
        writer.write(protocol.encode(protocol.ok("explain", plan=plan)))

    async def op_close(self, request: dict, writer: Any) -> None:
        (session_name,) = self._require(request, "session")
        cursor_id = request.get("cursor")
        if cursor_id is None:
            self.manager.close_session(session_name)
        else:
            self.manager.close_cursor(session_name, cursor_id)
        writer.write(protocol.encode(protocol.ok("close")))

    def document(self) -> dict:
        """The stats document: the ``stats`` op's answer, and the JSON
        ``GET /metrics``, ``/debug`` and ``repro top`` read.

        ``metrics`` is :meth:`MetricsRegistry.as_dict` — every number,
        under its exported name; ``sessions`` is the per-session state
        that is no instrument (:meth:`SessionManager.session_detail`).
        """
        return {
            "metrics": self.registry.as_dict(),
            "sessions": self.manager.session_detail(),
        }

    async def op_stats(self, request: dict, writer: Any) -> None:
        stats = protocol.ok("stats", stats=self.document())
        writer.write(protocol.encode(stats))

    async def op_ping(self, request: dict, writer: Any) -> None:
        writer.write(protocol.encode(protocol.ok("ping")))


class Listener:
    """One asyncio listener over one session manager: everything about a
    front door that is not its framing.

    It owns, once for every transport: the session manager and its
    argument checks, the metrics registry (its own counters, the
    dispatcher's, and those of the policy, sessions, engine and
    recovery paths it serves), ``start`` / ``serve_forever`` / ``stop``
    with the drain wait, the per-connection shell (peer, quiet
    disconnects, the close), the auth-then-admit edge check and the
    tracked dispatch of an admitted request.  A framing —
    :class:`ServeServer`'s JSON lines, the gateway's HTTP/1.1 and
    WebSocket — subclasses it and supplies
    :meth:`_serve`: read requests off one connection, pass each through
    :meth:`_edge_check`, hand the admitted ones to :meth:`_dispatch`.
    """

    #: (name, help) of this framing's connection and request counters.
    connections_metric: tuple[str, str]
    requests_metric: tuple[str, str]

    def __init__(
        self,
        engine: Engine | None,
        host: str,
        port: int,
        manager: SessionManager | None,
        policy: AccessPolicy | None,
        max_frame_bytes: int,
        drain_s: float,
        **manager_options: Any,
    ):
        if max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be positive, got {max_frame_bytes}"
            )
        if drain_s < 0:
            raise ValueError(f"drain_s must be non-negative, got {drain_s}")
        if manager is None:
            if engine is None:
                raise ValueError(
                    f"{type(self).__name__} needs an engine or a manager"
                )
            manager = SessionManager(engine, **manager_options)
        self.manager = manager
        self.engine = manager.engine
        self.host = host
        self.port = port
        #: Shared edge policy (None = open deployment, no checks).
        self.policy = policy
        #: This front door's metrics: its own counters plus everything
        #: it serves (dispatcher, policy, sessions, engine, recovery).
        self.registry = MetricsRegistry()
        self.dispatcher = OpDispatcher(manager, policy, self.registry)
        #: Largest accepted request frame (a JSON line, an HTTP header
        #: section or body, a WebSocket message); a longer one is
        #: answered with ``ERR_BAD_REQUEST``.
        self.max_frame_bytes = max_frame_bytes
        #: Default grace period for :meth:`stop`: how long to let
        #: in-flight requests finish before sessions are dropped.
        self.drain_s = drain_s
        self._server: asyncio.AbstractServer | None = None
        self.connections = Counter(*self.connections_metric)
        self.requests = Counter(*self.requests_metric)
        #: Requests currently inside dispatch (drain watches this).
        #: A plain int, not an instrument: it goes down as well as up.
        self.active_requests = 0
        self.started_at = time.time()
        self._register_metrics()

    def _register_metrics(self) -> None:
        registry = self.registry
        registry.attach(self.connections)
        registry.attach(self.requests)
        registry.attach(RESILIENCE_EVENTS)
        for field in ("hits", "fired"):
            registry.callback(
                f"repro_faults_{field}_total", faults.counters, kind="counter",
                help=f"Injected-fault sites: {field} under the active plan.",
                labelnames=("site",), field=field,
            )
        if self.policy is not None:
            self.policy.register_metrics(registry)
        self.manager.register_metrics(registry)
        self.engine.register_metrics(registry)
        registry.gauge(
            "repro_uptime_seconds",
            "Seconds since the listener started.",
            fn=lambda: round(time.time() - self.started_at, 3),
        )
        registry.gauge(
            "repro_active_requests",
            "Requests currently inside dispatch.",
            fn=lambda: self.active_requests,
        )

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns (host, port)."""
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
        """Stop accepting, optionally drain in-flight work, drop sessions.

        ``drain_s`` (defaulting to the constructor's value) bounds a
        grace period in which requests already inside dispatch — e.g. a
        fetch mid-stream — run to completion before their sessions are
        closed under them.  New connections are refused immediately.
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
            # Drop every session and its cursors so engine streams are
            # not pinned by a dead server across restarts (the engine's
            # own memo cache stays warm — that is its job, not ours).
            self.manager.close()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, stream: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        peername = stream.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else str(peername)
        try:
            await self._serve(reader, stream, peer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown: finish quietly so the drained task does
            # not surface a cancellation to the streams machinery.
            pass
        finally:
            stream.close()
            try:
                await stream.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _serve(
        self, reader: asyncio.StreamReader, stream: asyncio.StreamWriter, peer: str
    ) -> None:
        """Speak this framing on one connection until it ends."""
        raise NotImplementedError

    def _edge_check(self, probe: bool, token: Any, peer: Any) -> dict | None:
        """Run the shared policy; an error message means "reject now".

        Runs before dispatch, so a rejected request never reaches the
        session manager or consumes a cooperative-scheduler slice.
        Liveness probes (``ping``, ``/healthz``) stay open.
        """
        if self.policy is None or probe:
            return None
        if not self.policy.authorize(token):
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

    async def _handle_message(
        self,
        span: str,
        frame: bytes,
        writer: Any,
        peer: Any,
        token: Any = None,
        request_id: Any = None,
    ) -> None:
        """One JSON-lines request, whatever framed it (a TCP line, a
        WebSocket message): decode, edge check, dispatch.

        ``token`` and ``request_id`` are what the connection established
        (a WebSocket's upgrade request); the message's own fields win.
        """
        try:
            request = protocol.decode(frame)
        except ValueError as exc:
            rejection = protocol.error(protocol.ERR_BAD_REQUEST, str(exc))
        else:
            rejection = self._edge_check(
                request.get("op") == "ping", request.get("token", token), peer
            )
        if rejection is not None:
            writer.write(protocol.encode(rejection))
            await writer.drain()
            return
        await self._dispatch(
            span, request, writer, request.get("request_id") or request_id
        )

    async def _dispatch(
        self, span: str, request: dict, writer: Any, request_id: Any, **attrs: Any
    ) -> None:
        """Run one admitted request: counted for the drain wait, under
        its request span, and flushed when the handler is done.

        The span carries the request id (a client's opaque
        ``request_id`` field or ``X-Request-Id`` header) and roots the
        trace: dispatch runs in this task, so the session and engine
        spans it causes nest under it.
        """
        self.active_requests += 1
        try:
            with self.engine.tracer.span(
                span, **attrs, op=request.get("op"), request_id=request_id
            ):
                await self.dispatcher.dispatch(request, writer)
        finally:
            self.active_requests -= 1
        await writer.drain()


class ServeServer(Listener):
    """A TCP JSON-lines front end over one engine's prepared queries."""

    connections_metric = (
        "repro_server_connections_total", "TCP connections accepted."
    )
    requests_metric = ("repro_server_requests_total", "Request lines received.")

    def __init__(
        self,
        engine: Engine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        result_budget: int | None = None,
        slice_size: int = 64,
        policy: AccessPolicy | None = None,
        max_frame_bytes: int = 1 << 20,
        drain_s: float = 0.0,
    ):
        super().__init__(
            engine, host, port, None, policy, max_frame_bytes, drain_s,
            max_sessions=max_sessions,
            ttl_seconds=ttl_seconds,
            result_budget=result_budget,
            slice_size=slice_size,
        )
        self.oversized_frames = self.registry.attach(
            Counter(
                "repro_server_oversized_frames_total",
                "Request frames rejected for exceeding the frame cap.",
            )
        )

    async def _serve(
        self, reader: asyncio.StreamReader, stream: asyncio.StreamWriter, peer: str
    ) -> None:
        # Responses go through the shim: whatever a request writes before
        # it drains — a slice of results, then the terminator — is one
        # send on the socket.
        writer = CoalescingWriter(stream)
        # Framing is done here with an explicit buffer instead of
        # ``reader.readline()``: readline raises an uncatchable-in-place
        # ValueError once a line outgrows the stream limit (64 KiB by
        # default), which used to kill the handler task silently.  The
        # explicit buffer makes the frame cap a first-class, configurable
        # protocol error: the client gets ERR_BAD_REQUEST, the rest of
        # the oversized line is discarded, and the connection survives.
        buffer = bytearray()
        discarding = False
        while True:
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                break
            buffer += chunk
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    break
                line = bytes(buffer[:newline])
                del buffer[: newline + 1]
                if discarding:
                    # Tail of a frame already reported oversized.
                    discarding = False
                    continue
                if len(line) > self.max_frame_bytes:
                    await self._reject_oversized(writer)
                    continue
                if line.strip():
                    self.requests += 1
                    await self._handle_message(
                        "server.request", line, writer, peer
                    )
            if not discarding and len(buffer) > self.max_frame_bytes:
                await self._reject_oversized(writer)
                discarding = True
            if discarding:
                buffer.clear()

    async def _reject_oversized(self, writer: CoalescingWriter) -> None:
        self.requests += 1
        self.oversized_frames += 1
        writer.write(
            protocol.error_line(
                protocol.ERR_BAD_REQUEST,
                f"request frame exceeds {self.max_frame_bytes} bytes",
            )
        )
        await writer.drain()


class ServerThread:
    """A :class:`ServeServer` hosted on a daemon-thread event loop.

    Lets synchronous code (tests, benchmarks, the example script) run a
    live server in-process::

        with ServerThread(engine) as address:
            client = ServeClient(*address)
            ...

    Subclasses swap :attr:`server_class` to host a different asyncio
    server with the same lifecycle (see
    :class:`~repro.serve.gateway.GatewayThread`).
    """

    server_class = ServeServer
    thread_name = "repro-serve"

    def __init__(self, engine: Engine, **server_options: Any):
        self.server = self.server_class(engine, **server_options)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop_requested: asyncio.Event | None = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        """Start the loop thread; blocks until the socket is bound."""
        self._thread = threading.Thread(
            target=self._run, name=self.thread_name, daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server failed to start in time")
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        self._stop_requested = asyncio.Event()

        async def main() -> None:
            await self.server.start()
            self._started.set()
            try:
                await self._stop_requested.wait()
            finally:
                await self.server.stop()

        try:
            loop.run_until_complete(main())
            # Drain connection handlers before closing the loop so open
            # sockets shut down cleanly instead of being destroyed.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the loop thread; a no-op if the server never started.

        Safe to call when :meth:`start` was never invoked or timed out
        (``_stop_requested`` may then still be ``None``), and when the
        loop already finished on its own.
        """
        loop, self._loop = self._loop, None
        stop_requested = self._stop_requested
        if loop is not None and stop_requested is not None:
            try:
                loop.call_soon_threadsafe(stop_requested.set)
            except RuntimeError:
                pass  # loop already closed: nothing left to signal
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
