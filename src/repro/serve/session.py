"""Named serving sessions: cursors, budgets, eviction, fair scheduling.

One :class:`SessionManager` wraps one :class:`~repro.engine.Engine` and
multiplexes it across many clients:

* a :class:`Session` is a named bundle of open cursors with its own
  result budget and last-used stamp; sessions are LRU-ordered and
  evicted past ``max_sessions`` or after ``ttl_seconds`` idle;
* every fetch is routed through a :class:`CooperativeScheduler`, which
  splits it into bounded slices (``slice_size`` results at a time).  In
  the asyncio server each slice is followed by a yield to the event
  loop, so a heavy request — say a cycle query enumerating its
  worst-case output — cannot starve cheap path queries queued behind
  it: they interleave at slice granularity, each paying only its own
  incremental any-k delay;
* budgets are enforced per session across all its cursors, which is the
  backstop that keeps one client from walking a combinatorial output to
  the bottom through the memoizing prefix cache.

The manager is thread-safe (one lock for the session table; streams and
engine caches have their own), so the same object serves an asyncio
event loop, worker threads, or both.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.engine.engine import Engine
from repro.enumeration.result import QueryResult
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    default_buckets,
)
from repro.ranking.dioid import TROPICAL
from repro.serve.cursor import Cursor, CursorBudgetExceeded
from repro.util.resilience import Deadline
from repro.util import faults


class ServeError(Exception):
    """Base class for serving-layer errors (carries a protocol code)."""

    code = "serve_error"


class UnknownSession(ServeError):
    code = "unknown_session"


class UnknownCursor(ServeError):
    code = "unknown_cursor"


class SessionBudgetExceeded(ServeError):
    code = "budget_exceeded"


@dataclass
class FetchOutcome:
    """One fetch's results plus the cursor state the client needs."""

    results: list[QueryResult]
    position: int
    exhausted: bool
    #: Scheduler slices this fetch was split into (observability).
    slices: int = 1
    #: True when the fetch stopped early at its deadline; the results
    #: already enumerated form a valid (partial) ranked prefix.
    deadline_exceeded: bool = False


@dataclass
class _Sliced:
    """What one fetch's slice loop served so far."""

    results: list[QueryResult] = field(default_factory=list)
    slices: int = 0
    expired: bool = False

    def outcome(self) -> tuple[list[QueryResult], int, bool]:
        return self.results, max(1, self.slices), self.expired


class CooperativeScheduler:
    """Time-slices fetches into bounded batches for fair interleaving.

    Both drivers run one slice loop (:meth:`_slicing`), so budget checks
    and accounting are identical on every path; the asynchronous
    :meth:`run_async` additionally yields to the event loop between
    slices — that yield is the entire fairness mechanism, and it works
    precisely because any-k enumeration is incremental: a slice of
    ``slice_size`` results costs only those results' delays, never a
    full re-ranking.
    """

    def __init__(self, slice_size: int = 64):
        if slice_size < 1:
            raise ValueError(f"slice size must be positive, got {slice_size}")
        self.slice_size = slice_size
        #: Total slices executed (over all fetches).
        self.slices = Counter(
            "repro_scheduler_slices_total", "Scheduler slices executed."
        )
        #: Total event-loop yields taken between slices.
        self.yields = Counter(
            "repro_scheduler_yields_total",
            "Event-loop yields taken between slices.",
        )
        #: Fetches that stopped early because their deadline expired.
        self.deadline_stops = Counter(
            "repro_scheduler_deadline_stops_total",
            "Fetches stopped early at their deadline.",
        )

    def _fetch_slice(
        self, cursor: Cursor, size: int
    ) -> list[QueryResult] | None:
        """One budget-tolerant slice; ``None`` means "stop serving now".

        The upfront clamp can be raced by another consumer of the same
        cursor (two connections may share a cursor id), so a budget trip
        *mid-slicing* is treated as end-of-page — the results already
        served stay served — rather than an error that would discard
        them.
        """
        faults.hit("fetch.slice")
        try:
            return cursor.fetch(size)
        except CursorBudgetExceeded:
            remaining = cursor.remaining_budget or 0
            if not remaining:
                return None
            try:
                return cursor.fetch(remaining)
            except CursorBudgetExceeded:
                return None

    def _slicing(
        self,
        cursor: Cursor,
        n: int,
        deadline: Deadline | None,
        fetched: _Sliced,
    ) -> Iterator[tuple[int, list[QueryResult], bool]]:
        """The one slice loop behind :meth:`run` and :meth:`run_async`.

        Yields ``(start, page, more)`` per slice served, ``more`` telling
        whether another slice follows, and tallies the pages into
        ``fetched``.  A ``deadline`` is checked before every slice — an
        expired fetch stops at the slice boundary and the prefix
        enumerated so far stands as a partial page.
        """
        remaining = cursor.clamped(n)
        while remaining:
            if deadline is not None and deadline.expired():
                fetched.expired = True
                self.deadline_stops += 1
                return
            start = cursor.position
            size = min(self.slice_size, remaining)
            page = self._fetch_slice(cursor, size)
            if page is None:
                return
            self.slices += 1
            fetched.slices += 1
            fetched.results.extend(page)
            remaining = remaining - size if len(page) == size else 0
            yield start, page, remaining > 0

    def run(
        self, cursor: Cursor, n: int, deadline: Deadline | None = None
    ) -> tuple[list[QueryResult], int, bool]:
        """Fetch ``n`` results as a sequence of bounded slices.

        Returns ``(results, slices, expired)``: ``expired`` flags a fetch
        its ``deadline`` stopped early (see :meth:`_slicing`).
        """
        fetched = _Sliced()
        for _step in self._slicing(cursor, n, deadline, fetched):
            pass
        return fetched.outcome()

    async def run_async(
        self,
        cursor: Cursor,
        n: int,
        sink: "Callable | None" = None,
        deadline: Deadline | None = None,
    ) -> tuple[list[QueryResult], int, bool]:
        """Like :meth:`run`, yielding to the event loop between slices.

        ``sink`` (``async def sink(start_rank, page)``) is awaited after
        every slice — the server streams each page out (with transport
        backpressure) while the enumeration is still advancing.
        """
        fetched = _Sliced()
        for start, page, more in self._slicing(cursor, n, deadline, fetched):
            if sink is not None:
                try:
                    await sink(start, page)
                except BaseException:
                    # Slice never reached the client (disconnect mid
                    # stream): take it back so the cursor's position
                    # reflects *delivered* results — a reconnecting
                    # client re-fetches this page instead of silently
                    # losing it (the memo makes the replay free).
                    # unfetch is conditional: it never rolls back a
                    # concurrent reader's consumption of this cursor.
                    cursor.unfetch(start, len(page))
                    raise
            if more:
                # Only between slices: a fetch that fits one slice never
                # pays an event-loop turn.
                self.yields += 1
                await asyncio.sleep(0)
        return fetched.outcome()


@dataclass
class Session:
    """One client's named state: open cursors plus a result budget."""

    name: str
    budget: int | None = None
    created: float = 0.0
    last_used: float = 0.0
    served: int = 0
    cursors: dict[str, Cursor] = field(default_factory=dict)
    queries: dict[str, str] = field(default_factory=dict)
    #: Per-cursor default fetch deadline in milliseconds (from
    #: ``prepare``'s ``deadline_ms``); a fetch-level value overrides it.
    deadlines: dict[str, float] = field(default_factory=dict)
    _next_cursor: int = 0

    def check_budget(self, n: int) -> None:
        """Raise if serving ``n`` more results would overrun the budget.

        Checked *before* any enumeration work: an over-budget request
        fails fast instead of advancing the cursor and discarding the
        page.
        """
        if self.budget is not None and self.served + n > self.budget:
            raise SessionBudgetExceeded(
                f"session {self.name!r}: budget of {self.budget} results "
                f"exhausted ({self.served} served, {n} more requested)"
            )

    def new_cursor_id(self) -> str:
        cursor_id = f"c{self._next_cursor}"
        self._next_cursor += 1
        return cursor_id

    def cursor(self, cursor_id: str) -> Cursor:
        try:
            return self.cursors[cursor_id]
        except KeyError:
            raise UnknownCursor(
                f"session {self.name!r} has no cursor {cursor_id!r}"
            ) from None


class _Fetch:
    """One fetch: the one body of :meth:`SessionManager.fetch` and
    :meth:`SessionManager.fetch_async` around their scheduler call.

    Construction resolves the cursor and reserves budget
    (:meth:`SessionManager._fetch_prologue`) and sets the deadline;
    inside ``with``, the driver stores the scheduler's ``(results,
    slices, expired)`` in ``ran``; leaving — failed or not — settles the
    budget, closes the ``session.fetch`` span and observes the latency.
    """

    __slots__ = (
        "manager", "session", "cursor", "n", "deadline", "ran",
        "_begin", "_span", "_started",
    )

    def __init__(
        self,
        manager: SessionManager,
        session_name: str,
        cursor_id: str,
        n: int,
        deadline_ms: float | None,
    ):
        self._started = time.perf_counter()
        self.manager = manager
        self.session, self.cursor, self.n = manager._fetch_prologue(
            session_name, cursor_id, n
        )
        self.deadline = manager._deadline(self.session, cursor_id, deadline_ms)
        self.ran: tuple[list[QueryResult], int, bool] | None = None
        self._begin = self.cursor.position
        self._span = manager.engine.tracer.span(
            "session.fetch", session=session_name, cursor=cursor_id, n=self.n
        )

    def __enter__(self) -> _Fetch:
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        results, _slices, expired = self.ran or ([], 0, False)
        # Exception path: charge whatever the cursor actually consumed,
        # never zero — the async scheduler rewound an undelivered slice,
        # so the position delta is exactly what the client received, and
        # a client that aborts fetches mid-flight must still spend its
        # budget.
        served = len(results) or max(0, self.cursor.position - self._begin)
        self.manager.settle_budget(self.session, self.n, served)
        self._span.set(served=served, deadline_exceeded=expired)
        suppress = self._span.__exit__(*exc)
        self.manager.fetch_latency_histogram.observe(
            time.perf_counter() - self._started
        )
        return suppress

    def outcome(self) -> FetchOutcome:
        results, slices, expired = self.ran
        return FetchOutcome(
            results=results,
            position=self.cursor.position,
            exhausted=self.cursor.exhausted,
            slices=slices,
            deadline_exceeded=expired,
        )


class SessionManager:
    """Named sessions over one engine, with eviction and fair fetches.

    ``result_budget`` is the default per-session cap (None = unlimited);
    ``ttl_seconds`` expires idle sessions lazily (on any access) and via
    :meth:`evict_expired`; ``max_sessions`` LRU-evicts the
    least-recently-used session, closing its cursors.  Evicting a
    session drops its cursors but not the engine's memoized streams —
    a re-opened session over the same query resumes from the shared
    prefix without re-enumerating.
    """

    def __init__(
        self,
        engine: Engine,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        result_budget: int | None = None,
        slice_size: int = 64,
        clock: Callable[[], float] = time.monotonic,
        memory_budget_bytes: int | None = None,
    ):
        if max_sessions < 1:
            raise ValueError("max_sessions must be positive")
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be positive")
        self.engine = engine
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self.result_budget = result_budget
        #: Per-session cap on estimated bytes held by memoized prefixes
        #: (None = unenforced; estimates are still exported as gauges).
        self.memory_budget_bytes = memory_budget_bytes
        self.scheduler = CooperativeScheduler(slice_size)
        self._clock = clock
        self._lock = threading.RLock()
        self._sessions: dict[str, Session] = {}
        self.evictions = Counter(
            "repro_sessions_evicted_total", "Sessions LRU-evicted."
        )
        self.expirations = Counter(
            "repro_sessions_expired_total", "Sessions expired by TTL."
        )
        #: Latency of every fetch, whichever transport or driver asked;
        #: ``/metrics`` and ``repro top`` read their percentiles from
        #: its buckets.  A served page takes well under a millisecond,
        #: so the buckets start at 50 us (up to ~6.6 s).
        self.fetch_latency_histogram = Histogram(
            "repro_fetch_latency_seconds",
            "Latency of fetches in the session manager, all transports.",
            buckets=default_buckets(start=5e-5, count=18),
        )

    # -- session lifecycle -----------------------------------------------------

    def session(self, name: str, create: bool = True) -> Session:
        """Fetch (and LRU-touch) the named session, creating it if asked."""
        with self._lock:
            self._sweep_expired_locked()
            session = self._sessions.get(name)
            if session is None:
                if not create:
                    raise UnknownSession(f"no session named {name!r}")
                now = self._clock()
                session = Session(
                    name,
                    budget=self.result_budget,
                    created=now,
                    last_used=now,
                )
                self._sessions[name] = session
                while len(self._sessions) > self.max_sessions:
                    evicted = min(
                        self._sessions.values(), key=lambda s: s.last_used
                    )
                    self._drop_locked(evicted.name)
                    self.evictions += 1
            else:
                session.last_used = self._clock()
            return session

    def _sweep_expired_locked(self) -> None:
        if self.ttl_seconds is None:
            return
        deadline = self._clock() - self.ttl_seconds
        for name in [
            name
            for name, session in self._sessions.items()
            if session.last_used < deadline
        ]:
            self._drop_locked(name)
            self.expirations += 1

    def evict_expired(self) -> int:
        """Expire idle sessions now; returns how many were dropped."""
        with self._lock:
            before = len(self._sessions)
            self._sweep_expired_locked()
            return before - len(self._sessions)

    def _drop_locked(self, name: str) -> None:
        session = self._sessions.pop(name, None)
        if session is not None:
            session.cursors.clear()

    def close_session(self, name: str) -> None:
        """Drop the named session and all its cursors."""
        with self._lock:
            if name not in self._sessions:
                raise UnknownSession(f"no session named {name!r}")
            self._drop_locked(name)

    def session_names(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def close(self) -> int:
        """Drop every session (and its cursors); returns how many.

        Called by server shutdown so a stopped server does not keep
        engine streams pinned through orphaned cursors.  The engine's
        own memoized prefixes are untouched — a restarted server over
        the same engine still resumes warm.
        """
        with self._lock:
            names = list(self._sessions)
            for name in names:
                self._drop_locked(name)
            return len(names)

    # -- cursors ---------------------------------------------------------------

    def open_cursor(
        self,
        session_name: str,
        query: str,
        algorithm: str = "take2",
        dioid=None,
        projection: str = "all_weight",
        budget: int | None = None,
        deadline_ms: float | None = None,
    ) -> tuple[Session, str]:
        """Prepare ``query`` in the session; returns its new cursor id.

        Preparation goes through the engine's caches, so many sessions
        opening cursors on the same query share one plan, one bound
        T-DP, and one memoized stream.
        """
        # Prepare/bind runs outside the manager lock (it can be the
        # slow part); the session is resolved *atomically with* cursor
        # registration below, so an eviction or TTL expiry racing the
        # prepare can never leave the cursor on an orphaned session.
        prepared = self.engine.prepare(
            query,
            dioid=TROPICAL if dioid is None else dioid,
            algorithm=algorithm,
            projection=projection,
        )
        cursor = prepared.cursor(budget=budget)
        with self._lock:
            session = self.session(session_name)
            cursor_id = session.new_cursor_id()
            session.cursors[cursor_id] = cursor
            session.queries[cursor_id] = (
                query if isinstance(query, str) else repr(query)
            )
            if deadline_ms is not None:
                session.deadlines[cursor_id] = float(deadline_ms)
        return session, cursor_id

    def cursor(self, session_name: str, cursor_id: str) -> Cursor:
        return self.session(session_name, create=False).cursor(cursor_id)

    def close_cursor(self, session_name: str, cursor_id: str) -> None:
        session = self.session(session_name, create=False)
        with self._lock:
            session.cursor(cursor_id)
            del session.cursors[cursor_id]
            session.queries.pop(cursor_id, None)
            session.deadlines.pop(cursor_id, None)

    # -- fetching --------------------------------------------------------------

    def reserve_budget(self, session: Session, n: int) -> None:
        """Atomically check *and reserve* ``n`` results of budget.

        Reservation (instead of check-then-record around the fetch)
        closes the overrun race: two concurrent over-half-budget
        fetches on one session cannot both pass the check, whether they
        interleave across threads or across the event loop's awaits.
        Unused reservation is returned via :meth:`settle_budget`.
        """
        with self._lock:
            session.check_budget(n)
            session.served += n

    def settle_budget(self, session: Session, reserved: int, served: int) -> None:
        """Refund the unused part of a reservation (``served <= reserved``)."""
        with self._lock:
            session.served -= reserved - served

    def _fetch_prologue(
        self, session_name: str, cursor_id: str, n: int
    ) -> tuple[Session, Cursor, int]:
        """Resolve the cursor, clamp ``n`` to its budget, reserve session
        budget for the clamped amount (refunded after the fetch)."""
        if n < 0:
            raise ServeError(f"fetch size must be non-negative, got {n}")
        session = self.session(session_name, create=False)
        cursor = session.cursor(cursor_id)
        n = cursor.clamped(n)
        if self.memory_budget_bytes is not None:
            held = self.session_memory_bytes(session)
            if held > self.memory_budget_bytes:
                raise SessionBudgetExceeded(
                    f"session {session.name!r}: memory budget of "
                    f"{self.memory_budget_bytes} bytes exceeded "
                    f"(~{held} bytes held by memoized prefixes)"
                )
        self.reserve_budget(session, n)
        return session, cursor, n

    def _deadline(
        self, session: Session, cursor_id: str, deadline_ms: float | None
    ) -> Deadline | None:
        """The effective deadline of one fetch, on the manager's clock.

        A per-fetch ``deadline_ms`` wins; otherwise the cursor's default
        from ``prepare`` applies; otherwise there is no deadline.  The
        countdown starts *now* — at fetch start, not cursor open.
        """
        if deadline_ms is None:
            deadline_ms = session.deadlines.get(cursor_id)
        if deadline_ms is None:
            return None
        return Deadline(self._clock() + deadline_ms / 1000.0, self._clock)

    def fetch(
        self,
        session_name: str,
        cursor_id: str,
        n: int,
        deadline_ms: float | None = None,
    ) -> FetchOutcome:
        """Serve the next ``n`` answers of a cursor (synchronous driver)."""
        with _Fetch(self, session_name, cursor_id, n, deadline_ms) as fetch:
            fetch.ran = self.scheduler.run(
                fetch.cursor, fetch.n, deadline=fetch.deadline
            )
        return fetch.outcome()

    async def fetch_async(
        self,
        session_name: str,
        cursor_id: str,
        n: int,
        sink: "Callable | None" = None,
        deadline_ms: float | None = None,
    ) -> FetchOutcome:
        """Serve the next ``n`` answers, time-sliced across the event loop.

        ``sink`` streams each slice as it is enumerated (see
        :meth:`CooperativeScheduler.run_async`) — the server's
        backpressure path.
        """
        with _Fetch(self, session_name, cursor_id, n, deadline_ms) as fetch:
            fetch.ran = await self.scheduler.run_async(
                fetch.cursor, fetch.n, sink=sink, deadline=fetch.deadline
            )
        return fetch.outcome()

    def undeliver(
        self, session_name: str, cursor_id: str, start: int, count: int
    ) -> None:
        """Take back a slice whose send failed after its fetch returned.

        What :meth:`CooperativeScheduler.run_async` does for a slice its
        sink could not deliver, for the one slice a transport sends
        together with the terminator: rewind the cursor (unless another
        reader has moved it on) and refund the session budget.
        """
        session = self.session(session_name, create=False)
        if session.cursor(cursor_id).unfetch(start, count):
            self.settle_budget(session, count, 0)

    # -- observability ---------------------------------------------------------

    def session_memory_bytes(self, session: Session) -> int:
        """Estimated bytes of memoized prefix held by one session.

        Cursors over the same query share one memoized stream, so
        streams are deduplicated by identity — a session with ten
        cursors on one query is charged for one prefix, not ten.
        """
        seen: set[int] = set()
        total = 0
        for cursor in list(session.cursors.values()):
            try:
                stream = cursor.stream
            except Exception:
                continue
            if stream is None or id(stream) in seen:
                continue
            seen.add(id(stream))
            total += stream.memory_bytes()
        return total

    def memory_by_session(self) -> dict[str, int]:
        """``{session name: estimated prefix bytes}`` (scrape-time)."""
        with self._lock:
            return {
                name: self.session_memory_bytes(session)
                for name, session in self._sessions.items()
            }

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Attach session/scheduler instruments to a deployment registry."""
        registry.attach(self.scheduler.slices)
        registry.attach(self.scheduler.yields)
        registry.attach(self.scheduler.deadline_stops)
        registry.attach(self.evictions)
        registry.attach(self.expirations)
        registry.attach(self.fetch_latency_histogram)
        registry.gauge(
            "repro_sessions_open",
            "Sessions currently open.",
            fn=lambda: len(self._sessions),
        )
        registry.gauge(
            "repro_cursors_open",
            "Cursors currently open across all sessions.",
            fn=lambda: sum(
                len(s.cursors) for s in list(self._sessions.values())
            ),
        )
        registry.callback(
            "repro_session_memory_bytes",
            self.memory_by_session,
            kind="gauge",
            help="Estimated memoized-prefix bytes held per session.",
            labelnames=("session",),
        )

    def explain(self, session_name: str, cursor_id: str) -> str:
        """The (bound) plan report of a cursor's prepared query."""
        return self.cursor(session_name, cursor_id).prepared.explain()

    def stats(self) -> dict[str, Any]:
        """Snapshot across sessions, scheduler, and engine caches."""
        with self._lock:
            def cursor_stats(session: Session, cursor_id: str, cursor: Cursor) -> dict:
                return {
                    "query": session.queries.get(cursor_id, ""),
                    "position": cursor.position,
                    "exhausted": cursor.exhausted,
                }

            sessions = {
                name: {
                    "cursors": {
                        cursor_id: cursor_stats(session, cursor_id, cursor)
                        for cursor_id, cursor in session.cursors.items()
                    },
                    "served": session.served,
                    "budget": session.budget,
                    "memory_bytes": self.session_memory_bytes(session),
                    "idle_seconds": round(
                        self._clock() - session.last_used, 3
                    ),
                }
                for name, session in self._sessions.items()
            }
            return {
                "sessions": sessions,
                "session_count": len(sessions),
                "evictions": int(self.evictions),
                "expirations": int(self.expirations),
                "memory_budget_bytes": self.memory_budget_bytes,
                "scheduler": {
                    "slice_size": self.scheduler.slice_size,
                    "slices": int(self.scheduler.slices),
                    "yields": int(self.scheduler.yields),
                    "deadline_stops": int(self.scheduler.deadline_stops),
                },
                "engine": self.engine.stats.as_dict(),
            }

    def __repr__(self) -> str:
        return (
            f"SessionManager({len(self._sessions)} sessions, "
            f"max={self.max_sessions}, ttl={self.ttl_seconds})"
        )
