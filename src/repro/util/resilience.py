"""Resilience primitives: retry/backoff, circuit breaking, deadlines.

Small, dependency-free building blocks threaded through the stack by
PR 9 — all of them with injectable clocks and sleeps so chaos tests
drive every state transition deterministically:

* :class:`Retrier` — bounded retry with exponential backoff and
  deterministic-seeded jitter; used around transient SQLite errors
  (``database is locked`` / ``busy``), ``.core`` mmap reads, and
  process-pool builds.  Retries preserve bit-identical output because
  they only re-run *idempotent* reads/builds — never a partial write.
* :class:`CircuitBreaker` — classic closed → open → half-open cycle
  over a failure counter, consulted at the serving edge so a persistent
  engine failure sheds load fast (503 + ``Retry-After``) instead of
  queueing doomed work.
* :class:`Deadline` — a monotonic-clock deadline carried from the wire
  (``deadline_ms``) into the cooperative scheduler, which stops at a
  slice boundary and returns a partial page instead of hanging.

Cross-cutting counters land in the module-level :data:`COUNTERS`
registry, which the gateway's ``/metrics`` and the engine's stats
mirror — the acceptance signal that recovery paths actually ran
(fault injection off ⇒ every counter stays zero).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable

from repro.obs.metrics import Counter, Family


class _Counters:
    """A thread-safe named-counter registry backed by a labeled family.

    The legacy ``bump``/``get``/``snapshot``/``reset`` API is unchanged;
    underneath, each name is a child of the
    ``repro_resilience_events_total{event=...}`` counter family, so the
    gateway registry renders recovery events as typed counters.
    """

    def __init__(self):
        self.family = Family(
            Counter,
            "repro_resilience_events_total",
            "Recovery events (retries, respawns, downgrades) by name.",
            labelnames=("event",),
        )

    def bump(self, name: str, by: int = 1) -> None:
        self.family.labels(name).inc(by)

    def get(self, name: str) -> int:
        child = self.family.get(name)
        return int(child) if child is not None else 0

    def snapshot(self) -> dict[str, int]:
        return {
            key[0]: int(child)
            for key, child in self.family.children().items()
        }

    def reset(self) -> None:
        """Test hook: zero every counter."""
        self.family.clear()


#: Process-wide recovery counters (``retries_*``, ``worker_respawns``,
#: ``pool_downgrades``, ...).  Exported on ``/metrics`` under
#: ``resilience`` and mirrored into ``EngineStats``.
COUNTERS = _Counters()


def transient_sqlite(exc: BaseException) -> bool:
    """Whether ``exc`` is a retryable transient SQLite error."""
    import sqlite3

    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return "locked" in text or "busy" in text


class Retrier:
    """Bounded retry with exponential backoff plus seeded jitter.

    ``attempts`` counts *total* tries (1 = no retry).  ``retryable``
    filters which exceptions earn another try; anything else — and the
    final failure — propagates unchanged, so callers never see a new
    exception type.  ``sleep``/``rng`` are injectable: tests freeze them
    and assert the exact backoff schedule.
    """

    def __init__(
        self,
        attempts: int = 3,
        base_delay: float = 0.01,
        max_delay: float = 0.25,
        jitter: float = 0.5,
        retryable: Callable[[BaseException], bool] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        seed: int = 0,
        label: str | None = None,
    ):
        if attempts < 1:
            raise ValueError(f"attempts must be at least 1, got {attempts}")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.retryable = retryable or (lambda _exc: True)
        self._sleep = sleep
        self._rng = random.Random(seed)
        self.label = label
        #: Retries performed by this instance (total over all calls).
        self.retries = 0

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based), with jitter."""
        delay = min(self.max_delay, self.base_delay * (2 ** attempt))
        if self.jitter:
            delay *= 1.0 + self.jitter * self._rng.random()
        return delay

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` with retries; re-raises its last exception."""
        for attempt in range(self.attempts):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if attempt == self.attempts - 1 or not self.retryable(exc):
                    raise
                self.retries += 1
                if self.label:
                    COUNTERS.bump(f"retries_{self.label}")
                self._sleep(self.backoff(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def __repr__(self) -> str:
        return (
            f"Retrier(attempts={self.attempts}, base={self.base_delay}, "
            f"label={self.label!r})"
        )


class CircuitBreaker:
    """Closed → open → half-open breaker over consecutive failures.

    ``record_failure`` trips the breaker open after
    ``failure_threshold`` consecutive failures; while open, ``allow``
    refuses everything until ``reset_timeout`` seconds pass, then lets
    ``half_open_max`` probe requests through.  A probe success closes
    the breaker, a probe failure re-opens it (and restarts the timer).
    All transitions run on the injectable ``clock`` — the chaos suite
    walks the full cycle with a frozen clock.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        half_open_max: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_max = half_open_max
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes = 0
        #: Requests refused while open (load shed by the breaker).
        self.rejected = Counter(
            "repro_breaker_rejected_total",
            "Requests refused while the breaker was open.",
        )
        #: Times the breaker tripped open (incl. re-opens from half-open).
        self.opened = Counter(
            "repro_breaker_opened_total",
            "Times the breaker tripped open.",
        )

    # -- state machine ---------------------------------------------------------

    def _transition_locked(self, now: float) -> None:
        if (
            self._state == self.OPEN
            and now - self._opened_at >= self.reset_timeout
        ):
            self._state = self.HALF_OPEN
            self._probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._transition_locked(self._clock())
            return self._state

    def allow(self) -> bool:
        """Whether a request may proceed right now (False = shed it)."""
        with self._lock:
            now = self._clock()
            self._transition_locked(now)
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and self._probes < self.half_open_max:
                self._probes += 1
                return True
            self.rejected += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED

    def record_failure(self) -> None:
        with self._lock:
            now = self._clock()
            self._transition_locked(now)
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = now
                self.opened += 1
                return
            self._failures += 1
            if self._state == self.CLOSED and self._failures >= self.failure_threshold:
                self._state = self.OPEN
                self._opened_at = now
                self.opened += 1

    def retry_after(self) -> float:
        """Seconds until the breaker next admits a probe (0 if it would now)."""
        with self._lock:
            now = self._clock()
            self._transition_locked(now)
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.reset_timeout - (now - self._opened_at))

    def snapshot(self) -> dict:
        with self._lock:
            self._transition_locked(self._clock())
            return {
                "state": self._state,
                "open": self._state != self.CLOSED,
                "failures": self._failures,
                "opened": int(self.opened),
                "rejected": int(self.rejected),
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
            }

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state}, failures={self._failures})"


class Deadline:
    """A monotonic-clock deadline carried through a fetch.

    Built from the wire-level ``deadline_ms`` at the edge; the
    cooperative scheduler consults :meth:`expired` at every slice
    boundary, so an expired deadline costs at most one more slice —
    the partial page already enumerated is returned, never discarded.
    """

    __slots__ = ("at", "_clock")

    def __init__(self, at: float, clock: Callable[[], float] = time.monotonic):
        self.at = at
        self._clock = clock

    @classmethod
    def after_ms(
        cls, ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(clock() + ms / 1000.0, clock)

    def expired(self) -> bool:
        return self._clock() >= self.at

    def remaining(self) -> float:
        return max(0.0, self.at - self._clock())

    def __repr__(self) -> str:
        return f"Deadline(in {self.remaining() * 1e3:.1f} ms)"
