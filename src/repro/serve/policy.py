"""Edge admission policy: bearer-token auth and per-client rate limits.

One :class:`AccessPolicy` object is shared by every transport of a
deployment — the TCP JSON-lines server and the HTTP/WebSocket gateway
both consult the *same* instance — so a client sees identical
enforcement no matter which front door it knocks on, and a deployment's
auth/limit configuration lives in exactly one place.

Three independent checks, all designed to run *before* any engine or
scheduler work:

* :meth:`AccessPolicy.authorize` — constant-time bearer-token
  comparison (``hmac.compare_digest``).  ``auth_token=None`` means the
  deployment is open (every request authorized).
* :meth:`AccessPolicy.admit` — a per-client token bucket refilled at
  ``rate_limit`` requests/second up to ``burst`` capacity.  A denied
  request is rejected at the edge (HTTP 429 / ``ERR_THROTTLED``)
  without touching the :class:`~repro.serve.session.SessionManager`,
  which is the difference between *containing* a misbehaving client
  (the cooperative scheduler's job) and *refusing* it.
* :meth:`AccessPolicy.overload_acquire` — the load-shed gate: an
  optional :class:`~repro.util.resilience.CircuitBreaker` (fed from
  dispatch outcomes via :meth:`record_result`) plus an optional cap on
  concurrently executing fetches.  A shed request is answered 503 /
  ``ERR_OVERLOADED`` with a ``Retry-After`` hint; unlike throttling,
  this protects against *server-side* distress (persistent engine
  failures, fetch pile-ups), not client misbehavior.

The policy is thread-safe: the TCP server and the gateway may run on
different event loops in different threads over one shared policy.
"""

from __future__ import annotations

import hmac
import threading
import time
from typing import Any, Callable, Hashable

from repro.obs.metrics import Counter, MetricsRegistry
from repro.util.resilience import CircuitBreaker

#: Ops subject to the overload gate (the expensive ones); stats, ping,
#: explain, and close stay open so operators can inspect a shedding
#: server.
_SHEDDABLE_OPS = ("prepare", "fetch")

#: Retry-After hint (seconds) when shedding on the in-flight cap: the
#: backlog turns over at slice granularity, so "soon" is honest.
_IN_FLIGHT_RETRY_S = 0.05


class _Bucket:
    """One client's token-bucket state."""

    __slots__ = ("tokens", "stamp")

    def __init__(self, tokens: float, stamp: float):
        self.tokens = tokens
        self.stamp = stamp


class AccessPolicy:
    """Shared auth + admission-control configuration for the serve layer.

    ``auth_token``
        The bearer token every request must present (``None`` = open).
    ``rate_limit``
        Sustained requests/second allowed per client (``None`` =
        unlimited).  Enforced as a token bucket, so short bursts up to
        ``burst`` requests are absorbed before throttling starts.
    ``burst``
        Bucket capacity; defaults to ``max(1, rate_limit)`` so a
        client may always issue at least one request immediately.
    ``clock``
        Injectable monotonic clock (tests refill buckets manually).
    """

    def __init__(
        self,
        auth_token: str | None = None,
        rate_limit: float | None = None,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        max_clients: int = 4096,
        breaker: CircuitBreaker | None = None,
        max_in_flight: int | None = None,
    ):
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be positive, got {rate_limit}")
        if burst is not None and burst < 1:
            raise ValueError(f"burst must be at least 1, got {burst}")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be positive, got {max_in_flight}"
            )
        self.auth_token = auth_token
        self.rate_limit = None if rate_limit is None else float(rate_limit)
        if burst is not None:
            self.burst = float(burst)
        else:
            self.burst = (
                None if self.rate_limit is None else max(1.0, self.rate_limit)
            )
        self._clock = clock
        self._max_clients = max_clients
        self._lock = threading.Lock()
        self._buckets: dict[Hashable, _Bucket] = {}
        #: Optional circuit breaker over dispatch outcomes (None = no
        #: breaker; :meth:`overload_acquire` then only enforces the
        #: in-flight cap).
        self.breaker = breaker
        #: Cap on concurrently executing fetches (None = unlimited).
        self.max_in_flight = max_in_flight
        self._in_flight = 0
        #: Requests that failed the bearer-token check.
        self.denied_auth = Counter(
            "repro_policy_denied_auth_total",
            "Requests that failed the bearer-token check.",
        )
        #: Requests rejected by the rate limiter.
        self.throttled = Counter(
            "repro_policy_throttled_total",
            "Requests rejected by the rate limiter.",
        )
        #: Requests that passed both checks.
        self.admitted = Counter(
            "repro_policy_admitted_total",
            "Requests that passed auth and rate limiting.",
        )
        #: Requests shed by the overload gate (breaker or in-flight cap).
        self.shed = Counter(
            "repro_policy_shed_total",
            "Requests shed by the overload gate.",
        )

    # -- auth ------------------------------------------------------------------

    def authorize(self, token: Any) -> bool:
        """Whether ``token`` grants access (constant-time comparison)."""
        if self.auth_token is None:
            return True
        ok = isinstance(token, str) and hmac.compare_digest(
            token, self.auth_token
        )
        if not ok:
            with self._lock:
                self.denied_auth += 1
        return ok

    # -- admission control -----------------------------------------------------

    def _bucket_locked(self, client: Hashable, now: float) -> _Bucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= self._max_clients:
                # Drop the longest-idle bucket: a returning client then
                # starts from a full bucket, which only errs permissive.
                oldest = min(self._buckets, key=lambda c: self._buckets[c].stamp)
                del self._buckets[oldest]
            bucket = self._buckets[client] = _Bucket(self.burst, now)
        return bucket

    def admit(self, client: Hashable) -> bool:
        """Take one token from ``client``'s bucket; False = throttle now."""
        if self.rate_limit is None:
            with self._lock:
                self.admitted += 1
            return True
        with self._lock:
            now = self._clock()
            bucket = self._bucket_locked(client, now)
            bucket.tokens = min(
                self.burst,
                bucket.tokens + (now - bucket.stamp) * self.rate_limit,
            )
            bucket.stamp = now
            if bucket.tokens >= 1.0:
                bucket.tokens -= 1.0
                self.admitted += 1
                return True
            self.throttled += 1
            return False

    def retry_after(self, client: Hashable) -> float:
        """Seconds until ``client``'s bucket next holds a full token."""
        if self.rate_limit is None:
            return 0.0
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                return 0.0
            missing = max(0.0, 1.0 - bucket.tokens)
            return missing / self.rate_limit

    # -- overload gate ---------------------------------------------------------

    def overload_acquire(self, op: Any) -> tuple[bool, float]:
        """Admit or shed one ``op`` at the overload gate.

        Returns ``(admitted, retry_after_seconds)``.  An admitted fetch
        holds an in-flight slot that MUST be released via
        :meth:`overload_release` (the dispatcher does this in a
        ``finally``).  Cheap/diagnostic ops pass unconditionally.
        """
        if op not in _SHEDDABLE_OPS:
            return True, 0.0
        if self.breaker is not None and not self.breaker.allow():
            with self._lock:
                self.shed += 1
            return False, self.breaker.retry_after()
        if op == "fetch" and self.max_in_flight is not None:
            with self._lock:
                if self._in_flight >= self.max_in_flight:
                    self.shed += 1
                    return False, _IN_FLIGHT_RETRY_S
                self._in_flight += 1
        return True, 0.0

    def overload_release(self, op: Any) -> None:
        """Return the in-flight slot taken by an admitted fetch."""
        if op == "fetch" and self.max_in_flight is not None:
            with self._lock:
                self._in_flight = max(0, self._in_flight - 1)

    def record_result(self, succeeded: bool) -> None:
        """Feed one dispatch outcome to the breaker (no-op without one)."""
        if self.breaker is None:
            return
        if succeeded:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()

    # -- observability ---------------------------------------------------------

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Attach this policy's instruments and settings to a registry.

        A limit that is not configured (``rate_limit``, ``burst``,
        ``max_in_flight`` of ``None``) has no gauge: absent means
        unlimited.
        """
        registry.attach(self.admitted)
        registry.attach(self.denied_auth)
        registry.attach(self.throttled)
        registry.attach(self.shed)
        registry.gauge(
            "repro_policy_in_flight",
            "Fetches currently holding an in-flight slot.",
            fn=lambda: self._in_flight,
        )
        registry.gauge(
            "repro_policy_tracked_clients",
            "Token buckets currently tracked.",
            fn=lambda: len(self._buckets),
        )
        registry.gauge(
            "repro_policy_auth_required",
            "1 when every request must present the bearer token.",
            fn=lambda: self.auth_token is not None,
        )
        for name, setting, help in (
            ("rate_limit", self.rate_limit, "Requests/second per client."),
            ("burst", self.burst, "Token-bucket capacity per client."),
            ("max_in_flight", self.max_in_flight, "Cap on concurrent fetches."),
        ):
            if setting is not None:
                registry.gauge(
                    f"repro_policy_{name}", help, fn=lambda v=setting: v
                )
        if self.breaker is not None:
            self.breaker.register_metrics(registry)

    def __repr__(self) -> str:
        auth = "token" if self.auth_token is not None else "open"
        return f"AccessPolicy({auth}, rate_limit={self.rate_limit})"
