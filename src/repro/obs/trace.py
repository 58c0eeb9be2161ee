"""Engine-wide tracing: nested spans, ring-buffer recorder, sampling.

Design constraints, in order:

1. **The no-op path must be near-free.**  Every instrumentation point
   in the engine runs even when tracing is off, so the disabled path is
   a singleton :data:`NULL_TRACER` whose ``span()`` returns a stateless
   singleton context manager — no allocation, no clock read, no
   contextvar touch.  The flat enumeration loops themselves are never
   instrumented per-answer; spans wrap *phases* (bind, T-DP build,
   core-cache load, stream extension, request dispatch).

2. **Nesting must survive threads and asyncio tasks.**  The current
   span lives in a :mod:`contextvars` ``ContextVar``, so spans opened
   inside an asyncio task nest under the request span that opened the
   task, and worker threads start fresh roots instead of corrupting a
   foreign trace.

3. **Memory is bounded.**  Finished spans land in a ``deque`` ring
   buffer; old spans fall out, ``dropped`` counts them.  A serving
   process can trace forever without growing.

Sampling is decided once per *root* span ("off"/ratio/"always").
Children inherit the root's verdict — a trace is recorded whole or not
at all, never as a torn fragment — but unsampled spans still occupy the
context slot so the parent chain stays intact for a later sampled root.
"""

from __future__ import annotations

import contextvars
import itertools
import random
import threading
import time
import uuid
from collections import deque
from typing import Callable, Optional

_current_span: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_current_span", default=None
)


class NullSpan:
    """Stateless do-nothing span; the tracing-off fast path.

    A single shared instance is handed out by :class:`NullTracer` and
    for unrecordable situations; it never touches the context var, so
    nested null spans simply collapse.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NullSpan":
        return self

    def add(self, **counts) -> "NullSpan":
        return self

    @property
    def duration(self) -> float:
        return 0.0


NULL_SPAN = NullSpan()


class Span:
    """One timed, attributed region of work.

    Use as a context manager (``with tracer.span("tdp.build") as sp:``);
    ``set(**attrs)`` attaches attribution (counts, hit/miss flags,
    request ids) at any point before exit.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "attrs",
        "thread_id",
        "sampled",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        sampled: bool,
        attrs: dict,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.thread_id = 0
        self._tracer = tracer
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        self.thread_id = threading.get_ident()
        self.start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer._clock()
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self.sampled:
            self._tracer._record(self)
        return False

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def add(self, **counts) -> "Span":
        """Add ``counts`` to what the span carries (absent counts are 0):
        several parts of one region report into one span."""
        attrs = self.attrs
        for name, count in counts.items():
            attrs[name] = attrs.get(name, 0) + count
        return self

    @property
    def duration(self) -> float:
        """Seconds from enter to exit (0.0 while still open)."""
        return max(0.0, self.end - self.start) if self.end else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, attrs={self.attrs})"
        )


class Tracer:
    """Span factory plus a bounded ring buffer of finished spans.

    ``sample`` is ``"always"`` (1.0), ``"off"`` (0.0), or a ratio in
    ``[0, 1]`` applied per root span.  ``rng`` and ``clock`` are
    injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 4096,
        sample: str | float = "always",
        rng: Callable[[], float] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.ratio = _parse_sample(sample)
        self._rng = rng or random.random
        self._clock = clock
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.recorded = 0
        self.dropped = 0
        #: Wall-clock anchor so exporters can place the monotonic
        #: timestamps on an absolute axis.
        self.epoch_wall = time.time()
        self.epoch_perf = self._clock()

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **attrs) -> Span:
        """Open a span nested under the caller's current span (if any)."""
        parent = _current_span.get()
        if parent is None or isinstance(parent, NullSpan):
            trace_id = next(self._ids)
            parent_id = None
            sampled = self.ratio >= 1.0 or (
                self.ratio > 0.0 and self._rng() < self.ratio
            )
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            sampled = parent.sampled
        return Span(
            self, name, trace_id, next(self._ids), parent_id, sampled, attrs
        )

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)
            self.recorded += 1

    def spans(self) -> list[Span]:
        """Snapshot of the ring buffer, oldest first."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Snapshot and clear the ring buffer."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
            return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    @property
    def buffered(self) -> int:
        """Spans currently held by the ring buffer."""
        return len(self._spans)


class NullTracer:
    """Tracing disabled: every call is a constant-time no-op."""

    __slots__ = ()

    #: What the tracing gauges read off a :class:`Tracer`: all zero.
    ratio = 0.0
    capacity = recorded = dropped = buffered = 0

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **attrs) -> NullSpan:
        return NULL_SPAN

    def spans(self) -> list:
        return []

    def drain(self) -> list:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()


def _parse_sample(sample: str | float) -> float:
    if isinstance(sample, str):
        text = sample.strip().lower()
        if text in ("always", "on", "1"):
            return 1.0
        if text in ("off", "never", "0"):
            return 0.0
        try:
            sample = float(text)
        except ValueError:
            raise ValueError(
                f"trace sample must be 'off', 'always', or a ratio, got {sample!r}"
            ) from None
    ratio = float(sample)
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"trace sample ratio must be in [0, 1], got {ratio}")
    return ratio


def tracer_from_option(option: str | float | None, capacity: int = 4096):
    """Build a tracer from a CLI ``--trace-sample`` value.

    ``None``/``"off"``/``0`` yield the shared :data:`NULL_TRACER` —
    not a zero-ratio :class:`Tracer` — so the disabled path skips even
    span allocation.
    """
    if option is None:
        return NULL_TRACER
    ratio = _parse_sample(option)
    if ratio == 0.0:
        return NULL_TRACER
    return Tracer(capacity=capacity, sample=ratio)


def current_span():
    """The caller's innermost open span, or ``None``."""
    return _current_span.get()


def new_request_id() -> str:
    """A short opaque request id for edge propagation and access logs."""
    return uuid.uuid4().hex[:12]
