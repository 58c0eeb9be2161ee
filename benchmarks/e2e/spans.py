"""Spans recorded by the benchmark around its calls into each layer.

Kept in memory while the ladder runs and written as Chrome trace-event
JSON (``chrome://tracing``, Perfetto) when it ends.  Spans inside the
program are a later change; these sit on the benchmark's side of every
public call, so they cost the program nothing when off.
"""

from __future__ import annotations

import json
import time
from typing import Any


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *_exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("recorder", "name", "request", "span_id", "parent", "start")

    def __init__(self, recorder: "SpanRecorder", name: str, request: Any):
        self.recorder = recorder
        self.name = name
        self.request = request

    def __enter__(self) -> None:
        recorder = self.recorder
        recorder.opened += 1
        self.span_id = recorder.opened
        self.parent = recorder._stack[-1] if recorder._stack else 0
        recorder._stack.append(self.span_id)
        self.start = time.perf_counter()

    def __exit__(self, *_exc) -> None:
        end = time.perf_counter()
        recorder = self.recorder
        recorder._stack.pop()
        recorder.spans.append(
            (self.span_id, self.name, self.start, end, self.parent, self.request)
        )


class SpanRecorder:
    """Name, start, end, parent and request id of every span, in memory."""

    def __init__(self) -> None:
        #: Toggled per ladder round: off rounds measure the harness's own
        #: tracing cost (``bench.trace_overhead_pct``).
        self.enabled = True
        self.opened = 0
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._epoch = time.perf_counter()

    def span(self, name: str, request: Any = None):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, request)

    def write_chrome_trace(self, path) -> None:
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - self._epoch) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "request": request},
            }
            for span_id, name, start, end, parent, request in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
            handle.write("\n")
