"""The trace exporter: Chrome trace-event JSON.

Chrome trace events (the ``traceEvents`` array format) load directly in
Perfetto / ``chrome://tracing``; complete events (``ph: "X"``) carry
microsecond start + duration, so nested spans render as a flame chart
per thread.  (Metrics have one exporter of their own: the typed registry
of :mod:`repro.obs.metrics` renders the Prometheus exposition.)
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.trace import Span, Tracer


def chrome_trace_events(
    spans: Iterable[Span], process_name: str = "repro"
) -> list[dict]:
    """Convert finished spans to Chrome trace-event dicts.

    Timestamps are microseconds on the tracer's monotonic axis; Perfetto
    only needs them self-consistent, not absolute.  Span attributes land
    in ``args`` so attribution (core hit/miss, request ids, counts) is
    inspectable per slice in the UI.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    # Native thread idents are arbitrary large integers; two of them can
    # collide under a modulus and merge unrelated flame rows.  Map each
    # distinct ident to a small id in first-seen order instead (tid 0 is
    # the metadata row above).
    thread_ids: dict[int, int] = {}
    for span in spans:
        tid = thread_ids.setdefault(span.thread_id, len(thread_ids) + 1)
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        for key, value in span.attrs.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                args[key] = value
            else:
                args[key] = repr(value)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    return events


def _trace_document(
    source: "Tracer | Iterable[Span]", process_name: str
) -> tuple[str, int]:
    """Serialize spans once for both the string and file exporters."""
    spans = source.spans() if isinstance(source, Tracer) else list(source)
    events = chrome_trace_events(spans, process_name)
    document = json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"},
        separators=(",", ":"),
    )
    return document, len(events)


def chrome_trace_json(
    source: "Tracer | Iterable[Span]", process_name: str = "repro"
) -> str:
    """Full Chrome trace document as a JSON string."""
    return _trace_document(source, process_name)[0]


def write_chrome_trace(
    path: str, source: "Tracer | Iterable[Span]", process_name: str = "repro"
) -> int:
    """Write a Perfetto-loadable trace file; returns the event count."""
    document, count = _trace_document(source, process_name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return count
