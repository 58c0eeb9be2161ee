"""Observability layer: tracing, EXPLAIN ANALYZE, metrics, latency.

The running system's view of the paper's cost model:

* :mod:`repro.obs.trace` — engine-wide spans with a bounded ring
  buffer, sampling, and a near-free no-op path when tracing is off;
* :mod:`repro.obs.analyze` — ``PreparedQuery.analyze(k)``: per-stage
  wall time, OpCounter attribution, compiled-core counts, and the
  TTF / TT(k) / per-answer-delay profile;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto);
* :mod:`repro.obs.latency` — nearest-rank percentiles, the per-answer
  delay profile EXPLAIN ANALYZE reports, and the fetch-latency block
  ``/metrics`` builds from the session manager's histogram;
* :mod:`repro.obs.metrics` — the typed metrics registry (counters,
  gauges, histograms, labeled families) every subsystem registers
  into — the one source of the Prometheus exposition behind
  ``GET /metrics?format=prometheus`` — plus a promtool-style validator;
* :mod:`repro.obs.profiler` — the sampling profiler behind
  ``repro profile`` (collapsed-stack output, stage attribution);
* :mod:`repro.obs.top` — the ``repro top`` operator view and the
  ``GET /debug`` status page.
"""

from repro.obs.analyze import AnalyzeReport, StageNode, analyze_prepared
from repro.obs.export import (
    chrome_trace_events,
    chrome_trace_json,
    write_chrome_trace,
)
from repro.obs.latency import delay_profile, percentile
from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_exposition,
)
from repro.obs.profiler import SamplingProfiler, profile_call
from repro.obs.top import debug_html, render_top, run_top
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    current_span,
    new_request_id,
    tracer_from_option,
)

__all__ = [
    "AnalyzeReport",
    "StageNode",
    "analyze_prepared",
    "chrome_trace_events",
    "chrome_trace_json",
    "write_chrome_trace",
    "delay_profile",
    "percentile",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "Tracer",
    "current_span",
    "new_request_id",
    "tracer_from_option",
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "validate_exposition",
    "SamplingProfiler",
    "profile_call",
    "debug_html",
    "render_top",
    "run_top",
]
