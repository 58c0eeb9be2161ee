"""Live operator views over a listener's stats document.

The ``stats`` op, ``GET /v1/stats`` and JSON ``GET /metrics`` all answer
with one document (:meth:`repro.serve.server.OpDispatcher.document`):
``metrics``, the listener registry's ``as_dict()`` keyed by exported
name, and ``sessions``, the per-session detail.  Two renderings of it:

* :func:`render_top` — a plain-text terminal table: uptime, request and
  admission counters, fetch p50/p95/p99, memory accounting, breaker
  state, and a per-session row (served, cursors, memory, idle).
  :func:`run_top` polls the endpoint and redraws with a bare ANSI
  clear — no curses, so it works in dumb terminals, CI logs, and
  ``watch``-style pipes alike.  From its second frame on, the fetch
  percentiles cover the fetches since the previous poll (the bucket
  deltas of ``repro_fetch_latency_seconds``), not the process lifetime.
* :func:`debug_html` — the ``GET /debug`` status page: the same
  numbers as static HTML tables for a browser glance at a live
  deployment (fetch percentiles over the process lifetime), followed by
  every metric of the document.

Both renderers are pure functions of the document, so tests drive them
without a socket.
"""

from __future__ import annotations

import json
import urllib.request
from typing import Any, Callable

from repro.obs.latency import latency_summary

__all__ = ["render_top", "run_top", "debug_html", "fetch_metrics"]

#: ANSI "clear screen, cursor home" — the whole redraw mechanism.
_CLEAR = "\x1b[2J\x1b[H"

#: The histogram the fetch percentiles are read from.
_FETCH = "repro_fetch_latency_seconds"

#: Memory rows: label → engine gauge.
_MEMORY = {
    "stream_count": "repro_engine_stream_count",
    "stream_bytes": "repro_engine_stream_bytes",
    "core_heap_bytes": "repro_engine_core_heap_bytes",
    "core_mmap_bytes": "repro_engine_core_mmap_bytes",
}


def _fmt_bytes(n: Any) -> str:
    try:
        value = float(n)
    except (TypeError, ValueError):
        return "-"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


def _fmt_ms(ms: Any) -> str:
    return f"{float(ms):.2f}ms"


def _metrics(doc: dict | None) -> dict:
    return (doc or {}).get("metrics") or {}


def _count(metrics: dict, name: str) -> Any:
    value = metrics.get(name)
    return 0 if value is None else value


def _latency_cells(doc: dict, previous: dict | None = None) -> tuple[str, ...]:
    """``(n, p50, p95, p99)`` of the fetch histogram.

    ``n`` is the lifetime count.  The percentiles cover the fetches
    since ``previous`` when that is an earlier poll of the same process
    (the bucket deltas), else the lifetime.
    """
    now = _metrics(doc).get(_FETCH)
    if not now:
        return "0", "-", "-", "-"
    window = now
    before = _metrics(previous).get(_FETCH)
    if before and before["count"] <= now["count"]:
        window = {
            "buckets": [
                (bound, count - earlier)
                for (bound, count), (_bound, earlier) in zip(
                    now["buckets"], before["buckets"]
                )
            ],
            "count": now["count"] - before["count"],
            "sum": now["sum"] - before["sum"],
        }
    if not window["count"]:
        return str(now["count"]), "-", "-", "-"
    summary = latency_summary(window)
    return (
        str(now["count"]),
        _fmt_ms(summary["p50_ms"]),
        _fmt_ms(summary["p95_ms"]),
        _fmt_ms(summary["p99_ms"]),
    )


def _breaker_state(metrics: dict) -> str:
    states = metrics.get("repro_breaker_state")
    if not states:
        return "none"
    current = next(
        (key.partition("=")[2] for key, on in states.items() if on), "?"
    )
    return (
        f"{current} "
        f"(opened {_count(metrics, 'repro_breaker_opened_total')}, "
        f"rejected {_count(metrics, 'repro_breaker_rejected_total')})"
    )


def _session_rows(doc: dict) -> list[list[Any]]:
    """``[name, served, cursors, memory bytes, idle seconds]`` per session."""
    memory = _metrics(doc).get("repro_session_memory_bytes") or {}
    return [
        [
            name,
            entry.get("served", 0),
            len(entry.get("cursors") or {}),
            memory.get(f"session={name}"),
            entry.get("idle_seconds", 0),
        ]
        for name, entry in sorted((doc.get("sessions") or {}).items())
    ]


def _memory_rows(doc: dict) -> list[list[Any]]:
    metrics = _metrics(doc)
    rows = [[label, _count(metrics, name)] for label, name in _MEMORY.items()]
    held = metrics.get("repro_session_memory_bytes") or {}
    rows.append(["session_bytes", sum(held.values())])
    budget = metrics.get("repro_session_memory_budget_bytes")
    if budget is not None:
        rows.append(["memory_budget_bytes", budget])
    return rows


def _overview(doc: dict, previous: dict | None = None) -> dict[str, Any]:
    """The scalar numbers both views lead with, by row label."""
    metrics = _metrics(doc)
    count, p50, p95, p99 = _latency_cells(doc, previous)
    return {
        "uptime_seconds": _count(metrics, "repro_uptime_seconds"),
        "requests": _count(metrics, "repro_dispatched_requests_total"),
        "active_requests": _count(metrics, "repro_active_requests"),
        "admitted": _count(metrics, "repro_policy_admitted_total"),
        "throttled": _count(metrics, "repro_policy_throttled_total"),
        "denied_auth": _count(metrics, "repro_policy_denied_auth_total"),
        "shed": _count(metrics, "repro_policy_shed_total"),
        "breaker": _breaker_state(metrics),
        "fetch_count": count,
        "fetch_p50": p50,
        "fetch_p95": p95,
        "fetch_p99": p99,
    }


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """Fixed-width plain-text table (left-aligned, two-space gutters)."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)


def render_top(doc: dict, previous: dict | None = None) -> str:
    """One frame of the ``repro top`` display, as plain text.

    ``previous`` is the poll before ``doc``; with it, the fetch
    percentiles cover only the fetches in between.
    """
    view = _overview(doc, previous)
    memory = dict(_memory_rows(doc))
    metrics = _metrics(doc)
    lines = [
        (
            f"repro top — up {float(view['uptime_seconds']):.0f}s — "
            f"requests {view['requests']} "
            f"active {view['active_requests']}"
        ),
        (
            f"admission: admitted {view['admitted']} "
            f"throttled {view['throttled']} "
            f"denied {view['denied_auth']} "
            f"shed {view['shed']} — breaker {view['breaker']}"
        ),
        (
            f"fetch latency: n={view['fetch_count']} p50 {view['fetch_p50']} "
            f"p95 {view['fetch_p95']} p99 {view['fetch_p99']}"
        ),
        (
            f"memory: streams {_fmt_bytes(memory['stream_bytes'])} "
            f"({memory['stream_count']} streams) "
            f"core heap {_fmt_bytes(memory['core_heap_bytes'])} "
            f"core mmap {_fmt_bytes(memory['core_mmap_bytes'])}"
        ),
        "",
    ]
    rows = [
        [name, served, cursors, _fmt_bytes(held), f"{float(idle):.1f}s"]
        for name, served, cursors, held, idle in _session_rows(doc)
    ]
    lines.append(
        _table(["session", "served", "cursors", "memory", "idle"], rows)
    )
    if not rows:
        lines.append("(no open sessions)")
    lines.append(
        f"\nsessions {len(rows)} "
        f"evictions {_count(metrics, 'repro_sessions_evicted_total')} "
        f"expirations {_count(metrics, 'repro_sessions_expired_total')}"
    )
    return "\n".join(lines)


def fetch_metrics(url: str, token: str | None = None, timeout: float = 5.0) -> dict:
    """One JSON ``/metrics`` poll (bearer token optional)."""
    request = urllib.request.Request(url, headers={"Accept": "application/json"})
    if token:
        request.add_header("Authorization", f"Bearer {token}")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: int | None = None,
    token: str | None = None,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] | None = None,
    clear: bool = True,
) -> int:
    """Poll ``url`` and redraw the top view; returns frames rendered.

    ``iterations=None`` runs until interrupted.  ``out``/``sleep`` are
    injectable so tests (and the CI smoke job) run a single frame
    without a terminal or a timer.
    """
    import time as _time

    if sleep is None:
        sleep = _time.sleep
    frames = 0
    previous = None
    try:
        while iterations is None or frames < iterations:
            doc = fetch_metrics(url, token=token)
            frame = render_top(doc, previous)
            previous = doc
            out((_CLEAR + frame) if clear and frames else frame)
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames


def _html_escape(text: Any) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def _html_table(headers: list[str], rows: list[list[Any]]) -> str:
    head = "".join(f"<th>{_html_escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_html_escape(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def _metric_cell(value: Any) -> str:
    """One document value as text: a histogram by its count and sum, a
    labeled family as ``key value`` pairs."""
    if isinstance(value, dict):
        if "buckets" in value:
            return f"count {value['count']}, sum {value['sum']}"
        return ", ".join(f"{key} {item}" for key, item in sorted(value.items()))
    return "-" if value is None else str(value)


def debug_html(doc: dict) -> str:
    """The ``GET /debug`` status page for one stats document."""
    overview = _html_table(
        ["metric", "value"], [list(row) for row in _overview(doc).items()]
    )
    memory_table = _html_table(
        ["metric", "value"],
        [[key, _fmt_bytes(value) if key.endswith("bytes") else value]
         for key, value in _memory_rows(doc)],
    )
    session_rows = [
        [name, served, cursors, _fmt_bytes(held), idle]
        for name, served, cursors, held, idle in _session_rows(doc)
    ]
    session_table = _html_table(
        ["session", "served", "cursors", "memory", "idle (s)"], session_rows
    )
    metrics_table = _html_table(
        ["metric", "value"],
        [
            [name, _metric_cell(value)]
            for name, value in sorted(_metrics(doc).items())
        ],
    )
    return (
        "<!DOCTYPE html><html><head><title>repro gateway</title>"
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "th,td{border:1px solid #999;padding:2px 8px;text-align:left}"
        "h2{margin-bottom:0}</style></head><body>"
        "<h1>repro gateway</h1>"
        f"<h2>overview</h2>{overview}"
        f"<h2>memory</h2>{memory_table}"
        f"<h2>sessions ({len(session_rows)})</h2>"
        f"{session_table}"
        f"<h2>metrics</h2>{metrics_table}"
        "</body></html>"
    )
