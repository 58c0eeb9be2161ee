"""Live operator views over the gateway's ``/metrics`` JSON document.

Two renderings of the same payload (the dict built by
``GatewayServer.metrics()``):

* :func:`render_top` — a plain-text terminal table: uptime, request and
  admission counters, fetch p50/p95/p99, memory accounting, breaker
  state, and a per-session row (served, cursors, memory, idle).
  :func:`run_top` polls the endpoint and redraws with a bare ANSI
  clear — no curses, so it works in dumb terminals, CI logs, and
  ``watch``-style pipes alike.  From its second frame on, the fetch
  percentiles cover the fetches since the previous poll (the bucket
  deltas of the fetch histogram), not the process lifetime.
* :func:`debug_html` — the ``GET /debug`` status page: the same
  numbers as static HTML tables for a browser glance at a live
  deployment (fetch percentiles over the process lifetime).

Both renderers are pure functions of the metrics dict, so tests drive
them without a socket.
"""

from __future__ import annotations

import json
import urllib.request
from typing import Any, Callable

from repro.obs.latency import latency_summary

__all__ = ["render_top", "run_top", "debug_html", "fetch_metrics"]

#: ANSI "clear screen, cursor home" — the whole redraw mechanism.
_CLEAR = "\x1b[2J\x1b[H"


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
    if ms is None:
        return "-"
    return f"{float(ms):.2f}ms"


def _latency_cells(metrics: dict) -> tuple[str, str, str, str]:
    fetch = metrics.get("latency", {}).get("fetch", {}) or {}
    total = str(fetch.get("total", fetch.get("count", 0)))
    if fetch.get("count") == 0:
        return total, "-", "-", "-"
    return (
        total,
        _fmt_ms(fetch.get("p50_ms")),
        _fmt_ms(fetch.get("p95_ms")),
        _fmt_ms(fetch.get("p99_ms")),
    )


def _since(metrics: dict, previous: dict | None) -> dict:
    """``metrics`` with its fetch percentiles over the fetches since
    ``previous``: the bucket deltas of two polls' ``fetch_histogram``.

    ``/metrics`` reports them over the process lifetime; ``total`` stays
    that.  Without a previous poll of the same process (the first
    frame, or a restart between polls) the lifetime figures stand.
    """
    now = metrics.get("latency", {}).get("fetch_histogram")
    before = (previous or {}).get("latency", {}).get("fetch_histogram")
    if not now or not before or before["count"] > now["count"]:
        return metrics
    delta = {
        "buckets": [
            (bound, count - earlier)
            for (bound, count), (_bound, earlier) in zip(
                now["buckets"], before["buckets"]
            )
        ],
        "count": now["count"] - before["count"],
        "sum": now["sum"] - before["sum"],
    }
    fetch = {**latency_summary(delta), "total": now["count"]}
    return {**metrics, "latency": {**metrics["latency"], "fetch": fetch}}


def _breaker_state(metrics: dict) -> str:
    breaker = metrics.get("policy", {}).get("breaker")
    if not breaker:
        return "none"
    return (
        f"{breaker.get('state', '?')} "
        f"(opened {breaker.get('opened', 0)}, "
        f"rejected {breaker.get('rejected', 0)})"
    )


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


def render_top(metrics: dict) -> str:
    """One frame of the ``repro top`` display, as plain text."""
    gateway = metrics.get("gateway", {})
    policy = metrics.get("policy", {})
    memory = metrics.get("memory", {})
    count, p50, p95, p99 = _latency_cells(metrics)
    sessions = metrics.get("sessions", {})
    lines = [
        (
            f"repro top — up {metrics.get('uptime_seconds', 0):.0f}s — "
            f"http {gateway.get('http_requests', 0)} "
            f"ws {gateway.get('ws_messages', 0)} "
            f"active {gateway.get('active_requests', 0)}"
        ),
        (
            f"admission: admitted {policy.get('admitted', 0)} "
            f"throttled {policy.get('throttled', 0)} "
            f"denied {policy.get('denied_auth', 0)} "
            f"shed {policy.get('shed', 0)} — breaker {_breaker_state(metrics)}"
        ),
        (
            f"fetch latency: n={count} p50 {p50} p95 {p95} p99 {p99}"
        ),
        (
            f"memory: streams {_fmt_bytes(memory.get('stream_bytes'))} "
            f"({memory.get('stream_count', 0)} streams) "
            f"core heap {_fmt_bytes(memory.get('core_heap_bytes'))} "
            f"core mmap {_fmt_bytes(memory.get('core_mmap_bytes'))}"
        ),
        "",
    ]
    detail = sessions.get("detail", {}) or {}
    rows = [
        [
            name,
            entry.get("served", 0),
            entry.get("cursors", 0),
            _fmt_bytes(entry.get("memory_bytes")),
            f"{entry.get('idle_seconds', 0):.1f}s",
        ]
        for name, entry in sorted(detail.items())
    ]
    lines.append(
        _table(["session", "served", "cursors", "memory", "idle"], rows)
    )
    if not rows:
        lines.append("(no open sessions)")
    lines.append(
        f"\nsessions {sessions.get('session_count', 0)} "
        f"evictions {sessions.get('evictions', 0)} "
        f"expirations {sessions.get('expirations', 0)}"
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
            metrics = fetch_metrics(url, token=token)
            frame = render_top(_since(metrics, previous))
            previous = metrics
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


def debug_html(metrics: dict) -> str:
    """The ``GET /debug`` status page for one metrics snapshot."""
    gateway = metrics.get("gateway", {})
    policy = metrics.get("policy", {})
    memory = metrics.get("memory", {})
    sessions = metrics.get("sessions", {})
    engine = metrics.get("engine", {})
    count, p50, p95, p99 = _latency_cells(metrics)
    overview = _html_table(
        ["metric", "value"],
        [
            ["uptime_seconds", metrics.get("uptime_seconds", 0)],
            ["http_requests", gateway.get("http_requests", 0)],
            ["ws_messages", gateway.get("ws_messages", 0)],
            ["active_requests", gateway.get("active_requests", 0)],
            ["admitted", policy.get("admitted", 0)],
            ["throttled", policy.get("throttled", 0)],
            ["denied_auth", policy.get("denied_auth", 0)],
            ["shed", policy.get("shed", 0)],
            ["breaker", _breaker_state(metrics)],
            ["fetch_count", count],
            ["fetch_p50", p50],
            ["fetch_p95", p95],
            ["fetch_p99", p99],
        ],
    )
    memory_table = _html_table(
        ["metric", "value"],
        [[key, _fmt_bytes(value) if key.endswith("bytes") else value]
         for key, value in sorted(memory.items())],
    )
    session_rows = [
        [
            name,
            entry.get("served", 0),
            entry.get("cursors", 0),
            _fmt_bytes(entry.get("memory_bytes")),
            entry.get("idle_seconds", 0),
        ]
        for name, entry in sorted((sessions.get("detail") or {}).items())
    ]
    session_table = _html_table(
        ["session", "served", "cursors", "memory", "idle (s)"], session_rows
    )
    engine_table = _html_table(
        ["counter", "value"], [[k, v] for k, v in sorted(engine.items())]
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
        f"<h2>sessions ({sessions.get('session_count', 0)})</h2>"
        f"{session_table}"
        f"<h2>engine</h2>{engine_table}"
        "</body></html>"
    )
