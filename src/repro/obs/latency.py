"""Latency summaries: nearest-rank percentiles, a histogram's
percentiles, and the per-answer delay profile.

EXPLAIN ANALYZE reads :func:`delay_profile` (TTF / TT(k) / delay
percentiles — the paper's own cost model, Section 7) over the delays it
timed; a serving process keeps no samples, only the session manager's
``repro_fetch_latency_seconds`` histogram, which :func:`latency_summary`
turns into the p50/p95/p99 that ``/debug`` and ``repro top`` show.
"""

from __future__ import annotations

from repro.obs.metrics import histogram_quantile


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` (nearest-rank method).

    Nearest-rank (as opposed to interpolation) reports a latency that
    some request actually experienced, the convention for serving tail
    latencies.  ``q`` is in percent, e.g. ``99`` for p99.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


def latency_summary(snapshot: dict) -> dict:
    """Count, mean and p50/p95/p99 (ms) of a histogram snapshot.

    Quantiles are :func:`~repro.obs.metrics.histogram_quantile`
    estimates over the snapshot's buckets.
    """
    count = snapshot["count"]

    def ms(seconds: float) -> float:
        return round(seconds * 1e3, 3)

    return {
        "count": count,
        "p50_ms": ms(histogram_quantile(snapshot, 0.50)),
        "p95_ms": ms(histogram_quantile(snapshot, 0.95)),
        "p99_ms": ms(histogram_quantile(snapshot, 0.99)),
        "mean_ms": ms(snapshot["sum"] / count) if count else 0.0,
    }


def delay_profile(delays: list[float]) -> dict:
    """Summarise per-answer delays (seconds) as the paper reads them.

    ``delays[i]`` is the gap between answer ``i`` and its predecessor
    (``delays[0]`` is TTF measured from enumeration start).  Returned
    values are microseconds for the per-answer gaps — at flat-loop
    speeds individual delays sit well under a millisecond — and
    milliseconds for the cumulative TTF/TT(k) marks.
    """
    if not delays:
        return {
            "produced": 0,
            "ttf_ms": 0.0,
            "ttk_ms": 0.0,
            "delay_p50_us": 0.0,
            "delay_p95_us": 0.0,
            "delay_p99_us": 0.0,
            "delay_max_us": 0.0,
        }
    return {
        "produced": len(delays),
        "ttf_ms": round(delays[0] * 1e3, 4),
        "ttk_ms": round(sum(delays) * 1e3, 4),
        "delay_p50_us": round(percentile(delays, 50) * 1e6, 3),
        "delay_p95_us": round(percentile(delays, 95) * 1e6, 3),
        "delay_p99_us": round(percentile(delays, 99) * 1e6, 3),
        "delay_max_us": round(max(delays) * 1e6, 3),
    }
