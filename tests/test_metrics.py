"""Tests for the typed metrics registry, profiler, and operator views.

Covers :mod:`repro.obs.metrics` (instruments, families, registry,
exposition rendering, promtool-style validation), the sampling
profiler, ``repro top`` / ``GET /debug`` rendering, and the migrated
subsystem counters (engine stats, core cache, sessions, policy).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from bisect import bisect_left
import threading
import time

import pytest

from repro.data.generators import uniform_database
from repro.engine import Engine
from repro.obs.metrics import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_buckets,
    histogram_quantile,
    validate_exposition,
)
from repro.obs.latency import latency_summary, percentile
from repro.obs.profiler import SamplingProfiler, stage_of
from repro.obs.top import debug_html, render_top


# -- instruments ---------------------------------------------------------------


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("repro_test_total")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        assert int(counter) == 4

    def test_iadd_returns_same_instrument(self):
        counter = Counter("repro_test_total")
        alias = counter
        counter += 1
        assert counter is alias
        assert counter.value == 1

    def test_negative_increment_rejected(self):
        counter = Counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("not a metric name")

    def test_an_instrument_is_no_number(self):
        """Readers take ``.value``: an instrument does not compare equal
        to its count."""
        counter = Counter("repro_test_total")
        counter.inc()
        assert counter != 1
        with pytest.raises(TypeError):
            counter >= 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("repro_test_gauge")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0

    def test_callback_evaluated_per_read(self):
        box = {"v": 1}
        registry = MetricsRegistry()
        registry.gauge("repro_test_gauge", fn=lambda: box["v"])
        assert registry.as_dict()["repro_test_gauge"] == 1
        box["v"] = 7
        assert registry.as_dict()["repro_test_gauge"] == 7

    def test_callback_failure_reads_absent(self):
        registry = MetricsRegistry()
        registry.gauge("repro_test_gauge", fn=lambda: 1 / 0)
        assert registry.as_dict() == {"repro_test_gauge": None}
        assert registry.render() == ""


class TestHistogram:
    def test_buckets_cumulative_and_sum(self):
        hist = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)
        cumulative = dict(snap["buckets"])
        assert cumulative[0.1] == 1
        assert cumulative[1.0] == 3
        assert cumulative[10.0] == 4  # 50.0 only lands in +Inf

    def test_samples_shape(self):
        hist = Histogram("repro_test_seconds", buckets=(1.0,))
        hist.observe(0.5)
        names = [suffix for suffix, _labels, _v in hist.samples()]
        assert names == ["_bucket", "_bucket", "_sum", "_count"]
        le_values = [
            labels["le"] for suffix, labels, _v in hist.samples()
            if suffix == "_bucket"
        ]
        assert le_values == ["1", "+Inf"]

    def test_default_buckets_exponential(self):
        buckets = default_buckets()
        assert len(buckets) == 14
        assert buckets[0] == pytest.approx(0.001)
        for lo, hi in zip(buckets, buckets[1:]):
            assert hi == pytest.approx(lo * 2.0)

    def test_quantile_interpolates_inside_its_bucket(self):
        hist = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0, 9.0):
            hist.observe(value)
        snap = hist.snapshot()
        # Rank 2.5 of 5 is the second of the two in (1, 2].
        assert histogram_quantile(snap, 0.5) == pytest.approx(1.75)
        # The first bucket's lower bound is 0.
        assert histogram_quantile(snap, 0.2) == pytest.approx(1.0)
        # A rank in the +Inf overflow answers the highest finite bound.
        assert histogram_quantile(snap, 0.99) == 4.0
        empty = Histogram("repro_test_seconds").snapshot()
        assert histogram_quantile(empty, 0.5) == 0.0
        assert latency_summary(empty)["mean_ms"] == 0.0
        for q in (0, 1.5):
            with pytest.raises(ValueError):
                histogram_quantile(snap, q)

    def test_fetch_histogram_resolves_a_served_page(self):
        """Served pages take 0.1-2 ms: there the fetch histogram's
        quantiles stay within one bucket of the nearest-rank percentile,
        and the sub-millisecond ones do not share one bucket."""
        from repro.serve.session import SessionManager

        manager = SessionManager(Engine(uniform_database(2, 10, seed=1)))
        hist = manager.fetch_latency_histogram
        rng = random.Random(39)
        samples = [rng.uniform(1e-4, 2e-3) for _ in range(500)]
        for value in samples:
            hist.observe(value)
        snap = hist.snapshot()
        for q in (50, 95, 99):
            estimate = bisect_left(hist.buckets, histogram_quantile(snap, q / 100))
            exact = bisect_left(hist.buckets, percentile(samples, q))
            assert abs(estimate - exact) <= 1, q
        below_1ms = {bisect_left(hist.buckets, v) for v in samples if v < 1e-3}
        assert len(below_1ms) >= 4

    def test_thread_safety_totals(self):
        hist = Histogram("repro_test_seconds")
        counter = Counter("repro_test_total")

        def work():
            for _ in range(1000):
                hist.observe(0.01)
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert int(counter) == 4000
        assert hist.snapshot()["count"] == 4000


class TestFamily:
    def test_labels_get_or_create(self):
        family = Family(
            Counter, "repro_events_total", labelnames=("event",)
        )
        family.labels("a").inc()
        family.labels("a").inc()
        family.labels("b").inc()
        assert int(family.labels("a")) == 2
        samples = family.samples()
        assert [(labels["event"], value) for _s, labels, value in samples] == [
            ("a", 2), ("b", 1)
        ]

    def test_wrong_arity_rejected(self):
        family = Family(Counter, "repro_events_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")


# -- registry + exposition ------------------------------------------------------


class TestRegistry:
    def test_get_or_create_and_attach(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_a_total")
        assert registry.counter("repro_a_total") is counter
        external = Counter("repro_b_total")
        registry.attach(external)
        registry.attach(external)  # idempotent for the same object
        with pytest.raises(ValueError):
            registry.attach(Counter("repro_b_total"))

    def test_render_is_valid_and_typed(self):
        registry = MetricsRegistry()
        registry.counter("repro_reqs_total").inc(3)
        registry.gauge("repro_depth").set(2.5)
        hist = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        family = Family(Counter, "repro_ev_total", labelnames=("kind",))
        family.labels("x").inc()
        registry.attach(family)
        text = registry.render()
        assert validate_exposition(text) == []
        assert "# TYPE repro_reqs_total counter" in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert 'repro_ev_total{kind="x"} 1' in text

    def test_labeled_callback_gauge(self):
        registry = MetricsRegistry()
        registry.callback(
            "repro_mem_bytes",
            lambda: {"s1": 10, "s2": 20}, labelnames=("session",),
        )
        text = registry.render()
        assert 'repro_mem_bytes{session="s1"} 10' in text
        assert 'repro_mem_bytes{session="s2"} 20' in text
        assert validate_exposition(text) == []

    def test_as_dict_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc()
        registry.gauge("repro_b").set(1.5)
        registry.histogram("repro_c_seconds").observe(0.1)
        json.dumps(registry.as_dict())

    def test_as_dict_has_every_name(self):
        """Histograms included: one key per registered name."""
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc()
        registry.gauge("repro_b").set(1.5)
        hist = registry.histogram("repro_c_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        registry.counter("repro_d_total", labelnames=("kind",)).labels("x").inc()
        registry.callback(
            "repro_e_bytes", lambda: {"s1": 10}, labelnames=("session",)
        )
        registry.callback("repro_f", lambda: {}, labelnames=("session",))
        doc = registry.as_dict()
        assert sorted(doc) == registry.names()
        assert doc["repro_a_total"] == 1
        assert doc["repro_b"] == 1.5
        assert doc["repro_c_seconds"] == hist.snapshot()
        assert doc["repro_d_total"] == {"kind=x": 1}
        assert doc["repro_e_bytes"] == {"session=s1": 10}
        assert doc["repro_f"] == {}

    def test_field_callbacks_share_one_read_per_collect(self):
        reads = []

        def source() -> dict:
            reads.append(1)
            return {"a": 1, "b": 2}

        registry = MetricsRegistry()
        registry.callback("repro_a", source, field="a")
        registry.callback("repro_b", source, field="b")
        text = registry.render()
        assert "repro_a 1" in text and "repro_b 2" in text
        assert len(reads) == 1
        assert registry.as_dict() == {"repro_a": 1, "repro_b": 2}
        assert len(reads) == 2


class TestValidator:
    def test_catches_duplicate_type(self):
        bad = (
            "# TYPE repro_x gauge\nrepro_x 1\n"
            "# TYPE repro_x gauge\nrepro_x 2\n"
        )
        problems = validate_exposition(bad)
        assert problems

    def test_catches_missing_type(self):
        assert validate_exposition("repro_x 1\n")

    def test_catches_nonmonotone_histogram(self):
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="1.0"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1.0\n"
            "repro_h_count 5\n"
        )
        assert any("monotone" in p for p in validate_exposition(bad))

    def test_catches_inf_count_mismatch(self):
        bad = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 1.0\n"
            "repro_h_count 5\n"
        )
        assert any("+Inf" in p for p in validate_exposition(bad))

    def test_accepts_good_exposition(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h_seconds").observe(0.2)
        registry.counter("repro_c_total").inc()
        assert validate_exposition(registry.render()) == []


# -- migrated subsystem counters ------------------------------------------------


@pytest.fixture()
def engine():
    engine = Engine(uniform_database(3, 30, domain_size=5, seed=3))
    yield engine
    engine.close()


class TestSubsystemMigration:
    def test_engine_stats_register_and_scrape(self, engine):
        prepared = engine.prepare("Q(x, z) :- R1(x, y), R2(y, z)")
        list(itertools.islice(prepared.iter(), 3))
        registry = MetricsRegistry()
        engine.register_metrics(registry)
        text = registry.render()
        assert validate_exposition(text) == []
        assert "# TYPE repro_engine_prepare_misses_total counter" in text
        assert "repro_engine_stream_count" in text
        assert engine.stats.prepare_misses >= 1
        doc = registry.as_dict()
        assert doc["repro_engine_prepare_misses_total"] == (
            engine.stats.prepare_misses
        )

    def test_memory_stats_populates_after_run(self, engine):
        prepared = engine.prepare("Q(x, z) :- R1(x, y), R2(y, z)")
        # stream() is the memoized fetch path — the one that actually
        # holds result prefixes in engine memory.
        prepared.stream().ensure(5)
        memory = engine.memory_stats()
        assert memory["stream_count"] >= 1
        assert memory["stream_bytes"] > 0
        assert memory["core_heap_bytes"] > 0  # the bound core is walked
        assert memory["core_mmap_bytes"] >= 0

    def test_session_memory_budget_enforced(self, engine):
        from repro.serve.session import SessionBudgetExceeded, SessionManager

        # A budget that admits the empty stream but not held results:
        # before the first fetch only the empty prefix list is charged.
        manager = SessionManager(engine, memory_budget_bytes=128)
        session, cursor_id = manager.open_cursor(
            "tiny", "Q(x, z) :- R1(x, y), R2(y, z)"
        )
        assert manager.session_memory_bytes(session) <= 128
        manager.fetch("tiny", cursor_id, 4)  # admitted: nothing held yet
        with pytest.raises(SessionBudgetExceeded, match="memory budget"):
            manager.fetch("tiny", cursor_id, 4)
        assert manager.session_memory_bytes(session) > 128

    def test_session_memory_gauges(self, engine):
        from repro.serve.session import SessionManager

        manager = SessionManager(engine)
        _session, cursor_id = manager.open_cursor(
            "obs", "Q(x, z) :- R1(x, y), R2(y, z)"
        )
        manager.fetch("obs", cursor_id, 3)
        registry = MetricsRegistry()
        manager.register_metrics(registry)
        text = registry.render()
        assert validate_exposition(text) == []
        assert 'repro_session_memory_bytes{session="obs"}' in text
        by_session = manager.memory_by_session()
        assert by_session["obs"] > 0
        doc = registry.as_dict()
        assert doc["repro_session_memory_bytes"] == {
            "session=obs": by_session["obs"]
        }
        detail = manager.session_detail()
        json.dumps(detail)
        assert detail["obs"]["served"] == 3
        assert detail["obs"]["cursors"][cursor_id]["position"] == 3

    def test_policy_metrics(self):
        from repro.serve.policy import AccessPolicy

        policy = AccessPolicy(auth_token="secret")
        assert not policy.authorize("wrong-token")
        registry = MetricsRegistry()
        policy.register_metrics(registry)
        text = registry.render()
        assert validate_exposition(text) == []
        assert "repro_policy_denied_auth_total 1" in text
        assert "repro_policy_in_flight 0" in text

    def test_resilience_counters_exposed_as_family(self):
        from repro.util.resilience import COUNTERS

        COUNTERS.clear()
        COUNTERS.labels("deadline_exceeded").inc()
        COUNTERS.labels("deadline_exceeded").inc()
        registry = MetricsRegistry()
        registry.attach(COUNTERS)
        text = registry.render()
        assert (
            'repro_resilience_events_total{event="deadline_exceeded"} 2'
            in text
        )
        assert validate_exposition(text) == []
        COUNTERS.clear()


class TestOneReadPerScrape:
    """A scrape reads each source once: the engine's memory walk (every
    bound core's columns, every stream) and the tracer's counters."""

    def test_one_render_reads_memory_once_and_takes_no_tracer_lock(
        self, monkeypatch
    ):
        from repro.obs.trace import Tracer
        from repro.serve.gateway import GatewayServer

        walks = []
        memory_stats = Engine.memory_stats

        def counted(engine):
            walks.append(engine)
            return memory_stats(engine)

        monkeypatch.setattr(Engine, "memory_stats", counted)
        tracer = Tracer()
        engine = Engine(
            uniform_database(3, 30, domain_size=5, seed=3), tracer=tracer
        )
        prepared = engine.prepare("Q(x, z) :- R1(x, y), R2(y, z)")
        prepared.stream().ensure(5)

        class CountingLock:
            def __init__(self, lock):
                self.lock, self.taken = lock, 0

            def __enter__(self):
                self.taken += 1
                return self.lock.__enter__()

            def __exit__(self, *exc):
                return self.lock.__exit__(*exc)

        server = GatewayServer(engine, log_requests=False)
        tracer._lock = CountingLock(tracer._lock)
        text = server.registry.render()
        assert validate_exposition(text) == []
        assert len(walks) == 1
        assert tracer._lock.taken == 0
        for name in ("recorded", "dropped", "buffered", "enabled"):
            assert f"repro_tracing_{name} " in text
        assert "repro_engine_stream_count 1" in text
        engine.close()


# -- profiler -------------------------------------------------------------------


class TestProfiler:
    def test_samples_and_collapsed_output(self):
        profiler = SamplingProfiler(hz=500)
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                math.sqrt(12345.0)

        worker = threading.Thread(target=spin)
        worker.start()
        try:
            with profiler:
                time.sleep(0.25)
        finally:
            stop.set()
            worker.join()
        assert profiler.samples > 0
        collapsed = profiler.collapsed()
        assert collapsed
        line = collapsed.splitlines()[0]
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack or ":" in stack

    def test_top_truncation(self):
        profiler = SamplingProfiler(hz=100)
        profiler.sample_once()
        full = profiler.collapsed()
        top1 = profiler.collapsed(top=1)
        assert len(top1.splitlines()) <= 1
        assert not full or top1.splitlines()[0] == full.splitlines()[0]

    def test_stage_attribution(self):
        assert stage_of("/x/src/repro/dp/flat.py") == "enumerate"
        assert stage_of("/x/src/repro/anyk/flat.py") == "enumerate"
        assert stage_of("/x/src/repro/engine/engine.py") == "engine"
        assert stage_of("/x/src/repro/serve/gateway.py") == "serve"
        assert stage_of("/x/src/repro/backends/foo.py") == "storage"
        assert stage_of("/x/src/repro/obs/trace.py") == "obs"
        assert stage_of("/x/src/repro/util/counters.py") == "other"
        assert stage_of("/usr/lib/python3.11/json/decoder.py") is None

    def test_invalid_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(hz=10)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()


# -- operator views -------------------------------------------------------------


def _fetch_snapshot(*seconds: float) -> dict:
    hist = Histogram(
        "repro_fetch_latency_seconds", buckets=(0.001, 0.002, 0.004, 0.016)
    )
    for value in seconds:
        hist.observe(value)
    return json.loads(json.dumps(hist.snapshot()))


#: A stats document: ``metrics`` keyed by exported name, ``sessions``.
_METRICS_DOC = {
    "metrics": {
        "repro_uptime_seconds": 12.5,
        "repro_dispatched_requests_total": 10,
        "repro_active_requests": 1,
        "repro_policy_admitted_total": 9,
        "repro_policy_throttled_total": 1,
        "repro_policy_denied_auth_total": 0,
        "repro_policy_shed_total": 0,
        "repro_breaker_state": {
            "state=closed": 1, "state=half_open": 0, "state=open": 0,
        },
        "repro_breaker_opened_total": 0,
        "repro_breaker_rejected_total": 0,
        "repro_fetch_latency_seconds": _fetch_snapshot(0.0015, 0.003, 0.012),
        "repro_engine_stream_count": 2,
        "repro_engine_stream_bytes": 4096,
        "repro_engine_core_heap_bytes": 1 << 20,
        "repro_engine_core_mmap_bytes": 0,
        "repro_session_memory_bytes": {"session=s1": 4096},
        "repro_sessions_evicted_total": 0,
        "repro_sessions_expired_total": 0,
        "repro_engine_prepare_hits_total": 3,
    },
    "sessions": {
        "s1": {
            "cursors": {
                "c0": {"query": "Q(x) :- R(x)", "position": 5,
                       "exhausted": False},
            },
            "served": 5,
            "budget": None,
            "idle_seconds": 0.5,
        },
    },
}


class TestOperatorViews:
    def test_render_top_contains_sections(self):
        frame = render_top(_METRICS_DOC)
        assert "repro top — up 12s — requests 10 active 1" in frame
        assert "fetch latency: n=3 p50 3.00ms p95 14.20ms p99 15.64ms" in frame
        assert "s1" in frame
        assert "4.0KiB" in frame
        assert "breaker closed (opened 0, rejected 0)" in frame
        assert "sessions 1 evictions 0" in frame

    def test_render_top_empty_document(self):
        frame = render_top({})
        assert "repro top" in frame
        assert "(no open sessions)" in frame

    def test_debug_html_escapes_and_renders(self):
        doc = json.loads(json.dumps(_METRICS_DOC))
        doc["sessions"]["<evil>"] = {
            "cursors": {}, "served": 0, "budget": None, "idle_seconds": 0,
        }
        page = debug_html(doc)
        assert page.startswith("<!DOCTYPE html>")
        assert "&lt;evil&gt;" in page
        assert "<evil>" not in page
        assert "repro gateway" in page
        # Every metric of the document has a row.
        for name in doc["metrics"]:
            assert f"<td>{name}</td>" in page

    def test_run_top_single_poll(self, monkeypatch):
        from repro.obs import top as top_module

        frames = []
        monkeypatch.setattr(
            top_module, "fetch_metrics",
            lambda url, token=None, timeout=5.0: _METRICS_DOC,
        )
        rendered = top_module.run_top(
            "http://unused/metrics", iterations=2, interval=0.0,
            out=frames.append, sleep=lambda _s: None,
        )
        assert rendered == 2
        assert len(frames) == 2
        assert frames[0].startswith("repro top")
        assert frames[1].startswith("\x1b[2J\x1b[H")

    def test_run_top_reads_the_fetches_since_its_previous_poll(
        self, monkeypatch
    ):
        from repro.obs import top as top_module

        hist = Histogram(
            "repro_fetch_latency_seconds", buckets=(0.001, 0.002, 0.004)
        )

        def poll() -> dict:
            snap = json.loads(json.dumps(hist.snapshot()))
            return {"metrics": {"repro_fetch_latency_seconds": snap}}

        for _ in range(10):
            hist.observe(0.0035)
        polls = [poll()]
        for _ in range(4):
            hist.observe(0.0005)
        polls.append(poll())
        monkeypatch.setattr(
            top_module, "fetch_metrics",
            lambda url, token=None, timeout=5.0: polls.pop(0),
        )
        frames = []
        top_module.run_top(
            "http://unused/metrics", iterations=2, out=frames.append,
            sleep=lambda _s: None, clear=False,
        )
        # First frame: the lifetime.  Second: only the four fast fetches
        # since, while n stays the lifetime count.
        assert "fetch latency: n=10 p50 3.00ms p95 3.90ms" in frames[0]
        assert "fetch latency: n=14 p50 0.50ms p95 0.95ms" in frames[1]
