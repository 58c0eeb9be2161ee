"""Observability layer: tracing, EXPLAIN ANALYZE, exporters, request ids."""

from __future__ import annotations

import http.client
import itertools
import json
import logging
import threading
import time

import pytest

from repro.data.generators import uniform_database
from repro.engine import Engine
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    chrome_trace_events,
    chrome_trace_json,
    current_span,
    delay_profile,
    new_request_id,
    percentile,
    tracer_from_option,
    write_chrome_trace,
)
from repro.query.builders import path_query
from repro.ranking.dioid import MAX_PLUS, TROPICAL
from repro.util.counters import OpCounter

VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]

QUERY = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"


@pytest.fixture(scope="module")
def database():
    return uniform_database(3, 40, domain_size=5, seed=9)


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


# -- tracer core ---------------------------------------------------------------


class TestTracer:
    def test_span_nesting_and_ordering(self):
        tracer = Tracer(sample="always")
        with tracer.span("outer", kind="root") as outer:
            assert current_span() is outer
            with tracer.span("inner.a") as a:
                assert current_span() is a
            with tracer.span("inner.b"):
                pass
        assert current_span() is None
        spans = tracer.spans()
        # Children record before the parent (exit order), one trace id.
        assert [s.name for s in spans] == ["inner.a", "inner.b", "outer"]
        assert len({s.trace_id for s in spans}) == 1
        by_name = {s.name: s for s in spans}
        assert by_name["outer"].parent_id is None
        assert by_name["inner.a"].parent_id == by_name["outer"].span_id
        assert by_name["inner.b"].parent_id == by_name["outer"].span_id
        assert by_name["inner.a"].span_id != by_name["inner.b"].span_id
        assert by_name["outer"].attrs == {"kind": "root"}
        for span in spans:
            assert span.end >= span.start
            assert span.duration >= 0.0

    def test_set_attaches_attrs(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set(items=3, hit=True)
        assert tracer.spans()[0].attrs == {"items": 3, "hit": True}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "RuntimeError"
        assert current_span() is None

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer(capacity=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        stats = tracer.stats()
        assert stats["buffered"] == 4
        assert stats["recorded"] == 10
        assert stats["dropped"] == 6
        # Oldest fell out, newest survive.
        assert [s.name for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)

    def test_sampling_decided_per_root_children_inherit(self):
        rolls = itertools.cycle([0.1, 0.9])
        tracer = Tracer(sample=0.5, rng=lambda: next(rolls))
        with tracer.span("kept"):          # roll 0.1 < 0.5 -> sampled
            with tracer.span("kept.child"):
                pass
        with tracer.span("dropped"):       # roll 0.9 >= 0.5 -> unsampled
            with tracer.span("dropped.child") as child:
                # Unsampled spans still keep the parent chain intact.
                assert child.parent_id is not None
        names = [s.name for s in tracer.spans()]
        assert names == ["kept.child", "kept"]

    def test_drain_clears_buffer(self):
        tracer = Tracer()
        with tracer.span("once"):
            pass
        assert [s.name for s in tracer.drain()] == ["once"]
        assert tracer.spans() == []
        assert tracer.stats()["buffered"] == 0

    def test_thread_spans_start_fresh_roots(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("thread.root") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main.root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker thread must not nest under the main thread's span.
        assert seen["parent"] is None

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.span("anything", k=1) is NULL_SPAN
        with NULL_TRACER.span("x") as span:
            assert span.set(a=1) is NULL_SPAN
            assert span.duration == 0.0
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.stats()["enabled"] is False

    def test_tracer_from_option(self):
        assert tracer_from_option(None) is NULL_TRACER
        assert tracer_from_option("off") is NULL_TRACER
        assert tracer_from_option("0") is NULL_TRACER
        assert tracer_from_option("always").ratio == 1.0
        assert tracer_from_option("0.25").ratio == 0.25
        assert tracer_from_option(0.5).ratio == 0.5
        with pytest.raises(ValueError, match="ratio"):
            tracer_from_option("1.5")
        with pytest.raises(ValueError, match="sample"):
            tracer_from_option("sometimes")

    def test_new_request_id_shape(self):
        one, two = new_request_id(), new_request_id()
        assert one != two
        for rid in (one, two):
            assert len(rid) == 12
            int(rid, 16)  # hex


# -- no-op identity: tracing must never change results or counters -------------


class TestNoOpIdentity:
    @pytest.mark.parametrize("algorithm", VARIANTS)
    def test_results_and_counters_identical(self, database, algorithm):
        plain = Engine(database)
        traced = Engine(database, tracer=Tracer(sample="always"))
        try:
            off = plain.prepare(QUERY, algorithm=algorithm)
            on = traced.prepare(QUERY, algorithm=algorithm)
            assert signature(off.top(40)) == signature(on.top(40))
            counter_off, counter_on = OpCounter(), OpCounter()
            list(
                itertools.islice(
                    off.bind().iter(counter_off, algorithm=algorithm), 40
                )
            )
            list(
                itertools.islice(
                    on.bind().iter(counter_on, algorithm=algorithm), 40
                )
            )
            assert counter_off.as_dict() == counter_on.as_dict()
            assert traced.tracer.spans(), "traced engine recorded no spans"
        finally:
            plain.close()
            traced.close()


# -- engine spans --------------------------------------------------------------


class TestEngineSpans:
    def test_prepare_and_bind_spans(self, database):
        engine = Engine(database, tracer=Tracer(sample="always"))
        try:
            prepared = engine.prepare(QUERY)
            prepared.bind()
            names = {s.name for s in engine.tracer.spans()}
            assert {"engine.prepare", "engine.bind", "tdp.build"} <= names
            # The direct lowering is one pass: no object graph is built,
            # so there is nothing for a separate compile step to lower.
            assert "tdp.compile" not in names
            bind = next(
                s for s in engine.tracer.spans() if s.name == "engine.bind"
            )
            build = next(
                s for s in engine.tracer.spans() if s.name == "tdp.build"
            )
            assert build.parent_id == bind.span_id
            assert build.attrs["states"] > 0
            assert build.attrs["entries"] >= build.attrs["states"]
        finally:
            engine.close()

    def test_object_dioid_bind_has_no_compile_span(self, database):
        from repro.ranking.dioid import BOOLEAN

        engine = Engine(database, tracer=Tracer(sample="always"))
        try:
            engine.prepare(QUERY, dioid=BOOLEAN).bind()
            spans = engine.tracer.spans()
            build = next(s for s in spans if s.name == "tdp.build")
            assert build.attrs["states"] > 0
            assert "entries" not in build.attrs
            assert not any(s.name == "tdp.compile" for s in spans)
        finally:
            engine.close()

    def test_acyclic_build_span_says_how_much_was_scanned_and_how(self):
        """``tdp.build`` carries ``rows`` and ``stages``.

        Why was this bind slow?  Because it scanned that many rows over
        that many stages.
        """
        big = uniform_database(4, 600, domain_size=150, seed=2)
        small = uniform_database(4, 40, domain_size=10, seed=2)
        for data in (big, small):
            engine = Engine(data, tracer=Tracer(sample="always"))
            try:
                prepared = engine.prepare(path_query(4))
                prepared.bind()
                build = next(
                    s for s in engine.tracer.spans() if s.name == "tdp.build"
                )
                rows = sum(len(r) for r in data)
                assert build.attrs["rows"] == rows
                assert build.attrs["stages"] == 4
                assert "vectorized_stages" not in build.attrs
                report = prepared.analyze(3).render()
                assert f"rows={rows}" in report and "stages=4" in report
            finally:
                engine.close()

    def test_cycle_bind_spans_split_bags_from_tdp_build(self):
        from repro.query.builders import cycle_query

        cyclic = uniform_database(4, 60, domain_size=6, seed=11)
        engine = Engine(cyclic, tracer=Tracer(sample="always"))
        try:
            physical = engine.prepare(cycle_query(4)).bind()
            spans = engine.tracer.spans()
            decompose = next(s for s in spans if s.name == "decompose")
            build = next(s for s in spans if s.name == "tdp.build")
            members = len(physical.tasks)
            assert decompose.attrs["members"] == members
            assert decompose.attrs["members_skipped"] == 5 - members
            assert decompose.attrs["scans"] == 4
            assert decompose.attrs["bag_tuples"] == sum(
                len(bag) for task in physical.tasks for bag in task.database
            )
            assert build.attrs["members"] == members
            assert build.attrs["states"] == sum(
                core.stats()["states"] for core in physical.tdps
            )
            assert 0 < build.attrs["states"] <= decompose.attrs["bag_tuples"]
            # Bag tuples read -> alive states, per trace: every bag is a
            # stage of its member, read once.
            assert build.attrs["rows"] == decompose.attrs["bag_tuples"]
            assert build.attrs["stages"] == sum(
                tdp.num_stages for tdp in physical.tdps
            )
            assert build.attrs["connectors"] == sum(
                tdp.num_connectors for tdp in physical.tdps
            )
            # Tropical keeps its lane: every member lowered, one entry
            # per alive state.
            assert build.attrs["lowered"] == members
            assert build.attrs["entries"] == build.attrs["states"]
        finally:
            engine.close()

    def test_a_cycle_union_sized_bind_runs_every_member_stage_on_the_kernel(self):
        """A lowered member reports into the union's ``tdp.build`` as an
        acyclic plan does: the rows and stages of every member."""
        from repro.query.builders import cycle_query
        from repro.ranking.dioid import MAX_TIMES

        cyclic = uniform_database(4, 1_500, domain_size=100, seed=31, weight_high=1.0)
        engine = Engine(cyclic, tracer=Tracer(sample="always"))
        try:
            physical = engine.prepare(cycle_query(4), dioid=MAX_TIMES).bind()
            build = next(s for s in engine.tracer.spans() if s.name == "tdp.build")
            stages = sum(tdp.num_stages for tdp in physical.tdps)
            assert build.attrs["lowered"] == len(physical.tdps) > 0
            assert build.attrs["stages"] == stages
            assert build.attrs["rows"] == sum(
                len(bag) for task in physical.tasks for bag in task.database
            )
            assert "vectorized_stages" not in build.attrs
        finally:
            engine.close()

    def test_a_four_cycle_says_how_its_bags_are_stored(self, monkeypatch):
        """The ``decompose`` span counts the bags built as columns; each
        member line of ``explain()`` and of ``--analyze`` says "bag
        columns", or "bag rows (<why>)"."""
        from repro.query.builders import cycle_query
        from tests.reference.cycle_rows import LAYOUT, use_cycle_rows

        cyclic = uniform_database(4, 60, domain_size=6, seed=11)
        for as_columns in (True, False):
            if not as_columns:
                use_cycle_rows(monkeypatch)
            layout = "bag columns" if as_columns else LAYOUT
            engine = Engine(cyclic, tracer=Tracer(sample="always"))
            try:
                prepared = engine.prepare(cycle_query(4))
                physical = prepared.bind()
                text = prepared.explain()
                report = prepared.analyze(5).render()
                decompose = next(
                    s for s in engine.tracer.spans() if s.name == "decompose"
                )
            finally:
                engine.close()
            bags = sum(len(task.database.relations) for task in physical.tasks)
            assert decompose.attrs["columns"] == (bags if as_columns else 0)
            members = len(physical.tasks)
            assert text.count(f"decomposition: {layout}") == members > 1
            assert "decomposition: bag" not in text.replace(
                f"decomposition: {layout}", ""
            )
            for task in physical.tasks:
                assert f"union member {task.label}: {layout}" in report
            assert f"columns={bags if as_columns else 0}" in report

    def test_union_explain_names_each_members_core(self):
        from repro.query.builders import cycle_query
        from repro.ranking.dioid import MaxTimesDioid

        class CountingMaxTimes(MaxTimesDioid):
            def times(self, a, b):
                return a * b

        cyclic = uniform_database(4, 60, domain_size=6, seed=11)
        for dioid, lowered in ((None, True), (CountingMaxTimes(), False)):
            engine = Engine(cyclic, tracer=Tracer(sample="always"))
            try:
                options = {} if dioid is None else {"dioid": dioid}
                prepared = engine.prepare(cycle_query(4), **options)
                physical = prepared.bind()
                text = prepared.explain()
                build = next(
                    s for s in engine.tracer.spans() if s.name == "tdp.build"
                )
            finally:
                engine.close()
            core_lines = [line for line in text.splitlines() if "core:" in line]
            assert len(core_lines) == len(physical.tasks) > 1
            if lowered:
                for line in core_lines:
                    assert "core: lowered" in line and "entries" in line
                    assert "lanes (a + b, key a) + packed rank" in line
                    assert "chain layout" in line
                assert build.attrs["lowered"] == len(physical.tasks)
            else:
                assert all(
                    line.strip() == "core: object graph "
                    "(CountingMaxTimes overrides times)"
                    for line in core_lines
                )
                assert build.attrs["lowered"] == build.attrs["entries"] == 0

    def test_min_weight_free_region_lowers_in_its_build_span(self, database):
        """The free region is lowered in one pass: no object graph is left
        for a separate compile step."""
        engine = Engine(database, tracer=Tracer(sample="always"))
        try:
            engine.prepare(
                "Q(x1) :- R1(x1, x2), R2(x2, x3)", projection="min_weight"
            ).bind()
            spans = engine.tracer.spans()
            bind = next(s for s in spans if s.name == "engine.bind")
            build = next(s for s in spans if s.name == "tdp.build")
            assert build.parent_id == bind.span_id
            assert build.attrs["projection"] == "min_weight"
            assert build.attrs["rows"] > 0 and build.attrs["stages"] > 0
            assert not any(s.name == "tdp.compile" for s in spans)
        finally:
            engine.close()

    def test_stream_extension_span(self, database):
        engine = Engine(database, tracer=Tracer(sample="always"))
        try:
            engine.prepare(QUERY).top(5)
            extend = [
                s for s in engine.tracer.spans() if s.name == "stream.extend"
            ]
            assert extend
            assert extend[-1].attrs["produced"] >= 5
        finally:
            engine.close()

    def test_trace_stats_and_explain_say_where_answers_are_decoded(self, database):
        """In-process rows decode on read; a plan that keeps the hop (here
        the object-graph family) decodes while the stream extends."""
        from repro.ranking.dioid import BOOLEAN, TROPICAL

        engine = Engine(database, tracer=Tracer(sample="always"))
        try:
            for dioid, decode, line in (
                (TROPICAL, "on_read", "answers: decoded on read"),
                (
                    BOOLEAN, "at_extension",
                    "answers: decoded at extension (object-graph enumerators)",
                ),
            ):
                prepared = engine.prepare(QUERY, dioid=dioid)
                assert prepared.stream().stats()["decode"] is None
                before = len(engine.tracer.spans())
                prepared.top(5)
                spans = engine.tracer.spans()[before:]
                assert [s.name for s in spans] == ["stream.extend"]
                assert spans[0].attrs["decode"] == decode
                assert prepared.stream().stats()["decode"] == decode
                assert f"  {line}" in prepared.explain().splitlines()
        finally:
            engine.close()

    def test_core_cache_hit_span(self, tmp_path, database):
        from repro.data.backend import SQLiteBackend

        path = str(tmp_path / "obs.db")
        backend = SQLiteBackend(path)
        for relation in database:
            backend.ingest(relation)
        backend.close()
        query = path_query(3)
        # Cold engine writes the core...
        cold = Engine.from_backend(SQLiteBackend(path), core_cache="on")
        cold.prepare(query).bind()
        cold.close()
        # ...warm engine's bind must trace a core-cache hit.
        warm = Engine.from_backend(
            SQLiteBackend(path), core_cache="on",
            tracer=Tracer(sample="always"),
        )
        try:
            warm.prepare(query).bind()
            load = [
                s for s in warm.tracer.spans() if s.name == "core.load"
            ]
            assert load and load[-1].attrs["hit"] is True
            assert not any(
                s.name == "tdp.build" for s in warm.tracer.spans()
            )
        finally:
            warm.close()


# -- EXPLAIN ANALYZE -----------------------------------------------------------


class TestAnalyze:
    @pytest.mark.parametrize("algorithm", VARIANTS)
    @pytest.mark.parametrize(
        "dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"]
    )
    def test_analyze_all_variants(self, database, algorithm, dioid):
        engine = Engine(database)
        try:
            prepared = engine.prepare(QUERY, algorithm=algorithm, dioid=dioid)
            report = prepared.analyze(12)
            assert report.algorithm == algorithm
            assert 0 < report.produced <= 12
            assert report.total_ms >= report.bind_ms >= 0.0
            assert report.stages, "no stage tree recorded"
            stage_names = set()

            def walk(nodes):
                for node in nodes:
                    stage_names.add(node.name)
                    walk(node.children)

            walk(report.stages)
            assert {"analyze", "bind", "enumerate"} <= stage_names
            delay = report.delay
            assert delay["produced"] == report.produced
            assert delay["ttk_ms"] >= delay["ttf_ms"] >= 0.0
            assert delay["delay_max_us"] >= delay["delay_p50_us"]
            assert sum(report.counters.values()) > 0
            text = report.render()
            assert text.startswith("EXPLAIN ANALYZE")
            assert "delay profile" in text
            assert algorithm in text
            as_dict = report.as_dict()
            assert as_dict["produced"] == report.produced
            assert as_dict["stages"][0]["name"] == report.stages[0].name
        finally:
            engine.close()

    def test_analyze_reports_compiled_core(self, database):
        engine = Engine(database)
        try:
            report = engine.prepare(QUERY).analyze(5)
            assert report.core is not None
            assert report.core["entries"] > 0
        finally:
            engine.close()

    def test_analyze_spans_land_in_caller_tracer(self, database):
        engine = Engine(database)
        tracer = Tracer(sample="always")
        try:
            engine.prepare(QUERY).analyze(5, tracer=tracer)
            assert any(s.name == "analyze" for s in tracer.spans())
        finally:
            engine.close()

    def test_analyze_rejects_negative_k(self, database):
        engine = Engine(database)
        try:
            with pytest.raises(ValueError, match="non-negative"):
                engine.prepare(QUERY).analyze(-1)
        finally:
            engine.close()

    def test_analyze_k_zero_yields_empty_profile(self, database):
        engine = Engine(database)
        try:
            report = engine.prepare(QUERY).analyze(0)
            assert report.produced == 0
            assert report.delay["ttf_ms"] == 0.0
        finally:
            engine.close()


# -- exporters -----------------------------------------------------------------


class TestExporters:
    def test_chrome_trace_events_shape(self):
        tracer = Tracer(sample="always")
        with tracer.span("outer", query="Q"):
            with tracer.span("inner"):
                pass
        events = chrome_trace_events(tracer.spans())
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for event in complete:
            assert event["pid"] == 1
            assert event["dur"] >= 0
            assert "trace_id" in event["args"]
        outer = next(e for e in complete if e["name"] == "outer")
        assert outer["args"]["query"] == "Q"
        assert outer["cat"] == "outer"
        inner = next(e for e in complete if e["name"] == "inner")
        assert inner["cat"] == "inner"
        # The document round-trips through JSON.
        parsed = json.loads(chrome_trace_json(tracer.spans()))
        assert len(parsed["traceEvents"]) == len(events)

    def test_write_chrome_trace(self, tmp_path):
        tracer = Tracer(sample="always")
        with tracer.span("alpha"):
            pass
        out = tmp_path / "trace.json"
        count = write_chrome_trace(str(out), tracer)
        assert count == 2  # metadata + one span
        document = json.loads(out.read_text())
        assert any(
            e["name"] == "alpha" for e in document["traceEvents"]
        )

    def test_chrome_trace_stable_small_tids(self):
        tracer = Tracer(sample="always")
        with tracer.span("solo"):
            pass
        done = threading.Event()

        def other():
            with tracer.span("worker"):
                done.set()

        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        assert done.is_set()
        events = chrome_trace_events(tracer.spans())
        span_events = [e for e in events if e["ph"] == "X"]
        tids = {e["tid"] for e in span_events}
        # Two threads -> two small per-thread ids, disjoint from the
        # metadata row's tid 0, regardless of the native idents.
        assert len(tids) == 2
        assert all(0 < tid <= len(span_events) for tid in tids)


# -- shared latency implementation --------------------------------------------


class TestLatencySharing:
    def test_runner_reexports_the_obs_implementation(self):
        from repro.experiments import runner

        assert runner.percentile is percentile

    def test_delay_profile_values(self):
        profile = delay_profile([0.001, 0.0005, 0.002])
        assert profile["produced"] == 3
        assert profile["ttf_ms"] == 1.0
        assert profile["ttk_ms"] == 3.5
        assert profile["delay_max_us"] == 2000.0
        empty = delay_profile([])
        assert empty["produced"] == 0
        assert empty["ttf_ms"] == 0.0


# -- gateway: negotiation, request ids, spans ----------------------------------


@pytest.fixture(scope="module")
def traced_engine(database):
    engine = Engine(database, tracer=Tracer(sample="always"))
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def gateway(traced_engine):
    from repro.serve import GatewayThread

    with GatewayThread(traced_engine, slice_size=8) as address:
        yield address


def http_request(address, method, path, headers=None, body=None):
    conn = http.client.HTTPConnection(*address)
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    payload = response.read()
    conn.close()
    return response, payload


class TestGatewayObservability:
    def test_metrics_defaults_to_json(self, gateway):
        response, payload = http_request(gateway, "GET", "/metrics")
        assert response.status == 200
        assert "application/json" in response.getheader("Content-Type")
        metrics = json.loads(payload)
        assert "tracing" in metrics
        assert metrics["tracing"]["enabled"] is True

    def test_metrics_prometheus_negotiation(self, gateway):
        response, payload = http_request(
            gateway, "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert response.status == 200
        content_type = response.getheader("Content-Type")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        text = payload.decode("utf-8")
        assert "# TYPE repro_gateway_http_requests_total counter" in text
        assert "repro_tracing_recorded" in text

    def test_metrics_prometheus_is_valid_exposition(self, gateway):
        from repro.obs.metrics import validate_exposition

        # Exercise a fetch first so the latency histogram has samples.
        response, payload = http_request(
            gateway, "POST", "/v1/prepare",
            body=json.dumps({"session": "obsval", "query": QUERY}),
            headers={"Content-Type": "application/json"},
        )
        assert response.status == 200, payload
        cursor = json.loads(payload)["cursor"]
        response, payload = http_request(
            gateway, "POST", "/v1/fetch",
            body=json.dumps(
                {"session": "obsval", "cursor": cursor, "n": 3}
            ),
            headers={"Content-Type": "application/json"},
        )
        assert response.status == 200, payload
        _response, payload = http_request(
            gateway, "GET", "/metrics?format=prometheus"
        )
        text = payload.decode("utf-8")
        assert validate_exposition(text) == []
        assert "# TYPE repro_fetch_latency_seconds histogram" in text
        assert 'repro_fetch_latency_seconds_bucket{le="' in text
        assert 'le="+Inf"' in text
        assert "# TYPE repro_session_memory_bytes gauge" in text
        assert 'repro_session_memory_bytes{session="obsval"}' in text
        assert "repro_engine_stream_bytes" in text
        assert "repro_engine_core_heap_bytes" in text

    def test_metrics_json_fetch_latency_is_the_histograms(self, gateway):
        from repro.obs.latency import latency_summary

        _response, payload = http_request(gateway, "GET", "/metrics")
        latency = json.loads(payload)["latency"]
        assert latency["fetch"] == latency_summary(latency["fetch_histogram"])

    def test_debug_page(self, gateway):
        response, payload = http_request(gateway, "GET", "/debug")
        assert response.status == 200
        assert "text/html" in response.getheader("Content-Type")
        text = payload.decode("utf-8")
        assert "<h1>repro gateway</h1>" in text
        assert "uptime_seconds" in text

    def test_metrics_json_memory_section(self, gateway):
        _response, payload = http_request(gateway, "GET", "/metrics")
        metrics = json.loads(payload)
        memory = metrics["memory"]
        for key in ("stream_count", "stream_bytes", "core_heap_bytes",
                    "core_mmap_bytes", "session_bytes"):
            assert key in memory
        assert isinstance(metrics["sessions"]["detail"], dict)

    def test_metrics_prometheus_query_param(self, gateway):
        response, payload = http_request(
            gateway, "GET", "/metrics?format=prometheus"
        )
        assert response.status == 200
        assert payload.decode("utf-8").startswith("# TYPE repro_")

    def test_request_id_echoed(self, gateway):
        response, _payload = http_request(
            gateway, "GET", "/healthz",
            headers={"X-Request-Id": "fixed-id-0001"},
        )
        assert response.getheader("X-Request-Id") == "fixed-id-0001"

    def test_request_id_generated_when_absent(self, gateway):
        response, _payload = http_request(gateway, "GET", "/healthz")
        generated = response.getheader("X-Request-Id")
        assert generated
        assert len(generated) == 12
        int(generated, 16)

    def test_access_log_carries_request_id_and_duration(self, gateway):
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.serve.gateway")
        handler = Capture()
        old_level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(handler)
        try:
            http_request(
                gateway, "GET", "/healthz",
                headers={"X-Request-Id": "log-probe-001"},
            )
            # The access-log line is emitted after the response bytes
            # flush, so the client can observe the reply first.
            deadline = time.time() + 5.0
            while not records and time.time() < deadline:
                time.sleep(0.01)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        lines = [json.loads(text) for text in records]
        probe = [l for l in lines if l.get("request_id") == "log-probe-001"]
        assert probe, f"no access-log line with the probe id: {lines}"
        assert probe[0]["path"] == "/healthz"
        assert probe[0]["status"] == 200
        assert probe[0]["ms"] >= 0.0

    def test_http_dispatch_roots_span_with_request_id(
        self, gateway, traced_engine
    ):
        traced_engine.tracer.clear()
        response, payload = http_request(
            gateway, "POST", "/v1/prepare",
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": "span-probe-01",
            },
            body=json.dumps({"session": "obs", "query": QUERY}).encode(),
        )
        assert response.status == 200
        cursor = json.loads(payload)["cursor"]
        http_request(
            gateway, "POST", "/v1/fetch",
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": "span-probe-02",
            },
            body=json.dumps(
                {"session": "obs", "cursor": cursor, "n": 5}
            ).encode(),
        )
        spans = traced_engine.tracer.spans()
        roots = [s for s in spans if s.name == "gateway.request"]
        assert {"span-probe-01", "span-probe-02"} <= {
            s.attrs["request_id"] for s in roots
        }
        fetch_root = next(
            s for s in roots if s.attrs["request_id"] == "span-probe-02"
        )
        # The session fetch nests in the same trace as the edge span.
        fetches = [
            s for s in spans
            if s.name == "session.fetch"
            and s.trace_id == fetch_root.trace_id
        ]
        assert fetches and fetches[0].attrs["served"] == 5


class TestTcpObservability:
    def test_tcp_request_span_carries_request_id(self, traced_engine):
        from repro.serve import ServeClient, ServerThread

        traced_engine.tracer.clear()
        with ServerThread(traced_engine) as address:
            client = ServeClient(*address)
            assert client.request(
                {"op": "ping", "request_id": "tcp-probe-77"}
            )["ok"]
            cursor = client.prepare("tcpobs", QUERY)["cursor"]
            client.fetch("tcpobs", cursor, 4)
            client.close()
        spans = traced_engine.tracer.spans()
        server_spans = [s for s in spans if s.name == "server.request"]
        assert any(
            s.attrs.get("request_id") == "tcp-probe-77" for s in server_spans
        )
        fetch_span = next(
            s for s in server_spans if s.attrs.get("op") == "fetch"
        )
        nested = [
            s for s in spans
            if s.name == "session.fetch" and s.trace_id == fetch_span.trace_id
        ]
        assert nested and nested[0].attrs["served"] == 4


class TestWsObservability:
    def test_ws_message_span_carries_request_id(self, gateway, traced_engine):
        from tests.test_gateway import _SyncWsClient

        traced_engine.tracer.clear()
        ws = _SyncWsClient(*gateway)
        assert ws.status == 101
        ws.send({"op": "ping", "request_id": "ws-probe-55"})
        assert ws.recv()["ok"]
        ws.close()

        def probe_spans():
            return [
                s
                for s in traced_engine.tracer.spans()
                if s.name == "gateway.ws"
                and s.attrs.get("request_id") == "ws-probe-55"
            ]

        # The span records on exit, just after the reply bytes flush, so
        # the client can observe the pong before the span lands.
        deadline = time.time() + 5.0
        while not probe_spans() and time.time() < deadline:
            time.sleep(0.01)
        spans = probe_spans()
        assert spans, "no gateway.ws span with the probe request id"
        assert spans[0].attrs.get("op") == "ping"


# -- CLI -----------------------------------------------------------------------


class TestCli:
    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory, database):
        from repro.data.io import save_database

        path = tmp_path_factory.mktemp("obsdata")
        save_database(database, str(path))
        return str(path)

    def test_explain_analyze_cli(self, data_dir, capsys):
        from repro.cli import main

        assert main(["explain", data_dir, QUERY, "--analyze", "5"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "delay profile" in out

    def test_trace_cli_writes_perfetto_file(self, data_dir, tmp_path, capsys):
        from repro.cli import main

        out_path = str(tmp_path / "cli_trace.json")
        assert main(
            ["trace", data_dir, QUERY, "--top", "5", "--out", out_path,
             "--analyze"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in stdout
        assert "trace events" in stdout
        document = json.loads(open(out_path).read())
        names = {e["name"] for e in document["traceEvents"]}
        assert {"analyze", "enumerate", "engine.bind"} <= names

    def test_serve_trace_sample_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "somewhere", "--trace-sample", "0.5"]
        )
        assert args.trace_sample == "0.5"
