"""The traced run: what each layer charges, measured from outside.

Fixed work on fixed-size inputs (counts repeat exactly for a seed), in
five groups:

* **preprocessing** on ``cold_bind`` inputs — each step from query text
  to a bound plan, per backend and per build path;
* **enumerators** — ``make_enumerator`` drained directly, no layer above;
* **hop ladder** (extension) — the same 20k answers pulled through one
  more layer per hop, each hop as a ratio of the hop below;
* **replay ladder** — a memoized prefix served through the session
  manager, the dispatcher, and the three transports of a server child;
* **observability** — what the program's tracer (beside the cursor hop)
  and a metrics scrape (against the server child) cost.

The in-process ladders run in rounds, alternately with and without the
benchmark's own spans; the difference is ``bench.trace_overhead_pct``.
Every hop's output is checked against the independent reference.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import replace
from itertools import islice
from typing import Any, Callable, Sequence

from repro.anyk import UnionEnumerator
from repro.anyk.base import make_enumerator
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.dp.builder import build_tdp_for_query
from repro.dp.flat import compile_tdp
from repro.engine import Engine, PrefixStream, plan
from repro.obs.trace import Tracer
from repro.query import parse_query
from repro.ranking.dioid import TROPICAL
from repro.serve import SessionManager, protocol
from repro.serve.server import OpDispatcher
from repro.util.counters import OpCounter

from benchmarks.e2e.inputs import (
    PATH4_TEXT,
    Reference,
    Row,
    database_for,
    dioid_for,
    independent_reference,
    query_for,
    result_rows,
    wire_form,
    wire_result_rows,
)
from benchmarks.e2e.server_child import TOKEN
from benchmarks.e2e.spans import SpanRecorder
from benchmarks.e2e.speed import SpeedMeter
from benchmarks.e2e.spec import HOPS, PER_LAYER, WORKLOAD_BY_NAME, Workload
from benchmarks.e2e.workloads import (
    SCRATCH_PARENT,
    Caller,
    ExtendCaller,
    RequestRecord,
    ServedCaller,
    ServerFixture,
    at_reference_speed,
    ingest_sqlite,
    percentile,
    run_request,
)

#: Rounds of the in-process ladders; the first records spans, the second
#: does not.  Sized, like the repeats below, so that a full ladder stays
#: near 40 s: the driver's budget covers ~14 traced runs of that length.
ROUNDS = 2
#: Repeats of each direct-enumerator and preprocessing measurement.
REPEATS = 2
#: Requests per transport against the server child.
SERVED_REQUESTS = 15


class Ladder:
    """Accumulates metric values and the checked/failed call counts."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.meter = SpeedMeter()
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, reference: Reference, rows: Sequence[Row]) -> None:
        """Count one checked output; a mismatch is a failed operation."""
        self.attempted += 1
        if len(rows) != reference.k or not reference.checker().page_matches(
            0, rows
        ):
            self.failed += 1

    def timed(self, name: str, fn: Callable[[], Any]) -> tuple[float, Any]:
        """Seconds ``fn`` took at reference speed, and what it returned.

        Runs under a span, after an untimed collection; the speed is
        sampled before the call and, when it was long enough for the
        machine to have changed, after it.
        """
        self.meter.sample(force=False)
        gc.collect()
        with self.recorder.span(name):
            start = time.perf_counter()
            out = fn()
            end = time.perf_counter()
        self.meter.sample(force=False)
        return (end - start) / self.meter.factor(start, end), out

    def request(
        self, caller: Caller, workload: Workload, reference: Reference | None
    ) -> RequestRecord:
        """One checked request at reference speed, counted into the totals."""
        caller.between_requests()
        self.meter.sample(force=False)
        gc.collect()
        record = run_request(
            caller, workload.k, workload.page,
            reference.checker() if reference else None,
        )
        self.meter.sample(force=False)
        at_reference_speed(record, self.meter.factor(record.started, record.ended))
        self.attempted += record.calls
        self.failed += record.failed
        return record

    def best_ms(self, metric: str, fn: Callable[[], Any]) -> Any:
        """Best of ``REPEATS`` times of ``fn`` in ms as ``metric``.

        Best-of, not median: two repeats are what the ladder's time
        allows, and the first often pays a one-off (an import, a lazily
        built structure) that is not the layer's cost.  Returns what the
        last call returned.
        """
        samples = []
        out = None
        for _ in range(REPEATS):
            elapsed, out = self.timed(metric, fn)
            samples.append(elapsed * 1e3)
        self.values[metric] = min(samples)
        return out


# -- preprocessing -------------------------------------------------------------


def preprocessing(ladder: Ladder, seed: int, smoke: bool) -> None:
    """Each step from query text to a bound plan, on ``cold_bind`` inputs."""
    cold = WORKLOAD_BY_NAME["cold_bind"]
    cycle = WORKLOAD_BY_NAME["cycle_union"]
    if smoke:
        cold, cycle = cold.smoke(), cycle.smoke()
    database = ladder.best_ms(
        "data.generate_ms", lambda: database_for(cold, seed)
    )
    query = query_for("path")

    def per_call_us(metric: str, fn: Callable[[], Any], calls: int = 200) -> None:
        elapsed, _ = ladder.timed(metric, lambda: [fn() for _ in range(calls)])
        ladder.values[metric] = elapsed * 1e6 / calls

    per_call_us("query.parse_us", lambda: parse_query(PATH4_TEXT))
    per_call_us(
        "engine.plan.plan_us",
        lambda: plan(query, dioid=TROPICAL, algorithm="take2"),
    )

    builds, compiles = [], []
    compiled = None
    for _ in range(REPEATS):
        elapsed, tdp = ladder.timed(
            "dp.builder.build_ms",
            lambda: build_tdp_for_query(database, query, dioid=TROPICAL),
        )
        builds.append(elapsed * 1e3)
        elapsed, compiled = ladder.timed(
            "dp.flat.compile_ms", lambda: compile_tdp(tdp)
        )
        compiles.append(elapsed * 1e3)
    ladder.values["dp.builder.build_ms"] = min(builds)
    ladder.values["dp.flat.compile_ms"] = min(compiles)
    ladder.values["dp.flat.core_bytes"] = compiled.memory_bytes()
    del tdp, compiled

    def memory_bind(**options: Any) -> None:
        with Engine(database, core_cache="off") as engine:
            engine.prepare(query, algorithm="take2", **options).bind()

    ladder.best_ms("engine.bind_ms", memory_bind)
    ladder.best_ms(
        "parallel.build.bind_shards1_ms", lambda: memory_bind(shards=1)
    )
    ladder.best_ms(
        "parallel.build.bind_shards4_ms", lambda: memory_bind(shards=4)
    )

    SCRATCH_PARENT.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ladder-", dir=SCRATCH_PARENT)
    try:
        db_path = os.path.join(scratch, "inputs.db")
        core_path = db_path + ".core"

        def ingest() -> None:
            if os.path.exists(db_path):
                os.remove(db_path)
            ingest_sqlite(database, db_path)

        def sqlite_bind(core_cache: str) -> dict:
            with Engine.from_backend(
                SQLiteBackend(db_path), core_cache=core_cache
            ) as engine:
                engine.prepare(query, algorithm="take2").bind()
                return {
                    "hits": engine.stats.core_hits,
                    "writes": engine.stats.core_writes,
                }

        def cold_core_bind() -> dict:
            if os.path.exists(core_path):
                os.remove(core_path)
            return sqlite_bind("auto")

        ladder.best_ms("data.backend.sqlite_ingest_ms", ingest)
        ladder.best_ms("data.backend.sqlite_bind_ms", lambda: sqlite_bind("off"))
        stats = ladder.best_ms("dp.corebuf.cold_bind_ms", cold_core_bind)
        ladder.attempted += 1
        ladder.failed += stats != {"hits": 0, "writes": 1}
        stats = ladder.best_ms(
            "dp.corebuf.warm_bind_ms", lambda: sqlite_bind("auto")
        )
        ladder.attempted += 1
        ladder.failed += stats != {"hits": 1, "writes": 0}
        ladder.values["dp.corebuf.core_file_bytes"] = os.path.getsize(core_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    cycle_database = database_for(cycle, seed)

    def cycle_bind() -> None:
        with Engine(cycle_database, core_cache="off") as engine:
            engine.prepare(
                query_for("cycle"), dioid=dioid_for(cycle), algorithm="take2"
            ).bind()

    ladder.best_ms("decomposition.cycle_bind_ms", cycle_bind)


# -- enumerators ---------------------------------------------------------------


def _drain(ladder: Ladder, name: str, make: Callable[[], Any], k: int) -> list:
    """Best answers/s of draining ``k`` answers from ``make()``."""
    rates = []
    results: list = []
    for _ in range(REPEATS):
        elapsed, results = ladder.timed(name, lambda: list(islice(make(), k)))
        rates.append(len(results) / elapsed)
    ladder.values[name] = max(rates)
    return results


def _ranked_rows(results: Sequence) -> list[Row]:
    return [(result.weight, result.output_tuple()) for result in results]


def enumerators(
    ladder: Ladder,
    extend: Workload,
    database: Database,
    reference: Reference,
    seed: int,
    smoke: bool,
) -> None:
    """``make_enumerator`` drained directly: the paper's own measurement."""
    k = extend.k
    tdp = build_tdp_for_query(database, query_for("path"), dioid=TROPICAL)
    compile_tdp(tdp)
    for variant in ("take2", "lazy", "eager", "all", "recursive"):
        results = _drain(
            ladder,
            f"anyk.flat.{variant}.path4.answers_per_s",
            lambda: make_enumerator(tdp, variant),
            k,
        )
        ladder.check(reference, _ranked_rows(results))
    results = _drain(
        ladder,
        "anyk.object.take2.path4.answers_per_s",
        lambda: make_enumerator(tdp, "take2", flat=False),
        k,
    )
    ladder.check(reference, _ranked_rows(results))

    # TTF and per-answer delay: one clock read per answer, so its own runs.
    ttfs, delays = [], []
    for _ in range(REPEATS):
        stamps: list[float] = []

        def stamped() -> None:
            clock = time.perf_counter
            stamps.append(clock())
            for _result in islice(make_enumerator(tdp, "take2"), k):
                stamps.append(clock())

        ladder.timed("anyk.flat.take2.path4.delays", stamped)
        factor = ladder.meter.factor(stamps[0], stamps[-1])
        gaps = [(b - a) / factor for a, b in zip(stamps, stamps[1:])]
        ttfs.append(gaps[0])
        delays.extend(gaps)
    prefix = "anyk.flat.take2.path4."
    ladder.values[prefix + "ttf_us"] = min(ttfs) * 1e6
    ladder.values[prefix + "delay_p50_us"] = statistics.median(delays) * 1e6
    ladder.values[prefix + "delay_p99_us"] = percentile(delays, 99) * 1e6

    for variant in ("take2", "recursive"):
        counter = OpCounter()
        produced = len(
            list(islice(make_enumerator(tdp, variant, counter=counter), k))
        )
        ladder.values[f"anyk.flat.{variant}.path4.pq_ops_per_answer"] = (
            counter.total_pq_ops() / produced
        )
    del tdp

    star = replace(extend, shape="star")
    star_reference = independent_reference(star, database, k)
    star_tdp = build_tdp_for_query(database, query_for("star"), dioid=TROPICAL)
    compile_tdp(star_tdp)
    for variant in ("take2", "recursive"):
        results = _drain(
            ladder,
            f"anyk.flat.{variant}.star4.answers_per_s",
            lambda: make_enumerator(star_tdp, variant),
            k,
        )
        ladder.check(star_reference, _ranked_rows(results))
    del star_tdp, star_reference

    cycle = WORKLOAD_BY_NAME["cycle_union"]
    if smoke:
        cycle = cycle.smoke()
    cycle_database = database_for(cycle, seed)
    cycle_reference = independent_reference(cycle, cycle_database, cycle.k)
    with Engine(cycle_database, core_cache="off") as engine:
        prepared = engine.prepare(
            query_for("cycle"), dioid=dioid_for(cycle), algorithm="take2"
        )
        physical = prepared.bind()
        head = prepared.query.head

        def union() -> UnionEnumerator:
            return UnionEnumerator(
                [make_enumerator(member, "take2") for member in physical.tdps],
                identity=lambda r: (r.key, r.output_tuple(head)),
                dedup=physical.dedup,
            )

        results = _drain(
            ladder, "anyk.merge.cycle4.answers_per_s", union, cycle.k
        )
        ladder.check(
            cycle_reference,
            [
                (physical.tie.base_value(r.weight), r.output_tuple(head))
                for r in results
            ],
        )


# -- callers for the upper hops -------------------------------------------------


class StreamCaller(Caller):
    """``PrefixStream.slice`` page by page: extension when ``fresh``, else
    a replay of the stream the last fresh request filled."""

    def __init__(self, prepared, fresh: bool, shared: dict):
        self.prepared = prepared
        self.fresh = fresh
        #: Holds the stream for the replay caller built over the same dict.
        self.shared = shared
        self._position = 0

    def open(self) -> None:
        if self.fresh:
            physical = self.prepared.bind()
            self.shared["stream"] = PrefixStream(
                lambda counter: physical.iter(counter, algorithm="take2")
            )
        self._position = 0

    def fetch(self, n: int) -> Sequence:
        page = self.shared["stream"].slice(self._position, self._position + n)
        self._position += len(page)
        return page

    def release(self) -> None:
        return None


class SessionCaller(Caller):
    """``SessionManager.open_cursor`` / ``fetch`` / ``close_session``."""

    def __init__(self, manager: SessionManager, prepared, rebind: bool):
        self.manager = manager
        self.prepared = prepared
        self.rebind = rebind
        self.slices = 0
        self.pages = 0
        self._cursor = ""

    def between_requests(self) -> None:
        if self.rebind:
            self.prepared.invalidate()
            self.prepared.bind()

    def open(self) -> None:
        _, self._cursor = self.manager.open_cursor(
            "ladder", PATH4_TEXT, algorithm="take2"
        )

    def fetch(self, n: int) -> Sequence:
        outcome = self.manager.fetch("ladder", self._cursor, n)
        self.slices += outcome.slices
        self.pages += 1
        return outcome.results

    def release(self) -> None:
        self.manager.close_session("ladder")


class _CollectingWriter:
    """What ``OpDispatcher.dispatch`` writes to: lines kept, nothing sent."""

    def __init__(self) -> None:
        self.lines: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.lines.append(data)

    async def drain(self) -> None:
        return None

    def is_closing(self) -> bool:
        return False


class DispatchCaller(Caller):
    """In-process ``OpDispatcher.dispatch``: encode included, no socket.

    Each call runs the coroutine to completion on a private event loop,
    so the figure carries one ``run_until_complete`` per page.
    """

    def __init__(self, manager: SessionManager, head: Sequence[str]):
        self.dispatcher = OpDispatcher(manager)
        self.head = head
        self.loop = asyncio.new_event_loop()
        self.errors = 0
        self._cursor = ""

    def _dispatch(self, request: dict) -> list[bytes]:
        writer = _CollectingWriter()
        self.loop.run_until_complete(self.dispatcher.dispatch(request, writer))
        return writer.lines

    def _final(self, lines: list[bytes]) -> dict:
        message = protocol.decode(lines[-1])
        if not message.get("ok", False):
            self.errors += 1
            raise RuntimeError(f"dispatch failed: {message}")
        return message

    def open(self) -> None:
        lines = self._dispatch(
            {"op": "prepare", "session": "dispatch", "query": PATH4_TEXT,
             "algorithm": "take2"}
        )
        self._cursor = self._final(lines)["cursor"]

    def fetch(self, n: int) -> Sequence:
        lines = self._dispatch(
            {"op": "fetch", "session": "dispatch", "cursor": self._cursor, "n": n}
        )
        self._final(lines)
        return lines[:-1]

    def release(self) -> None:
        self._final(self._dispatch({"op": "close", "session": "dispatch"}))

    def rows(self, page: Sequence) -> list[Row]:
        return wire_result_rows(
            [protocol.decode(line)["result"] for line in page], self.head
        )

    def close(self) -> None:
        self.loop.close()


class TracedCaller(Caller):
    """Wraps every call into a layer in a span named after the layer."""

    def __init__(self, inner: Caller, recorder: SpanRecorder, layer: str):
        self.inner = inner
        self.recorder = recorder
        self.layer = layer
        self.request = 0
        self.collect_between_requests = inner.collect_between_requests

    def between_requests(self) -> None:
        self.request += 1
        self.inner.between_requests()

    def open(self) -> None:
        with self.recorder.span(self.layer + ".open", self.request):
            self.inner.open()

    def fetch(self, n: int) -> Sequence:
        with self.recorder.span(self.layer + ".fetch", self.request):
            return self.inner.fetch(n)

    def release(self) -> None:
        with self.recorder.span(self.layer + ".release", self.request):
            self.inner.release()

    def rows(self, page: Sequence) -> list[Row]:
        return self.inner.rows(page)

    def matches_wire(self, start: int, page: Sequence) -> bool:
        return self.inner.matches_wire(start, page)

    def close(self) -> None:
        self.inner.close()


# -- hop and replay ladders ------------------------------------------------------


def in_process_ladders(
    ladder: Ladder, extend: Workload, database: Database, reference: Reference
) -> None:
    """Extension hops, then replay hops, ``ROUNDS`` times over one engine."""
    recorder = ladder.recorder
    k = extend.k
    rates: dict[str, list[float]] = {}
    #: Measured seconds per round kind: [spans off, spans on].
    measured = [0.0, 0.0]

    def note(metric: str, answers: int, elapsed: float) -> None:
        rates.setdefault(metric, []).append(answers / elapsed)
        measured[recorder.enabled] += elapsed

    def hop(metric: str, layer: str, pull: Callable[[], Sequence]) -> None:
        elapsed, results = ladder.timed(layer, pull)
        note(metric, len(results), elapsed)
        ladder.check(reference, result_rows(results))

    cursor_hop = ExtendCaller(extend, database)
    # The session manager prepares from PATH4_TEXT, whose fingerprint is
    # the query object's: every hop shares this one prepared query.
    engine, prepared = cursor_hop.engine, cursor_hop.prepared
    streams: dict = {}
    stream_hop = StreamCaller(prepared, True, streams)
    stream_replay = StreamCaller(prepared, False, streams)
    manager = SessionManager(engine)
    session_hop = SessionCaller(manager, prepared, rebind=True)
    session_replay = SessionCaller(manager, prepared, rebind=False)
    dispatch = DispatchCaller(manager, prepared.query.head)
    # The program's own tracer, always sampling, on a second engine: the
    # cursor hop again, so each round pairs it with the default next to it.
    tracer = Tracer(sample="always")
    traced_engine_hop = ExtendCaller(extend, database, tracer=tracer)
    cursor_s: dict[bool, list[float]] = {False: [], True: []}
    try:
        for round_index in range(ROUNDS):
            recorder.enabled = round_index % 2 == 0
            hop("engine.iter.answers_per_s", "engine.iter",
                lambda: list(islice(prepared.iter(), k)))
            physical = prepared.bind()
            stream = PrefixStream(
                lambda counter: physical.iter(counter, algorithm="take2")
            )
            hop("engine.stream.extend_answers_per_s", "engine.stream.extend",
                lambda: stream.prefix(k))
            ladder.values["engine.stream.bytes_per_answer"] = (
                stream.memory_bytes() / stream.produced
            )
            del stream

            for metric, caller, layer in (
                ("engine.stream.paged_answers_per_s", stream_hop,
                 "engine.stream.paged"),
                ("engine.stream.replay_answers_per_s", stream_replay,
                 "engine.stream.replay"),
                ("serve.cursor.answers_per_s", cursor_hop, "serve.cursor"),
                ("serve.session.answers_per_s", session_hop, "serve.session"),
                ("serve.session.replay_answers_per_s", session_replay,
                 "serve.session.replay"),
                ("serve.server.dispatch_answers_per_s", dispatch,
                 "serve.server.dispatch"),
            ):
                traced = TracedCaller(caller, recorder, layer)
                traced.request = round_index
                record = ladder.request(traced, extend, reference)
                if record.ttk:
                    note(metric, k, record.ttk)
                if caller is cursor_hop:
                    with_tracer = ladder.request(
                        traced_engine_hop, extend, reference
                    )
                    if record.ttk and with_tracer.ttk:
                        cursor_s[False].append(record.ttk)
                        cursor_s[True].append(with_tracer.ttk)
        recorder.enabled = True

        for metric, samples in rates.items():
            ladder.values[metric] = statistics.median(samples)
        ladder.values["serve.session.slices_per_page"] = (
            session_hop.slices / session_hop.pages
        )
        ladder.values["bench.trace_overhead_pct"] = (
            measured[True] / measured[False] - 1.0
        ) * 100.0
        if cursor_s[True]:
            ladder.values["obs.trace.on_overhead_pct"] = (
                sum(cursor_s[True]) / sum(cursor_s[False]) - 1.0
            ) * 100.0
        ladder.values["obs.trace.spans_recorded"] = tracer.recorded

        # Encode and decode alone, over the prefix the replays served.
        results = prepared.top(k)
        elapsed, lines = ladder.timed(
            "serve.protocol.encode",
            lambda: [
                protocol.encode(protocol.result_message(i, result))
                for i, result in enumerate(results)
            ],
        )
        ladder.values["serve.protocol.encode_us_per_answer"] = elapsed * 1e6 / k
        elapsed, decoded = ladder.timed(
            "serve.protocol.decode",
            lambda: [protocol.decode(line) for line in lines],
        )
        ladder.values["serve.protocol.decode_us_per_answer"] = elapsed * 1e6 / k
        ladder.attempted += 1
        ladder.failed += [m["result"] for m in decoded] != wire_form(results)

        # Counts from public stats, after a fixed number of requests.
        last = prepared.stream()
        ladder.values["engine.stats.binds"] = engine.stats.binds
        ladder.values["engine.stats.stream_hits"] = engine.stats.stream_hits
        ladder.values["engine.stream.extensions"] = last.extensions
        ladder.values["engine.stream.replays"] = last.replays
        ladder.values["serve.session.slices"] = int(manager.scheduler.slices)
        ladder.values["serve.ops_failed"] = dispatch.errors
    finally:
        dispatch.close()
        manager.close()
        cursor_hop.close()
        traced_engine_hop.close()


def served_ladder(
    ladder: Ladder, database: Database, reference_k: Reference, smoke: bool
) -> None:
    """The replayed page over TCP, HTTP and WebSocket, from a server child."""
    served = WORKLOAD_BY_NAME["serve_tcp"]
    if smoke:
        served = served.smoke()
    reference = Reference(reference_k.rows, served.k)
    fixture = ServerFixture(database)
    try:
        expected_wire = fixture.wire_prefix(served.k)
        for transport, layer in (
            ("tcp", "serve.server.tcp"),
            ("http", "serve.gateway.http"),
            ("ws", "serve.gateway.ws"),
        ):
            inner = ServedCaller(fixture, transport)
            inner.expected_wire = expected_wire
            caller = TracedCaller(inner, ladder.recorder, layer)
            try:
                # Extend the shared stream past k once, then replay.
                ladder.request(caller, replace(served, k=served.k + served.page), None)
                child_cpu = -fixture.child.usage()["cpu_s"]
                speed_before = len(ladder.meter)
                records = [
                    ladder.request(caller, served, reference)
                    for _ in range(SERVED_REQUESTS)
                ]
                child_cpu += fixture.child.usage()["cpu_s"]
                child_cpu /= ladder.meter.mean(since=speed_before)
            finally:
                caller.close()
            good = [record for record in records if not record.failed]
            ladder.values["serve.ops_failed"] = ladder.values.get(
                "serve.ops_failed", 0
            ) + sum(r.failed for r in records)
            if not good:
                continue
            ladder.values[layer + "_answers_per_s"] = (
                served.k * len(good) / sum(r.ttk for r in good)
            )
            pages = [s for r in good for s in r.page_latencies]
            client_cpu = sum(r.cpu for r in records)
            if transport != "ws":
                ladder.values[layer + "_page_p99_ms"] = percentile(pages, 99) * 1e3
                ladder.values[f"serve.client.{transport}_cpu_share"] = (
                    client_cpu / (client_cpu + child_cpu)
                )

        scrapes = []
        connection = http.client.HTTPConnection(*fixture.child.http, timeout=30)
        try:
            for _ in range(5):
                with ladder.recorder.span("obs.metrics.scrape"):
                    start = time.perf_counter()
                    connection.request(
                        "GET", "/metrics?format=prometheus",
                        headers={"Authorization": f"Bearer {TOKEN}"},
                    )
                    response = connection.getresponse()
                    body = response.read()
                    scrapes.append(time.perf_counter() - start)
                ladder.attempted += 1
                ladder.failed += response.status != 200 or not body
        finally:
            connection.close()
        ladder.values["obs.metrics.scrape_ms"] = statistics.median(scrapes) * 1e3
    finally:
        fixture.close()


# -- the run ---------------------------------------------------------------------


def hop_ratios(values: dict[str, float]) -> None:
    """Add ``hop_ratio.<hop>`` to ``values`` and print the ladder.

    Per hop: answers/s, its ratio to the hop below, and its self time
    per answer (its time per answer minus the hop below's).
    """
    print("  hop ladder (extension, page=50):")
    below = None
    for hop, metric in HOPS:
        rate = values.get(metric)
        if not rate:
            continue
        per_answer = 1e6 / rate
        line = f"    {hop:<24} {rate:>12.0f} /s  {per_answer:>8.2f} us/answer"
        if below:
            values[f"hop_ratio.{hop}"] = rate / below
            line += (
                f"  ratio {rate / below:5.2f}"
                f"  self {per_answer - 1e6 / below:7.2f} us/answer"
            )
        print(line)
        below = rate


def run_ladder(workload_name: str, seed: int, smoke: bool = False) -> dict:
    """Every per-layer metric, for ``seed``; ``workload_name`` labels the trace.

    The ladder's inputs are fixed by the metric definitions (see the
    module docstring), so the result does not depend on the workload
    the traced run was asked for.
    """
    recorder = SpanRecorder()
    ladder = Ladder(recorder)
    extend = WORKLOAD_BY_NAME["enum_extend"]
    if smoke:
        extend = extend.smoke()
    database = database_for(extend, seed)
    reference = independent_reference(extend, database, extend.k)
    sections = (
        ("preprocessing", lambda: preprocessing(ladder, seed, smoke)),
        ("enumerators", lambda: enumerators(
            ladder, extend, database, reference, seed, smoke)),
        ("hop and replay ladders", lambda: in_process_ladders(
            ladder, extend, database, reference)),
        ("served ladder", lambda: served_ladder(
            ladder, database, reference, smoke)),
    )
    for title, section in sections:
        gc.collect()
        start = time.perf_counter()
        with recorder.span(title):
            section()
        print(f"  section {title}: {time.perf_counter() - start:.1f} s")
    hop_ratios(ladder.values)
    SCRATCH_PARENT.mkdir(parents=True, exist_ok=True)
    trace_path = SCRATCH_PARENT / f"trace-{workload_name}-{seed}.json"
    recorder.write_chrome_trace(trace_path)
    print(f"  {len(recorder.spans)} spans written to {trace_path}")
    units = {metric.name: metric.unit for metric in PER_LAYER}
    return {
        "metrics": {
            name: {"value": float(value), "unit": units.get(name, "")}
            for name, value in ladder.values.items()
        },
        "attempted": ladder.attempted,
        "failed": ladder.failed,
    }
