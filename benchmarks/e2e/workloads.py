"""The five workloads: set-up, the closed request loop, and its statistics.

A *request* is: obtain a cursor → ``fetch(1)`` (TTF) → full pages until
``k`` answers are held (TT(k)) → release.  One caller, one connection,
closed loop: the next request starts when the previous one is released.
Requests run until the run's seconds are spent; they are then cut into
five equal blocks, every timing metric is computed per block, and the
run reports the median block, so one run carries its own spread.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.engine import Engine
from repro.serve.client import HttpServeClient, ServeClient

from benchmarks.e2e import ROOT
from benchmarks.e2e.inputs import (
    PATH4_TEXT,
    PrefixChecker,
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
from benchmarks.e2e.serverproc import ServerChild
from benchmarks.e2e.spec import BLOCKS, SETUP_REPEATS, Workload
from benchmarks.e2e.speed import SpeedMeter
from benchmarks.e2e.wsclient import WsClient

#: Seconds any socket read of a client may take before the call fails.
SOCKET_TIMEOUT_S = 30.0
#: A run stops early once this many requests in a row have failed.
MAX_CONSECUTIVE_FAILURES = 3
#: Scratch files (SQLite, ``.core``, child log) live under the package's
#: ignored results directory, inside the checkout.
SCRATCH_PARENT = ROOT / "benchmarks" / "e2e" / "results"


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    The benchmark's own, not ``repro.obs.latency.percentile``: a metric
    must not change its definition when the program under test does.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- callers -------------------------------------------------------------------


class Caller:
    """How one workload obtains a cursor, fetches and releases.

    ``fetch`` returns the page as the layer handed it over; ``rows``
    turns pages into comparable form after the clock has stopped.
    """

    #: Whether an untimed ``gc.collect()`` precedes each request.
    collect_between_requests = True

    def between_requests(self) -> None:
        """Untimed work that puts the system in the request's start state."""

    def open(self) -> None:
        raise NotImplementedError

    def fetch(self, n: int) -> Sequence:
        raise NotImplementedError

    def release(self) -> None:
        raise NotImplementedError

    def rows(self, page: Sequence) -> list[Row]:
        return result_rows(page)

    def matches_wire(self, start: int, page: Sequence) -> bool:
        """Whether the page is bit-identical to the in-process prefix."""
        return True

    def close(self) -> None:
        """Tear the workload down (end of run, or before the next set-up)."""


class ColdCaller(Caller):
    """A fresh ``Engine`` per request: planning and preprocessing are timed."""

    def __init__(self, workload: Workload, database: Database):
        self.database = database
        self.query = query_for(workload.shape, workload.relations)
        self.dioid = dioid_for(workload)
        self.engine: Engine | None = None
        self.cursor = None

    def open(self) -> None:
        self.engine = Engine(self.database, core_cache="off")
        self.cursor = self.engine.prepare(
            self.query, dioid=self.dioid, algorithm="take2"
        ).cursor()

    def fetch(self, n: int) -> Sequence:
        return self.cursor.fetch(n)

    def release(self) -> None:
        self.cursor = None
        self.engine.close()
        self.engine = None


class ExtendCaller(Caller):
    """One bound plan; each request pages a fresh ``PrefixStream``."""

    def __init__(self, workload: Workload, database: Database, tracer=None):
        self.engine = Engine(database, core_cache="off", tracer=tracer)
        self.prepared = self.engine.prepare(
            query_for(workload.shape, workload.relations),
            dioid=dioid_for(workload),
            algorithm="take2",
        )
        self.prepared.bind()
        self.cursor = None

    def between_requests(self) -> None:
        # There is no public way to drop only the stream: invalidate
        # drops the bound plan with it, so re-bind off the clock.
        self.prepared.invalidate()
        self.prepared.bind()

    def open(self) -> None:
        self.cursor = self.prepared.cursor()

    def fetch(self, n: int) -> Sequence:
        return self.cursor.fetch(n)

    def release(self) -> None:
        self.cursor = None

    def close(self) -> None:
        self.engine.close()


def ingest_sqlite(database: Database, path: str) -> None:
    """Write every relation of ``database`` into the SQLite file ``path``."""
    backend = SQLiteBackend(path)
    try:
        for relation in database.relations.values():
            backend.ingest(relation)
    finally:
        backend.close()


class ServerFixture:
    """The server child over a SQLite file made from ``database``.

    Owns a scratch directory (``.db``, ``.core``, child log) that is
    removed on :meth:`close`, on success and on failure.
    """

    def __init__(self, database: Database):
        SCRATCH_PARENT.mkdir(parents=True, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT)
        self.db_path = os.path.join(self.scratch, "inputs.db")
        self.child: ServerChild | None = None
        #: The child's last usage line, once it has stopped.
        self.final_usage: dict | None = None
        #: This process's CPU set before :meth:`_pin_together` narrowed it.
        self._affinity: set[int] | None = None
        try:
            ingest_sqlite(database, self.db_path)
            self.child = ServerChild(
                self.db_path, os.path.join(self.scratch, "child.log")
            )
            self._pin_together()
        except BaseException:
            self.close()
            raise

    def _pin_together(self) -> None:
        """Caller and server child on one CPU, while the fixture lives.

        One closed-loop caller and its server take turns, so one CPU
        holds both.  Left to the scheduler the pair flips, within a run,
        between sharing a core and not (same page latency, `ttf_ms` 0.95
        vs 1.3 ms, CPU time 40% apart: cross-core wake-ups), and pinned
        to two cores every page depends on both shared vCPUs being
        served by the host.  Ten-run spreads of `serve_http`, apart vs
        together: `ttk_ms` 16.9% vs 2.5%, `page_p50_ms` 13.0% vs 2.6%,
        `cpu_ms_per_kanswer` 11.6% vs 2.1%.  It also makes the speed
        factor, sampled by the caller, the speed of the CPU the server
        runs on.
        """
        if not hasattr(os, "sched_setaffinity"):
            return
        self._affinity = os.sched_getaffinity(0)
        cpu = {min(self._affinity)}
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(self.child.pid, cpu)

    def connect(self, transport: str) -> Any:
        """A client of the child over ``tcp``, ``http`` or ``ws``."""
        if transport == "tcp":
            return ServeClient(
                *self.child.tcp, timeout=SOCKET_TIMEOUT_S, token=TOKEN
            )
        if transport == "http":
            return HttpServeClient(
                *self.child.http, timeout=SOCKET_TIMEOUT_S, token=TOKEN
            )
        return WsClient(*self.child.http, timeout=SOCKET_TIMEOUT_S, token=TOKEN)

    def wire_prefix(self, k: int) -> list[dict]:
        """The in-process take2 prefix over the same file, in wire form."""
        with Engine.from_backend(
            SQLiteBackend(self.db_path), core_cache="off"
        ) as engine:
            return wire_form(engine.prepare(PATH4_TEXT, algorithm="take2").top(k))

    def close(self) -> None:
        try:
            if self.child is not None:
                child, self.child = self.child, None
                try:
                    self.final_usage = child.stop()
                except BaseException:
                    child.kill()
                    raise
        finally:
            if self._affinity is not None:
                os.sched_setaffinity(0, self._affinity)
                self._affinity = None
            shutil.rmtree(self.scratch, ignore_errors=True)


class ServedCaller(Caller):
    """One client connection to the server child, a fresh session per request."""

    # The engine lives in the child; collecting the client's garbage
    # between requests would only add idle time to a serving loop.
    collect_between_requests = False

    def __init__(
        self, fixture: ServerFixture, transport: str, owns_fixture: bool = False
    ):
        self.fixture = fixture
        self.transport = transport
        self.owns_fixture = owns_fixture
        self.head = query_for("path").head
        #: Set by the run before the first checked request.
        self.expected_wire: list[dict] = []
        self._requests = 0
        self._session = ""
        self._cursor = ""
        try:
            self.client = fixture.connect(transport)
        except BaseException:
            if owns_fixture:
                fixture.close()
            raise

    def open(self) -> None:
        self._requests += 1
        self._session = f"{self.transport}-{self._requests}"
        self._cursor = self.client.prepare(
            self._session, PATH4_TEXT, algorithm="take2"
        )["cursor"]

    def fetch(self, n: int) -> Sequence:
        return self.client.fetch(self._session, self._cursor, n).results

    def release(self) -> None:
        self.client.close_session(self._session)

    def rows(self, page: Sequence) -> list[Row]:
        return wire_result_rows(page, self.head)

    def matches_wire(self, start: int, page: Sequence) -> bool:
        return list(page) == self.expected_wire[start:start + len(page)]

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            if self.owns_fixture:
                self.fixture.close()


def _served(workload: Workload, database: Database) -> ServedCaller:
    return ServedCaller(ServerFixture(database), workload.mode, owns_fixture=True)


CALLERS: dict[str, Callable[[Workload, Database], Caller]] = {
    "cold": ColdCaller,
    "extend": ExtendCaller,
    "tcp": _served,
    "http": _served,
}


# -- one request ---------------------------------------------------------------


@dataclass
class RequestRecord:
    """What one request measured; times in seconds."""

    ttf: float | None = None
    ttk: float | None = None
    #: ``perf_counter`` at request start and after release returned.
    started: float = 0.0
    ended: float = 0.0
    page_latencies: list[float] = field(default_factory=list)
    cpu: float = 0.0
    answers: int = 0
    calls: int = 0
    failed: int = 0


def run_request(
    caller: Caller, k: int, page: int, checker: PrefixChecker | None
) -> RequestRecord:
    """Drive one request; verify its pages after the clock has stopped.

    A call that raises ends the request (the connection may be unusable)
    and counts as failed; so does an empty page before ``k`` and, once
    verified, every page that differs from the reference.
    """
    record = RequestRecord()
    pages: list[tuple[int, Sequence]] = []
    clock = time.perf_counter
    cpu_start = time.process_time()
    start = clock()
    try:
        record.calls += 1
        caller.open()
        record.calls += 1
        first = caller.fetch(1)
        record.ttf = clock() - start
        pages.append((0, first))
        held = len(first)
        while 0 < held < k:
            want = min(page, k - held)
            record.calls += 1
            before = clock()
            rows = caller.fetch(want)
            after = clock()
            if not rows:
                break
            if want == page:
                record.page_latencies.append(after - before)
            pages.append((held, rows))
            held += len(rows)
        if held >= k:
            record.ttk = clock() - start
        else:
            record.failed += 1  # output ended before k
        record.calls += 1
        caller.release()
    except Exception as exc:  # noqa: BLE001 - any failed call is a data point
        record.failed += 1
        print(f"  call failed: {exc!r}")
    record.started, record.ended = start, clock()
    record.cpu = time.process_time() - cpu_start
    for start_rank, rows in pages:
        if checker is not None and not (
            checker.page_matches(start_rank, caller.rows(rows))
            and caller.matches_wire(start_rank, rows)
        ):
            record.failed += 1
        else:
            record.answers += len(rows)
    if record.failed:
        # A failed request misses every latency limit: keep no timings.
        record.ttf = record.ttk = None
        record.page_latencies = []
    return record


def at_reference_speed(record: RequestRecord, factor: float) -> None:
    """Divide the record's timings by the speed factor measured around it."""
    if record.ttf is not None:
        record.ttf /= factor
        record.ttk /= factor
    record.page_latencies = [s / factor for s in record.page_latencies]
    record.cpu /= factor


# -- one run -------------------------------------------------------------------


def set_up(workload: Workload, seed: int) -> tuple[Caller, Database]:
    """Everything before the first timed request, warm-up included."""
    database = database_for(workload, seed)
    caller = CALLERS[workload.mode](workload, database)
    warm_up = [workload.k]
    if isinstance(caller, ServedCaller):
        # Extend the shared stream past k, so that every timed page
        # replays the memo; then replay once.
        warm_up = [workload.k + workload.page, workload.k]
    try:
        for warm_k in warm_up:
            caller.between_requests()
            if run_request(caller, warm_k, workload.page, None).failed:
                raise RuntimeError(f"{workload.name}: warm-up request failed")
    except BaseException:
        caller.close()
        raise
    return caller, database


def _block_values(
    records: Sequence[RequestRecord], value: Callable[[list[RequestRecord]], float]
) -> list[float]:
    blocks = min(BLOCKS, len(records))
    out = []
    for index in range(blocks):
        start = index * len(records) // blocks
        stop = (index + 1) * len(records) // blocks
        out.append(value(records[start:stop]))
    return out


def _summary(values: Sequence[float]) -> dict:
    quartiles = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {
        "value": statistics.median(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "blocks": len(values),
    }


def run_workload(workload: Workload, seed: int, seconds: float) -> dict:
    """Set up ``SETUP_REPEATS`` times, measure for ``seconds``, summarise.

    Timings are at reference speed (see :mod:`benchmarks.e2e.speed`).
    Returns ``{"metrics": {name: {"value", "unit"[, "q1", "q3"]}},
    "attempted", "failed", ...}``.
    """
    meter = SpeedMeter()
    setups: list[float] = []
    caller: Caller | None = None
    for _ in range(SETUP_REPEATS):
        if caller is not None:
            caller.close()
        gc.collect()
        meter.sample()
        begin = time.perf_counter()
        caller, database = set_up(workload, seed)
        end = time.perf_counter()
        meter.sample()
        setups.append((end - begin) / meter.factor(begin, end))
    try:
        reference: Reference = independent_reference(
            workload, database, workload.k
        )
        if isinstance(caller, ServedCaller):
            caller.expected_wire = caller.fixture.wire_prefix(workload.k)
        del database
        gc.collect()
        gc.freeze()
        child = caller.fixture.child if isinstance(caller, ServedCaller) else None
        child_cpu = -child.usage()["cpu_s"] if child else 0.0
        records: list[RequestRecord] = []
        consecutive_failures = 0
        measuring_from = len(meter)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(records) < BLOCKS:
            caller.between_requests()
            meter.sample(force=False)
            if caller.collect_between_requests:
                gc.collect()
            record = run_request(
                caller, workload.k, workload.page, reference.checker()
            )
            records.append(record)
            consecutive_failures = consecutive_failures + 1 if record.failed else 0
            if consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                break
        meter.sample()
        if child:
            child_cpu += child.usage()["cpu_s"]
    finally:
        caller.close()
        gc.unfreeze()
    if isinstance(caller, ServedCaller):
        peak_rss_kb = caller.fixture.final_usage["max_rss_kb"]
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for record in records:
        at_reference_speed(record, meter.factor(record.started, record.ended))
    speed = meter.mean(since=measuring_from)
    good = [record for record in records if not record.failed]
    answers = sum(record.answers for record in records)
    metrics: dict[str, dict] = {
        "setup_s": {**_summary(setups), "unit": "s"},
    }
    if good:
        ms = 1e3

        def pages(block: list[RequestRecord]) -> list[float]:
            return [s for record in block for s in record.page_latencies]

        def typical_p95(block: list[RequestRecord]) -> float:
            # Each request's own p95, then the median request: a host
            # hiccup that doubles a burst of pages lifts a pooled p95
            # (the tail *is* the burst) but only the few requests it hit.
            return statistics.median(
                percentile(record.page_latencies, 95) for record in block
            )

        for name, value in (
            ("ttf_ms", lambda b: statistics.median(r.ttf for r in b) * ms),
            ("ttk_ms", lambda b: statistics.median(r.ttk for r in b) * ms),
            ("page_p50_ms", lambda b: statistics.median(pages(b)) * ms),
            ("page_p95_ms", lambda b: typical_p95(b) * ms),
        ):
            metrics[name] = {**_summary(_block_values(good, value)), "unit": "ms"}
        cpu = sum(record.cpu for record in records) + child_cpu / speed
        metrics["cpu_ms_per_kanswer"] = {
            "value": cpu * ms / (answers / 1000.0),
            "unit": "ms",
        }
    metrics["peak_rss_mb"] = {"value": peak_rss_kb / 1024.0, "unit": "MB"}
    return {
        "metrics": metrics,
        "attempted": sum(record.calls for record in records),
        "failed": sum(record.failed for record in records),
        "requests": len(records),
        "page_samples": sum(len(r.page_latencies) for r in good),
        "answers": answers,
        "speed_factor": speed,
    }
