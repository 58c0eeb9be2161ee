"""Chaos suite: deterministic fault injection against every recovery path.

Each class injects one failure mode through :mod:`repro.util.faults`
and asserts the stack recovers *and* that any produced ranked output is
bit-identical to a fault-free run — recovery that changes answers is
worse than an error.  The suite closes with a parity check: with no
faults configured, the resilience layer is invisible (no retries, no
counter movement).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.generators import uniform_database
from repro.dp.corebuf import CoreFile
from repro.engine import Engine
from repro.query.builders import path_query
from repro.serve.client import (
    HttpServeClient,
    ServeClient,
    ServeClientError,
)
from repro.serve.gateway import GatewayServer, GatewayThread
from repro.serve.policy import AccessPolicy
from repro.util.resilience import (
    COUNTERS,
    CircuitBreaker,
    Deadline,
    Retrier,
    transient_sqlite,
)
from repro.serve import protocol
from repro.serve.server import (
    CoalescingWriter,
    OpDispatcher,
    ServeServer,
    ServerThread,
)
from repro.serve.session import SessionManager
from repro.util import faults
from repro.util.faults import FaultInjected, FaultPlan

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
QUERY = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"


def signature(results):
    return [
        (round(r.weight, 6), r.output_tuple, r.witness_ids) for r in results
    ]


@pytest.fixture(autouse=True)
def reset_counters():
    COUNTERS.reset()
    yield
    COUNTERS.reset()


@pytest.fixture
def db():
    return uniform_database(3, 30, domain_size=5, seed=11)


# -- the fault plan itself -----------------------------------------------------


class TestFaultPlan:
    def test_parse_full_rule(self):
        plan = FaultPlan.parse("sqlite.execute=raise:3:2:busy")
        (rule,) = plan._rules["sqlite.execute"]
        assert (rule.action, rule.after, rule.count, rule.param) == (
            "raise", 3, 2, "busy",
        )

    def test_window_semantics(self):
        plan = FaultPlan.parse("s=raise:2:2")
        plan.hit("s")  # hit 1: before the window
        for _ in range(2):  # hits 2-3: inside
            with pytest.raises(FaultInjected):
                plan.hit("s")
        plan.hit("s")  # hit 4: past the window
        assert plan.counters() == {"hits": {"s": 4}, "fired": {"s": 2}}

    def test_count_zero_fires_forever(self):
        plan = FaultPlan.parse("s=raise:1:0")
        for _ in range(5):
            with pytest.raises(FaultInjected):
                plan.hit("s")

    def test_exception_shapes(self):
        import sqlite3

        with pytest.raises(sqlite3.OperationalError, match="locked"):
            FaultPlan.parse("s=raise:1:1:busy").hit("s")
        with pytest.raises(ConnectionResetError):
            FaultPlan.parse("s=raise:1:1:reset").hit("s")

    def test_corrupt_truncate_and_flip(self):
        data = bytes(range(64))
        truncated = FaultPlan.parse("s=corrupt:1:1:truncate").corrupt("s", data)
        assert truncated == data[:32]
        flipped = FaultPlan.parse("s=corrupt").corrupt("s", data)
        assert flipped != data and len(flipped) == len(data)

    def test_injected_context_restores(self):
        assert not faults.enabled()
        with faults.injected("s=raise"):
            assert faults.enabled()
        assert not faults.enabled()

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultPlan.parse("s=exit")


# -- retrier -------------------------------------------------------------------


class TestRetrier:
    def test_retries_then_succeeds(self):
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return 42

        retrier = Retrier(attempts=4, sleep=sleeps.append, label="t")
        assert retrier.call(flaky) == 42
        assert calls["n"] == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential growth
        assert COUNTERS.get("retries_t") == 2

    def test_exhaustion_reraises_last(self):
        retrier = Retrier(attempts=2, sleep=lambda _s: None)
        with pytest.raises(OSError, match="persistent"):
            retrier.call(lambda: (_ for _ in ()).throw(OSError("persistent")))

    def test_non_retryable_raises_immediately(self):
        calls = {"n": 0}

        def fail():
            calls["n"] += 1
            raise ValueError("no")

        retrier = Retrier(
            attempts=5,
            retryable=lambda exc: isinstance(exc, OSError),
            sleep=lambda _s: None,
        )
        with pytest.raises(ValueError):
            retrier.call(fail)
        assert calls["n"] == 1

    def test_transient_sqlite_predicate(self):
        import sqlite3

        assert transient_sqlite(sqlite3.OperationalError("database is locked"))
        assert transient_sqlite(sqlite3.OperationalError("database is busy"))
        assert not transient_sqlite(sqlite3.OperationalError("syntax error"))
        assert not transient_sqlite(OSError("locked"))


# -- circuit breaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_full_cycle_with_frozen_clock(self):
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=10.0, clock=lambda: now["t"]
        )
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        now["t"] = 10.5
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=5.0, clock=lambda: now["t"]
        )
        breaker.record_failure()
        now["t"] = 6.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.retry_after() == pytest.approx(5.0)

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


# -- transient sqlite failures -------------------------------------------------


class TestSqliteBusyStorm:
    def test_storm_is_absorbed_bit_identically(self, db, tmp_path):
        baseline = list(Engine(db).prepare(path_query(3)).iter())

        sqlite = SQLiteBackend(str(tmp_path / "storm.db"))
        for relation in db:
            sqlite.ingest(relation)
        engine = Engine(sqlite.database(), core_cache="off")
        # Three consecutive locked errors: under the backend's 4-attempt
        # retrier every statement still completes.
        with faults.injected("sqlite.execute=raise:2:3:busy"):
            results = list(engine.prepare(path_query(3)).iter())
        assert signature(results) == signature(baseline)
        assert COUNTERS.get("retries_sqlite") >= 1
        engine2 = Engine(sqlite.database(), core_cache="off")
        assert engine2.stats.retries == 0  # fresh engine, fresh mirror

    def test_persistent_lock_still_raises(self, db, tmp_path):
        import sqlite3

        sqlite = SQLiteBackend(str(tmp_path / "stuck.db"))
        for relation in db:
            sqlite.ingest(relation)
        engine = Engine(sqlite.database(), core_cache="off")
        with faults.injected("sqlite.execute=raise:1:0:busy"):
            with pytest.raises(sqlite3.OperationalError):
                list(engine.prepare(path_query(3)).iter())


# -- core-file corruption and partial writes -----------------------------------


class TestCoreFileRecovery:
    def _warm_engine(self, db, path):
        engine = Engine(db, core_cache=str(path))
        results = list(engine.prepare(path_query(3)).iter())
        return engine, results

    def test_truncated_core_degrades_to_cold_build(self, db, tmp_path):
        core_path = tmp_path / "plans.core"
        _, baseline = self._warm_engine(db, core_path)
        assert core_path.exists()
        payload = core_path.read_bytes()
        core_path.write_bytes(payload[: len(payload) // 2])

        engine = Engine(db, core_cache=str(core_path))
        results = list(engine.prepare(path_query(3)).iter())
        assert signature(results) == signature(baseline)

    def test_corrupt_toc_is_a_graceful_miss(self, db, tmp_path):
        core_path = tmp_path / "plans.core"
        _, baseline = self._warm_engine(db, core_path)
        with faults.injected("core.read=corrupt:1:0"):
            engine = Engine(db, core_cache=str(core_path))
            results = list(engine.prepare(path_query(3)).iter())
        assert signature(results) == signature(baseline)

    def test_transient_read_error_is_retried(self, db, tmp_path):
        core_path = tmp_path / "plans.core"
        engine, baseline = self._warm_engine(db, core_path)
        with faults.injected("core.read=raise:1:1:oserror"):
            warm = Engine(db, core_cache=str(core_path))
            results = list(warm.prepare(path_query(3)).iter())
        assert signature(results) == signature(baseline)
        assert COUNTERS.get("retries_core_read") >= 1

    def test_kill_mid_write_leaves_no_partial_core(self, tmp_path):
        path = str(tmp_path / "mid.core")
        entries = {"k": ({"kind": "tdp"}, 1, b"x" * 1024)}
        CoreFile(path).write(entries)
        good = open(path, "rb").read()
        with faults.injected("core.write=raise"):
            with pytest.raises(FaultInjected):
                CoreFile(path).write(
                    {"k": ({"kind": "tdp"}, 2, b"y" * 4096)}
                )
        # The half-written bytes never reached the container, and the
        # tmp sibling was cleaned up on the way out.
        assert open(path, "rb").read() == good
        assert [
            name for name in os.listdir(tmp_path) if ".tmp." in name
        ] == []
        toc, mapped = CoreFile(path).read_toc_and_map()
        assert toc["k"]["db_version"] == 1
        mapped.close()

    def test_stale_tmp_from_dead_pid_is_swept(self, tmp_path):
        path = str(tmp_path / "swept.core")
        stale = f"{path}.tmp.999999999"
        open(stale, "wb").write(b"junk")
        CoreFile(path).write({"k": ({"kind": "tdp"}, 1, b"data")})
        assert not os.path.exists(stale)


# -- deadline propagation ------------------------------------------------------


class _TickClock:
    """A monotonic clock advancing a fixed step per reading."""

    def __init__(self, step: float):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class TestDeadlines:
    def test_partial_page_is_the_correct_prefix(self, db):
        engine = Engine(db)
        full = [
            r.output_tuple for r in engine.prepare(path_query(3)).top(500)
        ]
        manager = SessionManager(
            engine, slice_size=8, clock=_TickClock(0.001)
        )
        _, cursor = manager.open_cursor("a", QUERY)
        outcome = manager.fetch("a", cursor, 500, deadline_ms=25)
        served = len(outcome.results)
        assert outcome.deadline_exceeded
        assert 0 < served < 500
        assert [
            r.output_tuple for r in outcome.results
        ] == full[:served]
        assert manager.scheduler.deadline_stops == 1
        # The cursor resumes exactly where the deadline stopped it.
        rest = manager.fetch("a", cursor, 500 - served)
        assert not rest.deadline_exceeded
        assert [
            r.output_tuple for r in outcome.results + rest.results
        ] == full

    def test_expired_before_first_slice_serves_nothing(self, db):
        manager = SessionManager(
            Engine(db), slice_size=8, clock=_TickClock(1.0)
        )
        _, cursor = manager.open_cursor("a", QUERY)
        outcome = manager.fetch("a", cursor, 10, deadline_ms=500)
        assert outcome.deadline_exceeded
        assert outcome.results == []

    def test_prepare_deadline_is_the_cursor_default(self, db):
        clock = _TickClock(1.0)
        manager = SessionManager(Engine(db), slice_size=8, clock=clock)
        _, cursor = manager.open_cursor("a", QUERY, deadline_ms=500)
        outcome = manager.fetch("a", cursor, 10)
        assert outcome.deadline_exceeded
        # A generous per-fetch override beats the cursor default.
        outcome = manager.fetch("a", cursor, 10, deadline_ms=10_000_000)
        assert not outcome.deadline_exceeded
        assert len(outcome.results) == 10

    def test_deadline_deadline_objects(self):
        now = {"t": 0.0}
        deadline = Deadline.after_ms(100, clock=lambda: now["t"])
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(0.1)
        now["t"] = 0.2
        assert deadline.expired()
        assert deadline.remaining() == 0.0


class TestDeadlinesOverTheWire:
    def test_tcp_partial_page_flag(self, db):
        engine = Engine(db)
        with ServerThread(engine, slice_size=8) as address:
            with ServeClient(*address) as client:
                cursor = client.prepare("s", QUERY)["cursor"]
                # Sub-microsecond budget: expires before the first slice.
                page = client.fetch("s", cursor, 10, deadline_ms=0.001)
                assert page.deadline_exceeded
                assert page.served == 0
                page = client.fetch("s", cursor, 10)
                assert not page.deadline_exceeded
                assert page.served == 10

    def test_http_zero_progress_is_504(self, db):
        engine = Engine(db)
        with GatewayThread(engine, slice_size=8) as address:
            with HttpServeClient(*address) as client:
                cursor = client.prepare("s", QUERY)["cursor"]
                with pytest.raises(ServeClientError) as err:
                    client.fetch("s", cursor, 10, deadline_ms=0.001)
                assert err.value.code == "deadline_exceeded"
                # The cursor is untouched: the next fetch serves page 1.
                page = client.fetch("s", cursor, 10)
                assert page.position == 10

    def test_bad_deadline_is_rejected(self, db):
        with ServerThread(Engine(db), slice_size=8) as address:
            with ServeClient(*address) as client:
                cursor = client.prepare("s", QUERY)["cursor"]
                with pytest.raises(ServeClientError) as err:
                    client.fetch("s", cursor, 10, deadline_ms=-5)
                assert err.value.code == "bad_request"


# -- load shedding and the breaker at the edge ---------------------------------


class TestOverloadGate:
    def test_in_flight_cap_sheds_fetches_only(self):
        policy = AccessPolicy(max_in_flight=1)
        admitted, _ = policy.overload_acquire("fetch")
        assert admitted
        shed, retry = policy.overload_acquire("fetch")
        assert not shed and retry > 0
        assert policy.overload_acquire("stats") == (True, 0.0)
        policy.overload_release("fetch")
        admitted, _ = policy.overload_acquire("fetch")
        assert admitted
        assert policy.shed == 1

    def test_open_breaker_sheds_prepare_and_fetch(self):
        now = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=30.0, clock=lambda: now["t"]
        )
        policy = AccessPolicy(breaker=breaker)
        breaker.record_failure()
        for op in ("prepare", "fetch"):
            admitted, retry = policy.overload_acquire(op)
            assert not admitted
            assert retry == pytest.approx(30.0)
        assert policy.overload_acquire("ping") == (True, 0.0)
        assert policy.snapshot()["breaker"]["open"] is True

    def test_gateway_breaker_trip_and_client_retry(self, db):
        engine = Engine(db)
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.05)
        policy = AccessPolicy(breaker=breaker)
        with GatewayThread(engine, slice_size=8, policy=policy) as address:
            with HttpServeClient(*address) as client:
                cursor = client.prepare("s", QUERY)["cursor"]
                # One injected internal failure trips the breaker ...
                with faults.injected("fetch.slice=raise"):
                    with pytest.raises(ServeClientError) as err:
                        client.fetch("s", cursor, 5)
                    assert err.value.code == "internal"
                # ... so the next fetch is shed with a Retry-After hint.
                with pytest.raises(ServeClientError) as err:
                    client.fetch("s", cursor, 5)
                assert err.value.code == "overloaded"
                assert err.value.retry_after is not None
                # A retrying client waits the hint out and then lands on
                # the half-open probe, which closes the breaker again.
                patient = HttpServeClient(*address, retries=4)
                page = patient.fetch("s", cursor, 5)
                assert page.served == 5
                assert breaker.state == CircuitBreaker.CLOSED
                metrics = client.metrics()
                assert metrics["policy"]["shed"] >= 1
                assert metrics["resilience"]["shed"] >= 1
                patient.close()


    #: Requests the engine answers with "your fault".
    CLIENT_ERRORS = [
        ({"op": "fetch", "session": "nope", "cursor": "c0", "n": 5},
         "unknown_session"),
        ({"op": "prepare", "session": "s", "query": 5}, "bad_request"),
        ({"op": "prepare", "session": "s", "query": "Q(x) :- Missing(x)"},
         "bad_query"),
    ]

    @staticmethod
    def _half_open_policy(now: dict) -> AccessPolicy:
        """A policy whose breaker just became half-open: one probe left."""
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=30.0, clock=lambda: now["t"]
        )
        breaker.record_failure()
        assert not breaker.allow()
        now["t"] = 31.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        return AccessPolicy(breaker=breaker)

    @pytest.mark.parametrize(
        "message, code", CLIENT_ERRORS, ids=[code for _, code in CLIENT_ERRORS]
    )
    def test_probe_ending_in_a_client_error_closes_the_breaker(
        self, db, message, code
    ):
        """Regression: such a probe was recorded neither way, so the
        breaker stayed half-open with no probe left and shed every
        prepare/fetch until an ungated op happened to succeed."""
        policy = self._half_open_policy({"t": 0.0})
        dispatcher = OpDispatcher(SessionManager(Engine(db)), policy)
        writer = CoalescingWriter(None)

        def exchange(request: dict) -> dict:
            asyncio.run(dispatcher.dispatch(request, writer))
            (line,) = writer.pending
            writer.pending.clear()
            return protocol.decode(line)

        assert exchange(message)["error"] == code
        assert policy.breaker.state == CircuitBreaker.CLOSED
        assert exchange({"op": "prepare", "session": "s", "query": QUERY})["ok"]
        assert int(policy.shed) == 0

    def test_probe_lost_to_a_dead_socket_closes_the_breaker(self, db):
        """The engine produced the slice the socket lost: evidence
        enough, and the probe is not left spent."""
        policy = self._half_open_policy({"t": 0.0})
        manager = SessionManager(Engine(db))
        dispatcher = OpDispatcher(manager, policy)
        _, cursor = manager.open_cursor("s", QUERY)

        class Gone(CoalescingWriter):
            def is_closing(self) -> bool:
                return True

        with pytest.raises(ConnectionResetError):
            asyncio.run(
                dispatcher.dispatch(
                    {"op": "fetch", "session": "s", "cursor": cursor, "n": 5},
                    Gone(None),
                )
            )
        assert manager.cursor("s", cursor).position == 0
        assert policy.breaker.state == CircuitBreaker.CLOSED

    def test_client_error_probe_over_a_real_transport(self, db):
        policy = self._half_open_policy({"t": 0.0})
        with ServerThread(Engine(db), policy=policy) as address:
            with ServeClient(*address) as client:
                with pytest.raises(ServeClientError) as err:
                    client.fetch("nope", "c0", 5)
                assert err.value.code == "unknown_session"
                assert client.prepare("s", QUERY)["ok"]
        assert int(policy.shed) == 0

    def test_shedding_plus_retry_is_lossless(self):
        """Serving under a deliberately tiny in-flight cap.

        ``max_in_flight=1`` makes the edge shed concurrent fetches with
        503 + ``Retry-After``; clients that opt into retries wait the
        hint out, and every session's ranked prefix must still be
        bit-identical to a single-session run.
        """
        sessions, k, page_size = 4, 120, 20
        engine = Engine(uniform_database(3, 300, domain_size=30, seed=13))
        baseline = signature(
            itertools.islice(engine.prepare(QUERY, algorithm="take2").iter(), k)
        )
        policy = AccessPolicy(max_in_flight=1)
        outputs: dict = {}
        errors: list = []

        def job(address: tuple, name: str) -> None:
            try:
                with ServeClient(*address, timeout=120, retries=100) as client:
                    cursor = client.prepare(name, QUERY)["cursor"]
                    rows: list[dict] = []
                    while len(rows) < k:
                        page = client.fetch(
                            name, cursor, min(page_size, k - len(rows))
                        )
                        rows.extend(page.results)
                        if page.exhausted:
                            break
                    outputs[name] = rows[:k]
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        with ServerThread(
            engine, slice_size=32, max_sessions=128, policy=policy
        ) as address:
            threads = [
                threading.Thread(target=job, args=(address, f"shed-{i}"))
                for i in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(outputs) == sessions
        head = ("x1", "x2", "x3", "x4")
        for name, rows in outputs.items():
            assert [
                (
                    round(row["weight"], 6),
                    tuple(row["assignment"][v] for v in head),
                    tuple(row["witness_ids"]),
                )
                for row in rows
            ] == baseline, f"{name} diverged under load shedding"


# -- graceful drain ------------------------------------------------------------


@pytest.mark.parametrize("server_class", [ServeServer, GatewayServer])
class TestGracefulDrain:
    """One drain, in the listener core: both front doors wait for it."""

    def test_mid_fetch_client_gets_its_full_page(self, db, server_class):
        async def scenario():
            server = server_class(
                Engine(db), port=0, slice_size=4, drain_s=5.0
            )
            address = await server.start()
            client_class = (
                ServeClient if server_class is ServeServer else HttpServeClient
            )
            client = await asyncio.to_thread(client_class, *address)
            cursor = (
                await asyncio.to_thread(client.prepare, "s", QUERY)
            )["cursor"]
            fetch = asyncio.to_thread(client.fetch, "s", cursor, 400)
            # A slowed scheduler (100 slices, 2 ms each) keeps the fetch
            # in flight long enough to stop the server under it.
            with faults.injected("fetch.slice=delay:1:0:0.002"):
                fetch_task = asyncio.ensure_future(fetch)
                patience = asyncio.get_running_loop().time() + 10.0
                while server.active_requests == 0:
                    assert asyncio.get_running_loop().time() < patience
                    await asyncio.sleep(0)
                await server.stop()  # closes the listener, then drains
                # The wait is what stop() adds: it returned because the
                # fetch left dispatch, not because it gave up on it.
                assert server.active_requests == 0
                page = await fetch_task
            client.close()
            return page

        page = asyncio.run(scenario())
        assert page.served == 400

    def test_zero_drain_still_stops_cleanly(self, db, server_class):
        async def scenario():
            server = server_class(Engine(db), port=0, drain_s=0.0)
            await server.start()
            await server.stop()

        asyncio.run(scenario())

    def test_negative_drain_rejected(self, db, server_class):
        with pytest.raises(ValueError):
            server_class(Engine(db), drain_s=-1.0)


# -- parity: faults off must be a no-op ----------------------------------------


class TestZeroFaultParity:
    def test_no_rules_means_no_counting_and_no_retries(self, db):
        assert not faults.enabled()
        engine = Engine(db)
        results = list(engine.prepare(path_query(3)).iter())
        assert results  # the query ran
        assert faults.counters() == {"hits": {}, "fired": {}}
        assert COUNTERS.snapshot() == {}
        assert engine.stats.retries == 0

    def test_wire_terminator_unchanged_without_deadline(self, db):
        with ServerThread(Engine(db), slice_size=8) as address:
            with ServeClient(*address) as client:
                cursor = client.prepare("s", QUERY)["cursor"]
                client._send(
                    {"op": "fetch", "session": "s", "cursor": cursor, "n": 1}
                )
                lines = [client._read(), client._read()]
                terminator = lines[-1]
                assert "deadline_exceeded" not in terminator
