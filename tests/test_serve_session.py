"""SessionManager: lifecycle, eviction, budgets, and fair scheduling."""

from __future__ import annotations

import asyncio

import pytest

from repro.data.generators import uniform_database, worst_case_cycle_database
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query
from repro.serve.session import (
    CooperativeScheduler,
    SessionBudgetExceeded,
    SessionManager,
    UnknownCursor,
    UnknownSession,
)


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


QUERY = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"


@pytest.fixture
def engine() -> Engine:
    return Engine(uniform_database(3, 40, domain_size=5, seed=7))


@pytest.fixture
def manager(engine) -> SessionManager:
    return SessionManager(engine, slice_size=8)


# -- lifecycle -----------------------------------------------------------------


class TestSessionLifecycle:
    def test_create_fetch_close(self, engine, manager):
        session, cursor_id = manager.open_cursor("alice", QUERY)
        outcome = manager.fetch("alice", cursor_id, 10)
        assert len(outcome.results) == 10
        assert outcome.position == 10
        assert signature(outcome.results) == signature(
            engine.prepare(path_query(3)).top(10)
        )
        manager.close_cursor("alice", cursor_id)
        with pytest.raises(UnknownCursor):
            manager.fetch("alice", cursor_id, 1)
        manager.close_session("alice")
        with pytest.raises(UnknownSession):
            manager.session("alice", create=False)

    def test_sessions_are_isolated_but_share_the_stream(self, manager):
        _, c1 = manager.open_cursor("a", QUERY)
        _, c2 = manager.open_cursor("b", QUERY)
        page_a = manager.fetch("a", c1, 10)
        page_b = manager.fetch("b", c2, 10)
        # Same ranked prefix, independent positions.
        assert signature(page_a.results) == signature(page_b.results)
        assert manager.engine.stats.stream_misses == 1
        assert manager.engine.stats.binds == 1

    def test_unknown_session_and_cursor(self, manager):
        with pytest.raises(UnknownSession):
            manager.fetch("ghost", "c0", 1)
        manager.open_cursor("alice", QUERY)
        with pytest.raises(UnknownCursor):
            manager.fetch("alice", "c99", 1)

    def test_explain_and_stats(self, manager):
        _, cursor_id = manager.open_cursor("alice", QUERY)
        manager.fetch("alice", cursor_id, 5)
        assert "logical plan" in manager.explain("alice", cursor_id)
        stats = manager.stats()
        assert stats["session_count"] == 1
        assert stats["sessions"]["alice"]["served"] == 5
        assert stats["scheduler"]["slice_size"] == 8


class TestEviction:
    def test_lru_eviction_past_max_sessions(self, engine):
        manager = SessionManager(engine, max_sessions=2)
        manager.session("a")
        manager.session("b")
        manager.session("a")  # refresh a: b is now least-recent
        manager.session("c")  # evicts b
        assert sorted(manager.session_names()) == ["a", "c"]
        assert manager.evictions == 1

    def test_ttl_expiry(self, engine):
        now = [0.0]
        manager = SessionManager(
            engine, ttl_seconds=10.0, clock=lambda: now[0]
        )
        _, cursor_id = manager.open_cursor("alice", QUERY)
        now[0] = 5.0
        manager.fetch("alice", cursor_id, 1)  # touch at t=5
        now[0] = 14.0
        assert manager.evict_expired() == 0  # idle 9s < ttl
        now[0] = 16.0
        assert manager.evict_expired() == 1  # idle 11s > ttl
        assert manager.expirations == 1
        with pytest.raises(UnknownSession):
            manager.session("alice", create=False)

    def test_expiry_is_lazy_on_access(self, engine):
        now = [0.0]
        manager = SessionManager(
            engine, ttl_seconds=10.0, clock=lambda: now[0]
        )
        manager.session("alice")
        now[0] = 20.0
        # Any session access sweeps expired sessions first.
        manager.session("bob")
        assert manager.session_names() == ["bob"]

    def test_reopened_session_reuses_memoized_prefix(self, engine):
        manager = SessionManager(engine, max_sessions=1)
        _, c1 = manager.open_cursor("a", QUERY)
        manager.fetch("a", c1, 20)
        manager.session("b")  # evicts a (and its cursors)
        _, c2 = manager.open_cursor("a", QUERY)
        manager.fetch("a", c2, 20)
        # The evicted session's enumeration work was not repeated.
        assert engine.stats.stream_misses == 1
        stream_stats = manager.cursor("a", c2).stream.stats()
        assert stream_stats["extensions"] == 20


class TestBudgets:
    def test_session_budget_across_cursors(self, engine):
        manager = SessionManager(engine, result_budget=15)
        _, c1 = manager.open_cursor("alice", QUERY)
        _, c2 = manager.open_cursor("alice", QUERY)
        manager.fetch("alice", c1, 10)
        with pytest.raises(SessionBudgetExceeded):
            manager.fetch("alice", c2, 10)
        # A fitting page still goes through; the failed one cost nothing.
        assert len(manager.fetch("alice", c2, 5).results) == 5

    def test_budget_is_per_session(self, engine):
        manager = SessionManager(engine, result_budget=10)
        _, c1 = manager.open_cursor("a", QUERY)
        _, c2 = manager.open_cursor("b", QUERY)
        manager.fetch("a", c1, 10)
        assert len(manager.fetch("b", c2, 10).results) == 10

    def test_cursor_budget_clamps_sliced_fetch(self, engine):
        """A cursor budget smaller than the request must clamp, never
        discard slices already served (regression: the scheduler used
        to trip the budget mid-slicing and lose the partial page)."""
        manager = SessionManager(engine, slice_size=4)
        _, cursor_id = manager.open_cursor("a", QUERY, budget=10)
        outcome = manager.fetch("a", cursor_id, 25)
        assert len(outcome.results) == 10
        assert outcome.position == 10
        assert manager.fetch("a", cursor_id, 25).results == []

    def test_short_page_refunds_reservation(self):
        from repro.data.database import Database
        from repro.data.relation import Relation

        tiny = Database([
            Relation("R", 2, [(1, 2), (1, 3)], [1.0, 2.0]),
            Relation("S", 2, [(2, 7)], [0.5]),
        ])
        manager = SessionManager(Engine(tiny), result_budget=50)
        _, cursor_id = manager.open_cursor(
            "a", "Q(x, y, z) :- R(x, y), S(y, z)"
        )
        session = manager.session("a")
        # The output has 1 answer; asking for 50 reserves 50 up front
        # and must refund the 49 unused — not count them as served.
        total = len(manager.fetch("a", cursor_id, 50).results)
        assert total == 1
        assert session.served == 1

    def test_concurrent_fetches_cannot_overrun_budget(self, engine):
        """Reservation semantics: the check and the spend are atomic."""
        import threading

        manager = SessionManager(engine, result_budget=30, slice_size=4)
        _, c1 = manager.open_cursor("a", QUERY)
        _, c2 = manager.open_cursor("a", QUERY)
        served: list[int] = []
        rejected: list[Exception] = []
        barrier = threading.Barrier(2, timeout=30)

        def worker(cursor_id: str) -> None:
            barrier.wait()
            try:
                served.append(len(manager.fetch("a", cursor_id, 20).results))
            except SessionBudgetExceeded as exc:
                rejected.append(exc)

        threads = [
            threading.Thread(target=worker, args=(c,)) for c in (c1, c2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        # 20 + 20 > 30: exactly one fetch may pass; the session never
        # serves more than its budget.
        assert sum(served) <= 30
        assert len(served) == 1 and len(rejected) == 1
        assert manager.session("a").served == sum(served)


# -- the cooperative scheduler -------------------------------------------------


class TestScheduler:
    def test_slicing_math(self):
        scheduler = CooperativeScheduler(slice_size=10)
        assert list(scheduler._slices(25)) == [10, 10, 5]
        assert list(scheduler._slices(10)) == [10]
        assert list(scheduler._slices(3)) == [3]
        with pytest.raises(ValueError):
            CooperativeScheduler(slice_size=0)

    def test_sliced_fetch_equals_unsliced(self, engine):
        sliced = SessionManager(engine, slice_size=3)
        _, cursor_id = sliced.open_cursor("a", QUERY)
        outcome = sliced.fetch("a", cursor_id, 20)
        assert len(outcome.results) == 20
        assert outcome.slices == 7  # ceil(20 / 3)
        assert signature(outcome.results) == signature(
            engine.prepare(path_query(3)).top(20)
        )

    def test_sink_failure_rewinds_and_charges_delivered(self, engine):
        """A client disconnect mid-stream must not lose the in-flight
        slice (rewound for re-fetch) nor refund delivered results."""
        manager = SessionManager(engine, slice_size=10, result_budget=1000)
        _, cursor_id = manager.open_cursor("a", QUERY)
        session = manager.session("a")
        calls = []

        async def failing_sink(start, page):
            calls.append((start, len(page)))
            if len(calls) == 2:
                raise ConnectionResetError("client went away")

        async def run():
            await manager.fetch_async("a", cursor_id, 40, sink=failing_sink)

        with pytest.raises(ConnectionResetError):
            asyncio.run(run())
        cursor = manager.cursor("a", cursor_id)
        # Slice 1 (ranks 0-9) was delivered; slice 2 was rewound.
        assert cursor.position == 10
        assert session.served == 10
        # The client reconnects and re-fetches the lost page for free.
        outcome = manager.fetch("a", cursor_id, 10)
        assert outcome.position == 20
        assert session.served == 20

    def test_fetch_async_matches_sync(self, engine):
        manager = SessionManager(engine, slice_size=4)
        _, c_sync = manager.open_cursor("sync", QUERY)
        _, c_async = manager.open_cursor("async", QUERY)
        sync_results = manager.fetch("sync", c_sync, 30).results

        async def run():
            return await manager.fetch_async("async", c_async, 30)

        outcome = asyncio.run(run())
        assert signature(outcome.results) == signature(sync_results)
        assert manager.scheduler.yields > 0

    def test_yields_only_between_slices(self, engine):
        """Regression: a full-size final slice was followed by a yield,
        so every one-slice page paid an event-loop turn for nothing."""
        manager = SessionManager(engine, slice_size=8)
        _, cursor_id = manager.open_cursor("y", QUERY)
        yields = int(manager.scheduler.yields)

        async def fetch(n):
            return await manager.fetch_async("y", cursor_id, n)

        for n in (0, 1, 5, 8):
            assert len(asyncio.run(fetch(n)).results) == n
            assert manager.scheduler.yields == yields, n
        outcome = asyncio.run(fetch(24))
        assert (len(outcome.results), outcome.slices) == (24, 3)
        assert manager.scheduler.yields == yields + 2

    def test_heavy_query_does_not_starve_cheap_one(self):
        """Fairness: a cheap fetch completes while a heavy one is mid-flight.

        The heavy request enumerates a large prefix of a worst-case
        cycle query; the cheap request wants 5 path answers.  With
        cooperative slicing the cheap fetch must finish long before the
        heavy one, even though the heavy one was scheduled first.
        """
        database = worst_case_cycle_database(4, 60, seed=3)
        cheap_db = uniform_database(2, 30, domain_size=4, seed=4)
        for relation in cheap_db:
            database.add(relation.rename(f"P{relation.name}"))
        engine = Engine(database)
        manager = SessionManager(engine, slice_size=16)
        _, heavy = manager.open_cursor(
            "heavy",
            cycle_query(4),
            algorithm="lazy",
        )
        _, cheap = manager.open_cursor(
            "cheap",
            "Q(x1, x2, x3) :- PR1(x1, x2), PR2(x2, x3)",
        )
        completion_order: list[str] = []

        async def run(name, session, cursor_id, n):
            outcome = await manager.fetch_async(session, cursor_id, n)
            completion_order.append(name)
            return outcome

        async def main():
            heavy_task = asyncio.ensure_future(
                run("heavy", "heavy", heavy, 4000)
            )
            # Give the heavy fetch a head start on the event loop.
            await asyncio.sleep(0)
            cheap_task = asyncio.ensure_future(
                run("cheap", "cheap", cheap, 5)
            )
            return await asyncio.gather(heavy_task, cheap_task)

        heavy_outcome, cheap_outcome = asyncio.run(main())
        assert completion_order[0] == "cheap"
        assert len(cheap_outcome.results) == 5
        assert len(heavy_outcome.results) > 100


def test_manager_repr(engine):
    manager = SessionManager(engine)
    manager.session("a")
    assert "1 sessions" in repr(manager)
