"""Prefix streams and cursors: memoization, budgets, invalidation.

The load-bearing claim (ISSUE 3 acceptance): ``prepared.top(5)`` then
``prepared.top(100)`` performs **zero duplicate enumeration steps** —
the second call enumerates answers 6..100 only, and a replayed request
costs no operations at all.  Asserted here via attributed OpCounters.
"""

from __future__ import annotations

import itertools

import pytest

from repro.data.generators import uniform_database
from repro.engine import Engine, PrefixStream
from repro.engine.plan import VALID_ALGORITHMS
from repro.query.builders import path_query
from repro.serve.cursor import Cursor, CursorBudgetExceeded, fetch_all
from repro.util.counters import OpCounter


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


@pytest.fixture
def engine() -> Engine:
    return Engine(uniform_database(3, 40, domain_size=5, seed=42))


# -- prefix sharing in PreparedQuery.top ---------------------------------------


class TestTopPrefixCache:
    def test_top5_then_top100_no_duplicate_steps(self, engine):
        prepared = engine.prepare(path_query(3))
        c_top5, c_top100 = OpCounter(), OpCounter()
        top5 = prepared.top(5, counter=c_top5)
        top100 = prepared.top(100, counter=c_top100)
        assert signature(top100[:5]) == signature(top5)

        # A fresh, uncached enumeration of the same 100 answers is the
        # total-work baseline: the two incremental calls must sum to
        # exactly it — answers 1..5 were not enumerated a second time.
        fresh = OpCounter()
        baseline = list(itertools.islice(prepared.iter(fresh), 100))
        assert signature(baseline) == signature(top100)
        for op in OpCounter.__slots__:
            assert getattr(c_top5, op) + getattr(c_top100, op) == getattr(
                fresh, op
            ), f"duplicate enumeration work in counter {op!r}"

    def test_replayed_top_costs_zero_operations(self, engine):
        prepared = engine.prepare(path_query(3))
        prepared.top(50)
        replay = OpCounter()
        again = prepared.top(50, counter=replay)
        assert len(again) == 50
        assert all(
            getattr(replay, op) == 0 for op in OpCounter.__slots__
        ), f"replay did enumeration work: {replay!r}"

    def test_stream_shared_across_top_calls(self, engine):
        prepared = engine.prepare(path_query(3))
        prepared.top(5)
        prepared.top(10)
        prepared.top(3)
        assert engine.stats.stream_misses == 1
        assert engine.stats.stream_hits == 2
        assert prepared.stream().produced == 10

    @pytest.mark.parametrize("n", [1, 7, 50])
    @pytest.mark.parametrize("algorithm", VALID_ALGORITHMS)
    def test_extension_enumerates_exactly_what_was_asked(
        self, engine, algorithm, n
    ):
        """Any-k charges per answer: the batch pull takes n, not n + 1."""
        stream = engine.prepare(path_query(3), algorithm=algorithm).stream()
        assert stream.ensure(n) == n
        assert stream.counter.results == stream.extensions == n

    def test_raise_is_not_exhaustion(self):
        """A run that dies mid-extension must not read as a short output."""

        def dies_at_5_of_10(_counter):
            for rank in range(10):
                if rank == 5:
                    raise OSError("backend went away")
                yield rank

        stream = PrefixStream(dies_at_5_of_10)
        with pytest.raises(OSError):
            stream.prefix(8)
        assert (stream.produced, stream.extensions) == (5, 5)
        assert not stream.exhausted and not stream.done
        with pytest.raises(RuntimeError, match="new stream"):
            stream.prefix(8)
        assert stream.broken and not stream.exhausted
        assert stream.prefix(5) == [0, 1, 2, 3, 4]  # the memo still replays
        with pytest.raises(RuntimeError):
            stream.get(5)

    def test_resumable_iterator_resumes_at_the_same_rank(self):
        """An iterator that survives its own raise loses and repeats nothing."""

        class Flaky:
            def __init__(self):
                self.rank, self.failed = 0, False

            def __iter__(self):
                return self

            def __next__(self):
                if self.rank == 5 and not self.failed:
                    self.failed = True
                    raise OSError("transient")
                if self.rank == 10:
                    raise StopIteration
                self.rank += 1
                return self.rank - 1

        stream = PrefixStream(lambda _counter: Flaky())
        with pytest.raises(OSError):
            stream.prefix(8)
        assert stream.prefix(8) == list(range(8))
        assert stream.prefix(20) == list(range(10))
        assert stream.exhausted and not stream.broken
        assert stream.extensions == 10

    def test_engine_replaces_a_broken_stream(self, engine, monkeypatch):
        prepared = engine.prepare(path_query(3))
        physical = prepared.bind()
        healthy = physical.iter

        def dying(counter=None, algorithm=None):
            yield from itertools.islice(healthy(counter, algorithm), 5)
            raise OSError("backend went away")

        monkeypatch.setattr(physical, "iter", dying)
        with pytest.raises(OSError):
            prepared.top(8)
        with pytest.raises(RuntimeError):
            prepared.top(8)  # same stream: now known to be dead
        monkeypatch.undo()
        assert signature(prepared.top(8)) == signature(
            itertools.islice(prepared.iter(), 8)
        )
        assert engine.stats.stream_misses == 2

    def test_negative_k_rejected(self, engine):
        """top(-1) must raise (as islice did), not slice off the tail."""
        prepared = engine.prepare(path_query(2))
        prepared.top(5)
        with pytest.raises(ValueError):
            prepared.top(-1)
        stream = prepared.stream()
        with pytest.raises(ValueError):
            stream.slice(-5, 3)
        with pytest.raises(ValueError):
            stream.get(-1)
        assert prepared.top(0) == []

    def test_iter_stays_fresh_enumeration(self, engine):
        """iter() keeps TT(k) semantics: every run pays its own ops."""
        prepared = engine.prepare(path_query(3))
        first, second = OpCounter(), OpCounter()
        a = list(itertools.islice(prepared.iter(first), 20))
        b = list(itertools.islice(prepared.iter(second), 20))
        assert signature(a) == signature(b)
        assert first.as_dict() == second.as_dict()
        assert first.total_pq_ops() > 0

    def test_mutation_invalidates_stream(self, engine):
        prepared = engine.prepare(path_query(3))
        before = prepared.top(5)
        # A decisively light edge that joins (R2 has x2 = 1 tuples):
        # after invalidation it must dominate the ranking.
        engine.database["R1"].add((1, 1), -1_000_000.0)
        after = prepared.top(5)
        assert engine.stats.stream_misses == 2
        assert signature(after) != signature(before)
        assert after[0].weight < before[0].weight

    def test_algorithms_get_distinct_streams(self, engine):
        take2 = engine.prepare(path_query(3), algorithm="take2")
        lazy = engine.prepare(path_query(3), algorithm="lazy")
        take2.top(10)
        lazy.top(10)
        assert engine.stats.stream_misses == 2
        # ... but still share one physical plan (preprocessing once).
        assert engine.stats.binds == 1


# -- cursors -------------------------------------------------------------------


class TestCursor:
    def test_pagination_matches_uninterrupted_run(self, engine):
        prepared = engine.prepare(path_query(3))
        baseline = signature(itertools.islice(prepared.iter(), 60))
        cursor = prepared.cursor()
        pages = [cursor.fetch(7) for _ in range(5)]
        paged = [r for page in pages for r in page]
        assert signature(paged) == baseline[:35]
        assert cursor.position == 35

    def test_cursors_share_the_stream(self, engine):
        prepared = engine.prepare(path_query(3))
        first = prepared.cursor()
        first.fetch(30)
        replay = OpCounter()
        second = prepared.cursor()
        page = second.fetch(30, counter=replay)
        assert len(page) == 30
        assert all(getattr(replay, op) == 0 for op in OpCounter.__slots__)
        assert first.stream is second.stream

    def test_fetch_to_exhaustion(self, engine):
        prepared = engine.prepare(path_query(2))
        total = len(list(prepared.iter()))
        cursor = prepared.cursor()
        drained = fetch_all(cursor, page_size=17)
        assert len(drained) == total
        assert cursor.exhausted
        assert cursor.fetch(5) == []

    def test_peek_does_not_advance(self, engine):
        cursor = engine.prepare(path_query(2)).cursor()
        peeked = cursor.peek()
        assert cursor.position == 0
        assert signature([cursor.fetch(1)[0]]) == signature([peeked])

    def test_skip_and_rewind_replay(self, engine):
        prepared = engine.prepare(path_query(3))
        baseline = signature(itertools.islice(prepared.iter(), 20))
        cursor = prepared.cursor()
        assert cursor.skip(10) == 10
        tail = cursor.fetch(10)
        assert signature(tail) == baseline[10:20]
        cursor.rewind()
        replay = OpCounter()
        head = cursor.fetch(10, counter=replay)
        assert signature(head) == baseline[:10]
        assert all(getattr(replay, op) == 0 for op in OpCounter.__slots__)

    def test_rewind_bounds(self, engine):
        cursor = engine.prepare(path_query(2)).cursor()
        cursor.fetch(3)
        with pytest.raises(ValueError):
            cursor.rewind(5)
        with pytest.raises(ValueError):
            cursor.rewind(-1)
        cursor.rewind(1)
        assert cursor.position == 1

    def test_budget_enforced_before_work(self, engine):
        cursor = engine.prepare(path_query(3)).cursor(budget=10)
        cursor.fetch(8)
        with pytest.raises(CursorBudgetExceeded):
            cursor.fetch(3)
        # The failed fetch did not advance the cursor, and probed
        # exactly one answer past the allowance.
        assert cursor.position == 8
        assert cursor.stream.counter.results == cursor.stream.extensions == 11
        assert len(cursor.fetch(2)) == 2
        assert cursor.remaining_budget == 0

    def test_drain_helpers_stop_at_budget(self, engine):
        prepared = engine.prepare(path_query(3))
        assert sum(len(p) for p in prepared.cursor(budget=10).pages(4)) == 10
        assert len(list(prepared.cursor(budget=7))) == 7
        assert len(fetch_all(prepared.cursor(budget=12), page_size=5)) == 12

    def test_budget_tolerates_small_output(self, engine):
        """A fixed page size past the end of a small output must not
        trip the budget when the output fits inside it."""
        prepared = engine.prepare("Q(x1, x2) :- R1(x1, x2), R2(x2, 3)")
        total = len(list(prepared.iter()))
        cursor = prepared.cursor(budget=total + 1)
        served = []
        while True:
            page = cursor.fetch(10)  # 10 may exceed remaining budget
            if not page:
                break
            served.extend(page)
        assert len(served) == total
        assert cursor.exhausted

    def test_stream_stable_across_plan_cache_eviction(self, engine):
        """Re-prepared queries converge on one physical plan: alternating
        top() between old and new handles must not churn the stream."""
        small = Engine(engine.database, max_cached_plans=1)
        p_old = small.prepare(path_query(3))
        p_old.top(10)
        small.prepare(path_query(2)).top(1)  # evicts p_old's entries
        p_new = small.prepare(path_query(3))
        assert p_new is not p_old
        p_new.top(10)
        misses = small.stats.stream_misses
        for _ in range(3):
            p_old.top(10)
            p_new.top(10)
        assert small.stats.stream_misses == misses
        assert p_old.bind() is p_new.bind()

    def test_snapshot_pins_database_version(self, engine):
        prepared = engine.prepare(path_query(3))
        baseline = signature(itertools.islice(prepared.iter(), 10))
        cursor = prepared.cursor()
        first_page = cursor.fetch(5)
        engine.database["R1"].add((1, 1), -100.0)
        # Pinned stream: pagination continues the pre-mutation snapshot
        # (pages never shift under a client mid-pagination) ...
        next_page = cursor.fetch(5)
        assert signature(first_page) + signature(next_page) == baseline
        # ... while refresh() re-pins to the current version, where the
        # new lightest edge dominates the ranking.
        cursor.refresh()
        assert cursor.position == 0
        assert round(cursor.fetch(1)[0].weight, 6) == round(
            prepared.top(1)[0].weight, 6
        )

    def test_pages_iteration(self, engine):
        prepared = engine.prepare(path_query(2))
        total = len(list(prepared.iter()))
        sizes = [len(p) for p in prepared.cursor().pages(13)]
        assert sum(sizes) == total
        assert all(s == 13 for s in sizes[:-1])


class TestCursorOverSelections:
    def test_cursor_on_query_with_constants(self, engine):
        prepared = engine.prepare("Q(x1, x2) :- R1(x1, x2), R2(x2, 3)")
        expected = signature(prepared.iter())
        cursor = prepared.cursor()
        assert signature(fetch_all(cursor, 4)) == expected


# -- budgeted stepping on the raw enumerators ----------------------------------


class TestEnumeratorStep:
    @pytest.mark.parametrize(
        "algorithm", ["take2", "lazy", "eager", "all", "recursive", "batch"]
    )
    def test_step_batches_concatenate_to_full_stream(self, engine, algorithm):
        from repro.anyk.base import make_enumerator
        from repro.dp.builder import build_tdp_for_query

        tdp = build_tdp_for_query(engine.database, path_query(2))
        baseline = [
            (round(r.weight, 6), r.states)
            for r in make_enumerator(tdp, algorithm)
        ]
        enumerator = make_enumerator(tdp, algorithm)
        assert not enumerator.exhausted
        stepped = []
        while not enumerator.exhausted:
            batch = enumerator.step(7)
            assert len(batch) <= 7
            stepped.extend(batch)
        assert [(round(r.weight, 6), r.states) for r in stepped] == baseline
        # Stepping a dry enumerator stays a cheap no-op.
        assert enumerator.step(5) == []
        assert enumerator.exhausted

    def test_step_interleaves_with_iteration(self, engine):
        from repro.anyk.base import make_enumerator
        from repro.dp.builder import build_tdp_for_query

        tdp = build_tdp_for_query(engine.database, path_query(2))
        baseline = [r.states for r in make_enumerator(tdp, "take2")]
        enumerator = make_enumerator(tdp, "take2")
        mixed = [r.states for r in enumerator.step(3)]
        mixed.append(next(enumerator).states)
        mixed.extend(r.states for r in enumerator.step(4))
        assert mixed == baseline[:8]


def test_cursor_repr_and_stream_stats(engine):
    prepared = engine.prepare(path_query(2))
    cursor = prepared.cursor()
    cursor.fetch(5)
    assert "Cursor(" in repr(cursor)
    stats = cursor.stream.stats()
    assert stats["produced"] >= 5
    assert stats["extensions"] >= 5
    assert isinstance(Cursor(prepared), Cursor)
