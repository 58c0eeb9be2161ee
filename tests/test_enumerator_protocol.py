"""Enumerator protocol tests: interleaving, bounds, Boolean evaluation."""

import pytest

from repro.anyk.base import make_enumerator
from repro.anyk.flat import make_flat_enumerator
from repro.data.generators import uniform_database, worst_case_cycle_database
from repro.dp.builder import build_tdp_for_query
from repro.dp.flat import compile_tdp
from repro.enumeration.api import evaluate_boolean, ranked_enumerate
from repro.enumeration.result import QueryResult
from repro.query.builders import cycle_query, path_query
from repro.query.parser import parse_query
from repro.util.counters import OpCounter
from tests.conftest import ALL_ALGORITHMS, brute_force


class TestInterleaving:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_two_enumerators_share_tdp_safely(self, algorithm):
        """Concurrent enumerators over one TDP must not interfere."""
        db = uniform_database(3, 25, domain_size=4, seed=1)
        tdp = build_tdp_for_query(db, path_query(3))
        first = make_enumerator(tdp, algorithm)
        second = make_enumerator(tdp, algorithm)
        stream_a = []
        stream_b = []
        # Interleave pulls in an irregular pattern.
        for steps_a, steps_b in [(3, 1), (1, 4), (5, 2), (2, 5)]:
            stream_a.extend(r.weight for r in first.top(steps_a))
            stream_b.extend(r.weight for r in second.top(steps_b))
        reference = [w for w, _ in brute_force(db, path_query(3))]
        assert stream_a == pytest.approx(reference[: len(stream_a)])
        assert stream_b == pytest.approx(reference[: len(stream_b)])

    def test_mixed_algorithms_on_shared_tdp(self):
        db = uniform_database(3, 25, domain_size=4, seed=2)
        tdp = build_tdp_for_query(db, path_query(3))
        enums = [make_enumerator(tdp, name) for name in ALL_ALGORITHMS]
        streams = [[r.weight for r in e.top(20)] for e in enums]
        for stream in streams[1:]:
            assert stream == pytest.approx(streams[0])


class TestWithin:
    def test_weight_bound(self):
        db = uniform_database(2, 30, domain_size=4, seed=3)
        tdp = build_tdp_for_query(db, path_query(2))
        expected = [w for w, _ in brute_force(db, path_query(2)) if w <= 5000]
        enum = make_enumerator(tdp, "take2")
        got = [r.weight for r in enum.within(5000.0)]
        assert got == pytest.approx(expected)

    def test_bound_below_minimum_is_empty(self):
        db = uniform_database(2, 10, domain_size=2, seed=4)
        tdp = build_tdp_for_query(db, path_query(2))
        enum = make_enumerator(tdp, "lazy")
        assert list(enum.within(-1.0)) == []

    def test_max_plus_bound_direction(self):
        from repro.ranking.dioid import MAX_PLUS

        db = uniform_database(2, 20, domain_size=3, seed=5)
        tdp = build_tdp_for_query(db, path_query(2), dioid=MAX_PLUS)
        enum = make_enumerator(tdp, "take2")
        got = [r.weight for r in enum.within(15_000.0)]
        assert all(w >= 15_000.0 for w in got), "max-plus: within = at least"

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_bound_is_read_off_the_enumerator_not_the_result(self, algorithm):
        """``within`` keys by the enumerator's own dioid: a flat run that
        emits :class:`QueryResult` views (which reach no T-DP) and an
        object-graph run, Batch included, bound alike."""
        db = uniform_database(2, 30, domain_size=4, seed=3)
        tdp = build_tdp_for_query(db, path_query(2))
        expected = [w for w, _ in brute_force(db, path_query(2)) if w <= 5000]
        core = compile_tdp(tdp)
        views = make_flat_enumerator(
            core, algorithm, emits=(QueryResult, core.assembler())
        )
        got = list(views.within(5000.0))
        assert all(type(r) is QueryResult for r in got)
        assert [r.weight for r in got] == pytest.approx(expected)
        objects = make_enumerator(tdp, algorithm, flat=False)
        assert [r.weight for r in objects.within(5000.0)] == pytest.approx(expected)


class TestBooleanEvaluation:
    def test_satisfiable_acyclic(self):
        db = uniform_database(3, 20, domain_size=3, seed=6)
        assert evaluate_boolean(db, path_query(3)) is True

    def test_unsatisfiable(self):
        from repro.data.database import Database
        from repro.data.relation import Relation

        db = Database(
            [Relation("R1", 2, [(1, 1)], [0]), Relation("R2", 2, [(2, 2)], [0])]
        )
        assert evaluate_boolean(db, path_query(2)) is False

    def test_boolean_4cycle(self):
        db = worst_case_cycle_database(4, 12, seed=7)
        assert evaluate_boolean(db, cycle_query(4)) is True

    def test_boolean_with_projection_head(self):
        db = uniform_database(2, 15, domain_size=2, seed=8)
        query = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)")
        assert evaluate_boolean(db, query) is True

    def test_does_little_work(self):
        db = uniform_database(3, 60, domain_size=6, seed=9)
        counter = OpCounter()
        assert evaluate_boolean(db, path_query(3), counter=counter)
        # Existence established after a single result's worth of work.
        assert counter.results <= 1
        assert counter.pq_pop <= 10


class TestSinglePass:
    def test_enumerators_are_single_pass(self):
        db = uniform_database(2, 15, domain_size=2, seed=10)
        tdp = build_tdp_for_query(db, path_query(2))
        enum = make_enumerator(tdp, "take2")
        total = sum(1 for _ in enum)
        assert total > 0
        assert list(enum) == [], "exhausted enumerators stay exhausted"

    def test_ranked_enumerate_returns_fresh_iterators(self):
        db = uniform_database(2, 15, domain_size=2, seed=11)
        first = list(ranked_enumerate(db, path_query(2)))
        second = list(ranked_enumerate(db, path_query(2)))
        assert [r.weight for r in first] == [r.weight for r in second]
