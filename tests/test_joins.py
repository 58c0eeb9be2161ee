"""Tests for the join algorithms: the Yannakakis oracle, Generic-Join,
and the Rank-Join baseline."""

from collections import Counter

import pytest

from repro.data.database import Database
from repro.data.generators import (
    rank_join_hard_instance,
    uniform_database,
    worst_case_cycle_database,
)
from repro.data.relation import Relation
from repro.joins.generic_join import build_trie, generic_join
from repro.joins.rank_join import rank_join_enumerate
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.parser import parse_query
from repro.util.counters import OpCounter
from tests.conftest import brute_force, weight_signature
from tests.reference.yannakakis import yannakakis


class TestYannakakis:
    @pytest.mark.parametrize("builder,ell,n,dom", [
        (path_query, 3, 30, 4),
        (path_query, 4, 20, 3),
        (star_query, 3, 25, 4),
    ])
    def test_matches_brute_force(self, builder, ell, n, dom):
        db = uniform_database(ell, n, domain_size=dom, seed=ell * 100 + n)
        query = builder(ell)
        expected = weight_signature(brute_force(db, query))
        got = weight_signature(yannakakis(db, query))
        assert got == expected

    def test_empty_result(self):
        db = Database(
            [Relation("R1", 2, [(1, 1)], [0]), Relation("R2", 2, [(2, 2)], [0])]
        )
        assert yannakakis(db, path_query(2)) == []

    def test_counts_intermediate_tuples(self):
        db = uniform_database(2, 20, domain_size=3, seed=9)
        counter = OpCounter()
        results = yannakakis(db, path_query(2), counter=counter)
        # Semi-join reduction makes intermediates output-linear-ish:
        # every counted tuple is part of at least one result prefix.
        assert counter.intermediate_tuples >= len(results)

    def test_matches_tdp_batch(self):
        """Independent oracle agreement: Yannakakis vs T-DP enumeration."""
        from repro.enumeration.api import ranked_enumerate

        db = uniform_database(3, 30, domain_size=4, seed=77)
        query = path_query(3)
        yk = weight_signature(yannakakis(db, query))
        tdp_batch = weight_signature(
            (r.weight, r.output_tuple)
            for r in ranked_enumerate(db, query, algorithm="batch")
        )
        assert yk == tdp_batch


class TestGenericJoin:
    def test_trie_structure(self):
        rel = Relation("R", 2, [(1, 2), (1, 3)], [5.0, 6.0])
        trie = build_trie(rel, [0, 1])
        assert set(trie) == {1}
        assert set(trie[1]) == {2, 3}
        assert trie[1][2] == [(0, 5.0)]

    def test_acyclic_agrees_with_brute_force(self):
        db = uniform_database(3, 25, domain_size=4, seed=11)
        query = path_query(3)
        expected = weight_signature(brute_force(db, query))
        got = weight_signature(
            (w, a) for w, a, _ in generic_join(db, query)
        )
        assert got == expected

    @pytest.mark.parametrize("ell", [3, 4, 5])
    def test_cycles_agree_with_brute_force(self, ell):
        db = uniform_database(ell, 18, domain_size=3, seed=ell)
        query = cycle_query(ell)
        expected = weight_signature(brute_force(db, query))
        got = weight_signature((w, a) for w, a, _ in generic_join(db, query))
        assert got == expected

    def test_worst_case_cycle_output(self):
        db = worst_case_cycle_database(4, 8, seed=1)
        results = generic_join(db, cycle_query(4))
        assert len(results) == 2 * 4 * 4

    def test_witness_ids_returned(self):
        db = uniform_database(2, 15, domain_size=3, seed=13)
        query = path_query(2)
        for weight, _assignment, witness in generic_join(db, query):
            total = sum(
                db[atom.relation_name].weights[tid]
                for atom, tid in zip(query.atoms, witness)
            )
            assert total == pytest.approx(weight)

    def test_custom_variable_order(self):
        db = uniform_database(2, 15, domain_size=3, seed=15)
        query = path_query(2)
        default = weight_signature((w, a) for w, a, _ in generic_join(db, query))
        reordered = generic_join(
            db, query, variable_order=["x3", "x1", "x2"]
        )
        # Assignments still follow query.variables regardless of order.
        assert weight_signature((w, a) for w, a, _ in reordered) == default

    def test_bad_variable_order_rejected(self):
        db = uniform_database(2, 5, domain_size=2, seed=1)
        with pytest.raises(ValueError):
            generic_join(db, path_query(2), variable_order=["x1"])

    def test_triangle_on_self_join(self):
        import random

        rng = random.Random(17)
        edges = Relation("E", 2)
        seen = set()
        for _ in range(25):
            t = (rng.randint(1, 5), rng.randint(1, 5))
            if t not in seen:
                seen.add(t)
                edges.add(t, rng.uniform(0, 10))
        db = Database([edges])
        query = cycle_query(3, relation="E")
        expected = weight_signature(brute_force(db, query))
        got = weight_signature((w, a) for w, a, _ in generic_join(db, query))
        assert got == expected


class TestRankJoin:
    def test_descending_order_and_completeness(self):
        db = uniform_database(3, 15, domain_size=3, seed=19)
        query = path_query(3)
        got = [(w, tuple(a[v] for v in query.variables))
               for w, a in rank_join_enumerate(db, query)]
        weights = [w for w, _ in got]
        assert weights == sorted(weights, reverse=True)
        expected = Counter(
            (round(w, 6), o) for w, o in brute_force(db, query)
        )
        assert Counter((round(w, 6), o) for w, o in got) == expected

    def test_top_result_on_i2_instance(self):
        """Fig 19: the top max-sum result combines light R,S with heavy T."""
        n = 8
        db = rank_join_hard_instance(n)
        query = parse_query("Q(a, b, c) :- R(a, b), S(b, c), T(c)")
        counter = OpCounter()
        stream = rank_join_enumerate(db, query, counter=counter)
        weight, assignment = next(stream)
        assert assignment["a"] == 0 and assignment["c"] == 0
        assert weight == 1.0 + 10.0 + 1000.0 * n
        # The pathological part: Rank-Join buffered (n-1)^2 R-S pairs.
        assert counter.intermediate_tuples >= (n - 1) ** 2

    def test_binary_join_small(self):
        r = Relation("R", 2, [(1, 2), (3, 2)], [10.0, 1.0])
        s = Relation("S", 2, [(2, 5)], [100.0])
        db = Database([r, s])
        query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
        got = list(rank_join_enumerate(db, query))
        assert [w for w, _ in got] == [110.0, 101.0]

    def test_empty_join(self):
        r = Relation("R", 2, [(1, 2)], [1.0])
        s = Relation("S", 2, [(9, 5)], [1.0])
        db = Database([r, s])
        query = parse_query("Q(a, b, c) :- R(a, b), S(b, c)")
        assert list(rank_join_enumerate(db, query)) == []
