"""Simple-cycle decomposition tests (Section 5.3.1, Fig 8)."""


import pytest

from repro.data.database import Database
from repro.data.generators import (
    nprr_hard_instance,
    uniform_database,
    worst_case_cycle_database,
)
from repro.data.relation import Relation
from repro.decomposition.cycle import (
    decompose_cycle,
    default_threshold,
    detect_simple_cycle,
)
from repro.enumeration.api import ranked_enumerate
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.parser import parse_query
from tests.conftest import brute_force, weight_signature
from tests.reference.yannakakis import yannakakis


def _reorder(rows, bag_query, original_query):
    """Align bag-query assignments with the original variable order."""
    positions = [
        bag_query.variables.index(v) for v in original_query.variables
    ]
    return [
        (weight, tuple(values[p] for p in positions)) for weight, values in rows
    ]


class TestDetection:
    def test_standard_cycles(self):
        for ell in (3, 4, 5, 6):
            walk = detect_simple_cycle(cycle_query(ell))
            assert walk is not None
            assert len(walk) == ell
            assert [a for a, _ in walk] == list(range(ell))

    def test_reversed_orientation_detected(self):
        # R2 written backwards: R1(x1,x2), R2(x3,x2), R3(x3,x1).
        q = parse_query("Q(x1,x2,x3) :- R1(x1,x2), R2(x3,x2), R3(x3,x1)")
        walk = detect_simple_cycle(q)
        assert walk is not None
        assert len(walk) == 3

    def test_non_cycles_rejected(self):
        assert detect_simple_cycle(path_query(4)) is None
        assert detect_simple_cycle(star_query(4)) is None
        q = parse_query("Q(a,b,c) :- R(a,b), S(b,c), T(a,c), U(a,b)")
        assert detect_simple_cycle(q) is None

    def test_ternary_atom_rejected(self):
        q = parse_query("Q(a,b,c) :- R(a,b,c), S(c,a)")
        assert detect_simple_cycle(q) is None

    def test_two_atoms_rejected(self):
        q = parse_query("Q(a,b) :- R(a,b), S(b,a)")
        assert detect_simple_cycle(q) is None

    def test_self_join_cycle_detected(self):
        q = cycle_query(4, relation="E")
        assert detect_simple_cycle(q) is not None


class TestThreshold:
    def test_matches_paper_for_even_lengths(self):
        # l=4: n^(1/2); l=6: n^(1/3) (the paper's n^(2/l)).
        assert default_threshold(100, 4) == 10
        assert default_threshold(1000, 6) == 10

    def test_odd_lengths_balanced(self):
        assert default_threshold(1000, 5) == 10  # n^(1/3)

    def test_minimum_two(self):
        assert default_threshold(1, 4) == 2


class TestPartitions:
    def test_member_count(self):
        db = uniform_database(4, 30, domain_size=4, seed=1)
        tasks = decompose_cycle(db, cycle_query(4))
        # At most l heavy members + 1 light member; empty ones dropped.
        assert 1 <= len(tasks) <= 5

    def test_bag_sizes_bounded(self):
        n = 60
        db = uniform_database(4, n, domain_size=6, seed=2)
        tasks = decompose_cycle(db, cycle_query(4))
        bound = 4 * n * default_threshold(n, 4)
        for task in tasks:
            for relation in task.database:
                assert len(relation) <= bound

    def test_members_are_acyclic_full_queries(self):
        db = uniform_database(5, 25, domain_size=4, seed=3)
        tasks = decompose_cycle(db, cycle_query(5))
        for task in tasks:
            assert task.query.is_acyclic()
            assert task.query.is_full()
            assert set(task.query.head) == {f"x{i}" for i in range(1, 6)}

    def test_outputs_disjoint_and_complete(self):
        db = uniform_database(4, 24, domain_size=3, seed=4)
        query = cycle_query(4)
        tasks = decompose_cycle(db, query)
        all_outputs = []
        for task in tasks:
            rows = yannakakis(task.database, task.query)
            all_outputs.extend(
                weight_signature(_reorder(rows, task.query, query))
            )
        expected = weight_signature(brute_force(db, query))
        assert sorted(all_outputs) == expected, "disjoint cover of the output"

    def test_lineage_covers_every_atom_once(self):
        db = uniform_database(4, 20, domain_size=3, seed=5)
        query = cycle_query(4)
        for task in decompose_cycle(db, query):
            pinned_atoms: list[int] = []
            for name in task.lineage:
                sample = task.lineage[name]
                if sample:
                    pinned_atoms.extend(a for a, _ in sample[0])
            assert sorted(pinned_atoms) == [0, 1, 2, 3]

    def test_not_a_cycle_raises(self):
        db = uniform_database(3, 10, domain_size=3, seed=6)
        with pytest.raises(ValueError, match="not a simple cycle"):
            decompose_cycle(db, path_query(3))

    def test_custom_threshold(self):
        db = worst_case_cycle_database(4, 16, seed=7)
        query = cycle_query(4)
        low = decompose_cycle(db, query, threshold=2)
        high = decompose_cycle(db, query, threshold=10**9)
        # With an absurd threshold nothing is heavy: only the light member.
        assert len(high) == 1
        assert high[0].label == "all-light"
        expected = weight_signature(brute_force(db, query))
        for tasks in (low, high):
            outputs = []
            for task in tasks:
                rows = yannakakis(task.database, task.query)
                outputs.extend(
                    weight_signature(_reorder(rows, task.query, query))
                )
            assert sorted(outputs) == expected


class TestEndToEnd:
    @pytest.mark.parametrize("ell,n,dom", [(3, 24, 4), (4, 20, 3), (5, 16, 3), (6, 12, 3)])
    def test_cycles_all_algorithms(self, ell, n, dom):
        db = uniform_database(ell, n, domain_size=dom, seed=ell * 7 + n)
        query = cycle_query(ell)
        expected = weight_signature(brute_force(db, query))
        for algorithm in ("take2", "lazy", "recursive", "batch"):
            got = [
                (r.weight, r.output_tuple)
                for r in ranked_enumerate(db, query, algorithm=algorithm)
            ]
            weights = [w for w, _ in got]
            assert weights == sorted(weights), algorithm
            assert weight_signature(got) == expected, algorithm

    def test_self_join_cycle(self):
        import random

        rng = random.Random(8)
        edges = Relation("E", 2)
        for _ in range(20):
            edges.add((rng.randint(1, 5), rng.randint(1, 5)), rng.uniform(0, 10))
        db = Database([edges])
        query = cycle_query(4, relation="E")
        expected = weight_signature(brute_force(db, query))
        got = weight_signature(
            (r.weight, r.output_tuple)
            for r in ranked_enumerate(db, query, algorithm="take2")
        )
        assert got == expected

    def test_nprr_instance_top_first(self):
        """On I1 the top 4-cycle must come out without full materialisation."""
        db = nprr_hard_instance(12, seed=9)
        query = cycle_query(4)
        expected = brute_force(db, query)
        first = next(iter(ranked_enumerate(db, query, algorithm="lazy")))
        assert first.weight == pytest.approx(expected[0][0])

    def test_empty_cycle_output(self):
        db = Database(
            [
                Relation("R1", 2, [(1, 2)], [1.0]),
                Relation("R2", 2, [(2, 3)], [1.0]),
                Relation("R3", 2, [(3, 4)], [1.0]),
                Relation("R4", 2, [(4, 99)], [1.0]),  # never closes
            ]
        )
        assert list(ranked_enumerate(db, cycle_query(4))) == []

    def test_weights_match_witnesses(self):
        db = uniform_database(4, 16, domain_size=3, seed=10)
        query = cycle_query(4)
        for r in ranked_enumerate(db, query, algorithm="take2"):
            total = sum(
                db[a.relation_name].weights[tid]
                for a, tid in zip(query.atoms, r.witness_ids)
            )
            assert total == pytest.approx(r.weight)


class TestMixedTypeValues:
    """Heavy values that do not order against each other (``int`` with
    ``str``) rank through ``ranking_order`` instead of raising."""

    def test_heavy_values_of_mixed_types_decompose(self):
        from repro.engine import Engine

        def database(node):
            # ``node`` and 1 are heavy entry values of every atom.
            edges = [(node, 1), (1, node), (node, 2), (1, 2), (2, node), (2, 1)] * 3
            weights = [float(j % 5) for j in range(len(edges))]
            return Database([
                Relation(f"R{i}", 2, edges, weights) for i in range(1, 5)
            ])

        query = cycle_query(4)
        mixed = database("a")
        tasks = decompose_cycle(mixed, query, threshold=2)
        assert any(task.label.startswith("heavy") for task in tasks)
        # Coded in ranking order, like any value: the bags are columns.
        assert {task.bag_layout for task in tasks} == {"bag columns"}
        # Renaming 'a' to 0 (a fresh int) changes no weight.
        top = Engine(mixed).prepare(query).top(3)
        renamed = Engine(database(0)).prepare(query).top(3)
        assert len(top) == 3
        assert [r.weight for r in top] == [r.weight for r in renamed]

    def test_active_domain_of_mixed_types(self):
        from repro.decomposition.generic import _active_domain

        db = Database([Relation("R", 2, [("a", 1), (2, None), (1, "b")], [0.0] * 3)])
        query = parse_query("Q(x, y) :- R(x, y)")
        assert _active_domain(db, query, "x") == [1, 2, "a"]
        assert _active_domain(db, query, "y") == [None, 1, "b"]
