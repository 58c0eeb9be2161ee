"""Generic hypertree decomposition tests (arbitrary cyclic CQs)."""

import random

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.generic import decompose_generic, min_fill_bags
from repro.enumeration.api import ranked_enumerate
from repro.query.parser import parse_query
from tests.conftest import brute_force, weight_signature
from tests.reference.yannakakis import yannakakis


def distinct_relation(name, n, domain, rng, arity=2):
    seen = {}
    for _ in range(n):
        t = tuple(rng.randint(1, domain) for _ in range(arity))
        if t not in seen:
            seen[t] = round(rng.uniform(0, 50), 3)
    return Relation(name, arity, list(seen.keys()), list(seen.values()))


@pytest.fixture
def rng():
    return random.Random(123)


class TestGHDStructure:
    def test_single_tree_task(self, rng):
        db = Database([distinct_relation(f"R{i}", 15, 4, rng) for i in (1, 2, 3)])
        query = parse_query("Q(a,b,c) :- R1(a,b), R2(b,c), R3(c,a)")
        task = decompose_generic(db, query)
        assert task.query.is_acyclic()
        assert task.query.is_full()
        assert set(task.query.variables) == {"a", "b", "c"}

    def test_triangle_single_bag(self, rng):
        db = Database([distinct_relation(f"R{i}", 15, 4, rng) for i in (1, 2, 3)])
        query = parse_query("Q(a,b,c) :- R1(a,b), R2(b,c), R3(c,a)")
        task = decompose_generic(db, query)
        assert len(task.database) == 1, "a triangle fits in one bag"

    def test_bag_weights_equal_witness_weights(self, rng):
        db = Database([distinct_relation(f"R{i}", 15, 4, rng) for i in (1, 2, 3)])
        query = parse_query("Q(a,b,c) :- R1(a,b), R2(b,c), R3(c,a)")
        task = decompose_generic(db, query)
        rows = yannakakis(task.database, task.query)
        expected = weight_signature(brute_force(db, query))
        assert weight_signature(rows) == expected


class TestGHDEndToEnd:
    def test_chorded_square(self, rng):
        db = Database(
            [distinct_relation(f"R{i}", 14, 4, rng) for i in (1, 2, 3, 4, 5)]
        )
        query = parse_query(
            "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)"
        )
        expected = weight_signature(brute_force(db, query))
        got = weight_signature(
            (r.weight, r.output_tuple)
            for r in ranked_enumerate(db, query, algorithm="take2")
        )
        assert got == expected

    def test_k4_clique_query(self, rng):
        db = Database(
            [distinct_relation(f"R{i}", 12, 3, rng) for i in range(1, 7)]
        )
        query = parse_query(
            "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c), R6(b,d)"
        )
        expected = weight_signature(brute_force(db, query))
        for algorithm in ("take2", "recursive", "batch"):
            got = weight_signature(
                (r.weight, r.output_tuple)
                for r in ranked_enumerate(db, query, algorithm=algorithm)
            )
            assert got == expected, algorithm

    def test_ternary_atoms_cyclic(self, rng):
        db = Database(
            [
                distinct_relation("R1", 20, 3, rng, arity=3),
                distinct_relation("R2", 20, 3, rng, arity=3),
                distinct_relation("R3", 20, 3, rng, arity=2),
            ]
        )
        query = parse_query("Q(a,b,c,d) :- R1(a,b,c), R2(b,c,d), R3(d,a)")
        expected = weight_signature(brute_force(db, query))
        got = weight_signature(
            (r.weight, r.output_tuple)
            for r in ranked_enumerate(db, query, algorithm="lazy")
        )
        assert got == expected

    def test_ranked_order(self, rng):
        db = Database(
            [distinct_relation(f"R{i}", 14, 4, rng) for i in (1, 2, 3, 4, 5)]
        )
        query = parse_query(
            "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(b,d)"
        )
        weights = [
            r.weight for r in ranked_enumerate(db, query, algorithm="take2")
        ]
        assert weights == sorted(weights)

    def test_empty_output(self, rng):
        db = Database(
            [
                Relation("R1", 2, [(1, 2)], [0.0]),
                Relation("R2", 2, [(2, 3)], [0.0]),
                Relation("R3", 2, [(3, 9)], [0.0]),  # 9 never loops back
            ]
        )
        # Force the generic path by adding a chord making it non-simple.
        db.add(Relation("R4", 2, [(1, 3)], [0.0]))
        query = parse_query("Q(a,b,c) :- R1(a,b), R2(b,c), R3(c,a), R4(a,c)")
        assert list(ranked_enumerate(db, query)) == []


def _repeated_rows(name: str, rng: random.Random) -> Relation:
    """At most 36 distinct pairs on 6 values, the first 5 rows repeated
    (each copy its own weight)."""
    pairs = list({(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(30)})
    tuples = pairs + pairs[:5]
    return Relation(name, 2, tuples, [round(rng.uniform(0, 9), 3) for _ in tuples])


def witnesses(db, query) -> list:
    """Every witness as ``(weight, output)``, one per combination of
    tuple positions: a backtracking join, atom by atom."""
    out = []

    def extend(level, assignment, weight):
        if level == len(query.atoms):
            out.append((weight, tuple(assignment[v] for v in query.head)))
            return
        atom = query.atoms[level]
        relation = db[atom.relation_name]
        for values, row_weight in zip(relation.tuples, relation.weights):
            bound = dict(assignment)
            if all(bound.setdefault(v, x) == x for v, x in zip(atom.variables, values)):
                extend(level + 1, bound, weight + row_weight)

    extend(0, {}, 0.0)
    return out


class TestRepeatedTuples:
    """A relation that repeats a tuple holds two witnesses, each ranked."""

    @pytest.mark.parametrize("text", [
        "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)",
        "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a)",
    ], ids=["chorded_square", "simple_cycle"])
    def test_every_witness_is_ranked(self, text):
        query = parse_query(text)
        rng = random.Random(37)
        db = Database([_repeated_rows(atom.relation_name, rng) for atom in query.atoms])
        expected = witnesses(db, query)
        results = list(ranked_enumerate(db, query, algorithm="take2"))
        assert len(results) == len(expected) > 100
        assert weight_signature(
            (r.weight, r.output_tuple) for r in results
        ) == weight_signature(expected)
        assert len({r.witness_ids for r in results}) == len(results)


#: query -> the bags networkx's ``treewidth_min_fill_in`` lists, in order.
MIN_FILL_BAGS = {
    "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)": [
        "acd", "abc",
    ],
    "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c), R6(b,d)": [
        "abcd",
    ],
    "Q(a,b,c,d,e) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e), R5(e,a)": [
        "cde", "bce", "abe",
    ],
    "Q(a,b,c,d,e,f) :- R1(a,b), R2(b,c), R3(c,d), R4(d,e), R5(e,f), R6(f,a), R7(a,d)": [
        "def", "adf", "acd", "abc",
    ],
}


@pytest.mark.parametrize("text", list(MIN_FILL_BAGS))
def test_min_fill_bags_are_pinned(text):
    query = parse_query(text)
    bags = min_fill_bags(query.variables, query.hypergraph().primal_edges())
    assert bags == [frozenset(bag) for bag in MIN_FILL_BAGS[text]]


def test_min_fill_bags_are_networkx_s():
    """The in-tree min-fill against networkx, which is a test-only oracle."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.approximation import treewidth_min_fill_in

    rng = random.Random(4242)
    for _ in range(600):
        nodes = [f"v{i}" for i in range(rng.randint(1, 9))]
        rng.shuffle(nodes)
        density = rng.random()
        edges = [
            (u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
            if rng.random() < density
        ]
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        _width, tree = treewidth_min_fill_in(graph)
        assert min_fill_bags(nodes, edges) == list(tree.nodes())
