"""Exact conformance: the engine's ranked sequence is the brute-force one.

Every answer of these workloads has its own weight: tuple ``i`` of
relation ``j`` weighs ``(i + 1) * 64**j`` and each relation holds fewer
than 64 rows, so a witness's weight sum decodes the witness, every sum is
float-exact, and the ranked order is unique.  That makes the comparison
exact, answer by answer and in sequence — weight, assignment, witness
ids, witness rows and output tuple — against an exhaustive product of
the relations, for all seven any-k variants x {memory, SQLite} over:

* a 3-path and a 3-star, under tropical and max-plus (the lowered cores);
* a one-slot lexicographic dioid (the object-graph path);
* a projection, whose answers are the projected full answers;
* a self-join, where one weight vector serves both atoms and symmetric
  witnesses tie by construction, so each run of equal weights compares
  as a set;
* dead rows, an empty relation and an empty output.

A Hypothesis sweep drives random shapes, sizes and domains through the
same comparison.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.flat import CompiledTDP
from repro.engine import Engine
from repro.query.builders import path_query, star_query
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_PLUS, TROPICAL, LexicographicDioid

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
BACKENDS = ["memory", "sqlite"]
BASE = 64
LEX = LexicographicDioid(1)


def decoding_weights(n: int, relation_index: int) -> list[float]:
    assert n < BASE
    scale = float(BASE**relation_index)
    return [(i + 1) * scale for i in range(n)]


def decoding_database(num_relations: int, n: int, domain: int, seed: int) -> Database:
    rng = random.Random(seed)
    return Database([
        Relation(
            f"R{j + 1}", 2,
            [(rng.randint(1, domain), rng.randint(1, domain)) for _ in range(n)],
            decoding_weights(n, j),
        )
        for j in range(num_relations)
    ])


def boxed(database: Database) -> Database:
    """The same rows, each weight a one-slot lexicographic vector."""
    return Database([
        Relation(r.name, r.arity, list(r.tuples), [(w,) for w in r.weights])
        for r in database
    ])


def open_database(database: Database, backend: str, tmp_path) -> Database:
    if backend == "memory":
        return database
    sqlite = SQLiteBackend(str(tmp_path / "decoding.db"))
    for relation in database:
        sqlite.ingest(relation)
    return sqlite.database()


def row(result) -> tuple:
    return (
        result.weight,
        tuple(sorted(result.assignment.items())),
        result.witness_ids,
        result.witness,
        result.output_tuple,
    )


def oracle(database: Database, query, dioid, head=None) -> list[tuple]:
    """Every answer by an exhaustive product of the atoms' rows, in the
    dioid's order (ties, which only a self-join has, by witness ids)."""
    head = query.head if head is None else head
    relations = [database[atom.relation_name] for atom in query.atoms]
    answers = []
    for witness_ids in itertools.product(*(range(len(r)) for r in relations)):
        assignment: dict = {}
        weight = dioid.one
        for atom, relation, tuple_id in zip(query.atoms, relations, witness_ids):
            values = relation.tuples[tuple_id]
            pairs = zip(atom.variables, values)
            if any(assignment.setdefault(v, x) != x for v, x in pairs):
                break
            weight = dioid.times(weight, relation.weights[tuple_id])
        else:
            witness = tuple(r.tuples[i] for r, i in zip(relations, witness_ids))
            answers.append((
                dioid.key(weight),
                (
                    weight,
                    tuple(sorted((v, assignment[v]) for v in head)),
                    witness_ids,
                    witness,
                    tuple(assignment[v] for v in head),
                ),
            ))
    answers.sort(key=lambda item: (item[0], item[1][2]))
    return [answer for _key, answer in answers]


def ranked(database: Database, query, variant: str, dioid=TROPICAL) -> list[tuple]:
    with Engine(database, core_cache="off") as engine:
        prepared = engine.prepare(query, algorithm=variant, dioid=dioid)
        return [row(result) for result in prepared.iter()]


def assert_exact(got: list, expected: list, variant: str) -> None:
    assert expected, "the workload has answers"
    if variant == "batch_nosort":
        # Unranked: the same answers, in any order.
        assert sorted(got, key=repr) == sorted(expected, key=repr)
    else:
        assert got == expected, variant


# -- the lowered cores -----------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_path(tmp_path, backend, variant):
    full = decoding_database(3, 40, domain=7, seed=5)
    query = path_query(3)
    database = open_database(full, backend, tmp_path)
    expected = oracle(full, query, TROPICAL)
    assert_exact(ranked(database, query, variant), expected, variant)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_star(tmp_path, backend, variant):
    full = decoding_database(3, 30, domain=5, seed=11)
    query = star_query(3)
    database = open_database(full, backend, tmp_path)
    expected = oracle(full, query, TROPICAL)
    assert_exact(ranked(database, query, variant), expected, variant)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_max_plus(tmp_path, backend, variant):
    full = decoding_database(3, 25, domain=5, seed=23)
    query = path_query(3)
    database = open_database(full, backend, tmp_path)
    expected = oracle(full, query, MAX_PLUS)
    assert_exact(ranked(database, query, variant, MAX_PLUS), expected, variant)


# -- the object-graph path -------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_lexicographic_object_path(variant):
    database = boxed(decoding_database(3, 20, domain=5, seed=31))
    query = path_query(3)
    with Engine(database, core_cache="off") as engine:
        assert not isinstance(engine.prepare(query, dioid=LEX).bind().tdp, CompiledTDP)
    expected = oracle(database, query, LEX)
    assert_exact(ranked(database, query, variant, LEX), expected, variant)


# -- projection and self-join ----------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_projection(tmp_path, backend, variant):
    full = decoding_database(3, 30, domain=6, seed=41)
    query = parse_query("Q(x1, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)")
    database = open_database(full, backend, tmp_path)
    expected = oracle(full, query, TROPICAL, head=("x1", "x4"))
    assert_exact(ranked(database, query, variant), expected, variant)


def by_weight(rows: list[tuple]) -> list[tuple]:
    """Runs of equal weight, in order, each as a sorted list of answers."""
    return [
        (weight, sorted(run))
        for weight, run in itertools.groupby(rows, key=lambda answer: answer[0])
    ]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_self_join(tmp_path, backend, variant):
    rng = random.Random(3)
    edges = [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(35)]
    full = Database([Relation("E", 2, edges, decoding_weights(35, 0))])
    query = parse_query("Q(x, y, z) :- E(x, y), E(y, z)")
    database = open_database(full, backend, tmp_path)
    got = ranked(database, query, variant)
    expected = oracle(full, query, TROPICAL)
    assert expected and len({answer[0] for answer in expected}) < len(expected)
    if variant == "batch_nosort":
        assert sorted(got) == sorted(expected)
    else:
        assert by_weight(got) == by_weight(expected)


# -- empty and dead rows ---------------------------------------------------------


def dead_rows() -> Database:
    """Half of R1's rows find no partner."""
    r1 = Relation("R1", 2, [(1, 1), (2, 1), (3, 99), (4, 99)], decoding_weights(4, 0))
    r2 = Relation("R2", 2, [(1, 5), (1, 6), (7, 8)], decoding_weights(3, 1))
    return Database([r1, r2])


def empty_relation() -> Database:
    r2 = Relation("R2", 2, [(1, 5), (1, 6)], decoding_weights(2, 1))
    return Database([Relation("R1", 2, [], []), r2])


def empty_output() -> Database:
    """Both relations hold rows and no pair joins."""
    r1 = Relation("R1", 2, [(1, 1), (2, 2)], decoding_weights(2, 0))
    r2 = Relation("R2", 2, [(3, 5), (4, 6)], decoding_weights(2, 1))
    return Database([r1, r2])


EDGES = {
    "dead_rows": dead_rows,
    "empty_relation": empty_relation,
    "empty_output": empty_output,
}


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("edge", list(EDGES))
def test_edges(tmp_path, edge, backend, variant):
    full = EDGES[edge]()
    query = path_query(2)
    database = open_database(full, backend, tmp_path)
    got = ranked(database, query, variant)
    expected = oracle(full, query, TROPICAL)
    assert (edge == "dead_rows") == bool(expected)
    if variant == "batch_nosort":
        assert sorted(got, key=repr) == sorted(expected, key=repr)
    else:
        assert got == expected


# -- randomized ------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    shape=st.sampled_from(["path", "star"]),
    size=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=12),
    domain=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
    variant=st.sampled_from(ALL_VARIANTS[:-1]),
)
def test_hypothesis_exact_ranking(shape, size, n, domain, seed, variant):
    full = decoding_database(size, n, domain, seed)
    query = (path_query if shape == "path" else star_query)(size)
    assert ranked(full, query, variant) == oracle(full, query, TROPICAL)
