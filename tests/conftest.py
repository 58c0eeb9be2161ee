"""Shared fixtures and oracles for the test suite.

The central oracle is :func:`brute_force`: an exhaustive evaluation of a
full CQ by iterating the Cartesian product of all atom relations.  Every
enumeration pipeline is validated against it on instances small enough
for the product to stay tractable.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Any

import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import TROPICAL, SelectiveDioid

#: All any-k algorithm names, including both batch variants.
ALL_ALGORITHMS = ["take2", "lazy", "eager", "all", "recursive", "batch"]
ANYK_ALGORITHMS = ["take2", "lazy", "eager", "all", "recursive"]


def brute_force(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    head: tuple[str, ...] | None = None,
) -> list[tuple[Any, tuple]]:
    """All answers of a full CQ as ``(weight, output_tuple)``, ranked.

    Exhaustive: iterates the full Cartesian product of the atom
    relations, so only use it on small instances.
    """
    head = head or query.head
    rows_per_atom = [
        list(enumerate(database[atom.relation_name].tuples))
        for atom in query.atoms
    ]
    out: list[tuple[Any, Any, tuple]] = []
    for combo in product(*rows_per_atom):
        assignment: dict[str, Any] = {}
        ok = True
        weight = dioid.one
        for (position, values), atom in zip(combo, query.atoms):
            for var, value in zip(atom.variables, values):
                if assignment.setdefault(var, value) != value:
                    ok = False
                    break
            if not ok:
                break
            weight = dioid.times(
                weight, database[atom.relation_name].weights[position]
            )
        if ok:
            out.append(
                (dioid.key(weight), weight, tuple(assignment[v] for v in head))
            )
    out.sort(key=lambda item: (item[0], item[2]))
    return [(weight, output) for _key, weight, output in out]


def weight_signature(results, precision: int = 6):
    """Multiset-comparable form of (weight, output) pairs (float-safe)."""
    return sorted((round(w, precision), o) for w, o in results)


def stored_rows(backend, name: str) -> list[tuple[tuple, Any]]:
    """``(tuple, weight)`` pairs of a stored relation, in insertion order,
    through the backend's one read (``fetch_rows``)."""
    return [
        (row[:-1], row[-1])
        for batch in backend.fetch_rows(name)
        for row in batch
    ]


def assert_ranked(weights, dioid: SelectiveDioid = TROPICAL) -> None:
    """Assert weights are non-decreasing under the dioid's order."""
    keys = [dioid.key(w) for w in weights]
    assert keys == sorted(keys), "results are not in ranked order"


def random_relation(
    name: str,
    n: int,
    domain: int,
    rng: random.Random,
    arity: int = 2,
    distinct: bool = False,
) -> Relation:
    """A random relation with uniform values and weights."""
    relation = Relation(name, arity)
    seen: set[tuple] = set()
    for _ in range(n):
        values = tuple(rng.randint(1, domain) for _ in range(arity))
        if distinct:
            if values in seen:
                continue
            seen.add(values)
        relation.add(values, round(rng.uniform(0.0, 100.0), 3))
    return relation


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_path_db() -> Database:
    """Three binary relations for a 3-path with a few thousand answers."""
    from repro.data.generators import uniform_database

    return uniform_database(3, 40, domain_size=5, seed=42)


@pytest.fixture
def tiny_db() -> Database:
    """A handcrafted database with known answers for spot checks."""
    r = Relation("R", 2, [(1, 2), (1, 3), (2, 3)], [1.0, 5.0, 2.0])
    s = Relation("S", 2, [(2, 7), (3, 7), (3, 8)], [2.0, 0.5, 4.0])
    return Database([r, s])
