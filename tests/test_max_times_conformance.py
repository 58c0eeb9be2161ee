"""Acyclic max-times, lowered: every cell is the object path's.

Max-times has a lane (``a * b``, key ``-a``) but no inverse, so an
acyclic plan ranked by it lowers through :mod:`repro.dp.lower` to a core
whose siblings are recomputed from their prefix product.  The oracle is
``build_tdp`` + ``make_enumerator(flat=False)`` over the same rows:

* {4-path, 4-star, self-join with a repeated variable, two-component
  Cartesian product} x all 7 variants x {memory, SQLite};
* every answer's weight by ``repr``, its order and its witness ids, and
  the ``OpCounter`` after the last answer;
* ``explain()`` reports a compiled core.

Nothing here needs numpy.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.anyk.base import make_enumerator
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp
from repro.dp.flat import CompiledTDP
from repro.engine import Engine
from repro.query.builders import path_query, star_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_TIMES
from repro.util.counters import OpCounter

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
QUERIES = {
    "path4": path_query(4),
    "star4": star_query(4),
    "selfjoin_repeat": parse_query("Q(x, y, z) :- R1(x, y), R1(y, z), R1(z, z)"),
    "cartesian": parse_query("Q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(d, e)"),
}


@lru_cache(maxsize=None)
def make_database(shape: str) -> Database:
    """Positive float weights; every value also on the diagonal."""
    query = QUERIES[shape]
    rng = random.Random(2900 + sorted(QUERIES).index(shape))
    relations = {}
    for atom in query.atoms:
        name = atom.relation_name
        if name not in relations:
            tuples = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(24)]
            tuples += [(v, v) for v in range(1, 7)]
            weights = [rng.uniform(0.5, 2.0) for _ in tuples]
            relations[name] = Relation(name, 2, tuples, weights)
    return Database(list(relations.values()))


def answers(results) -> list[tuple]:
    return [(repr(result.weight), result.witness_ids) for result in results]


@lru_cache(maxsize=None)
def reference(shape: str, variant: str) -> tuple[list, dict]:
    """The object path: ``build_tdp`` and the object enumerators."""
    tdp = build_tdp(
        make_database(shape), build_join_tree(QUERIES[shape]), dioid=MAX_TIMES
    )
    counter = OpCounter()
    rows = answers(make_enumerator(tdp, variant, counter=counter, flat=False))
    return rows, counter.as_dict()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("shape", list(QUERIES))
def test_lowered_max_times_is_the_object_path(tmp_path, shape, backend):
    database = make_database(shape)
    if backend == "sqlite":
        sqlite = SQLiteBackend(str(tmp_path / "max_times.db"))
        for relation in database:
            sqlite.ingest(relation)
        database = sqlite.database()
    with Engine(database) as engine:
        for variant in ALL_VARIANTS:
            prepared = engine.prepare(
                QUERIES[shape], algorithm=variant, dioid=MAX_TIMES
            )
            counter = OpCounter()
            rows = answers(prepared.iter(counter))
            expected_rows, expected_counts = reference(shape, variant)
            assert len(rows) > 50
            physical = prepared.bind()
            explain = prepared.explain()
            assert isinstance(physical.tdp, CompiledTDP)
            assert not physical.tdp.inverse
            assert "compiled core:" in explain
            assert "lane (a * b, key -a)" in explain
            assert rows == expected_rows, variant
            assert counter.as_dict() == expected_counts, variant
