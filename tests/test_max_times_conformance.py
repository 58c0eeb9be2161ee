"""Acyclic max-times, lowered: every cell is the object path's.

Max-times has a lane (``a * b``, key ``-a``) but no inverse, so an
acyclic plan ranked by it lowers through :mod:`repro.dp.lower` to a core
whose siblings are recomputed from their prefix product — unsharded, and
per fragment of a shard plan (fused inline, or on a thread pool).
The oracle is ``build_tdp`` + ``make_enumerator(flat=False)`` over the
same rows:

* {4-path, 4-star, self-join with a repeated variable, two-component
  Cartesian product} x all 7 variants x {memory, SQLite} x {unsharded;
  2 and 4 arrival shards, fused and thread};
* every answer's weight by ``repr``, its order and its witness ids, and,
  unsharded, the ``OpCounter`` after the last answer.  A sharded run adds
  the merge's own operations and orders answers of equal weight by
  arrival, so there each run of equal weights compares as a set (and
  ``batch_nosort``, unranked, as a whole);
* ``explain()`` reports a compiled core.

Nothing here needs numpy.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from repro.anyk.base import make_enumerator
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp
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
#: name -> ``None`` (unsharded) or ``(shards, shard_parallel)``, arrival.
LAYOUTS = {
    "unsharded": None,
    "fused2": (2, "fused"),
    "fused4": (4, "fused"),
    "thread2": (2, "thread"),
    "thread4": (4, "thread"),
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


def by_weight(rows: list[tuple]) -> list[tuple]:
    """Runs of equal weight, in order, each as a set of witnesses."""
    return [
        (weight, sorted(witness for _weight, witness in run))
        for weight, run in itertools.groupby(rows, key=lambda row: row[0])
    ]


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("shape", list(QUERIES))
def test_lowered_max_times_is_the_object_path(tmp_path, shape, backend, layout):
    database = make_database(shape)
    if backend == "sqlite":
        sqlite = SQLiteBackend(str(tmp_path / "max_times.db"))
        for relation in database:
            sqlite.ingest(relation)
        database = sqlite.database()
    options = {"dioid": MAX_TIMES}
    if LAYOUTS[layout] is not None:
        shards, parallel = LAYOUTS[layout]
        options.update(shards=shards, shard_parallel=parallel)
    with Engine(database) as engine:
        for variant in ALL_VARIANTS:
            prepared = engine.prepare(QUERIES[shape], algorithm=variant, **options)
            counter = OpCounter()
            rows = answers(prepared.iter(counter))
            expected_rows, expected_counts = reference(shape, variant)
            assert len(rows) > 50
            physical = prepared.bind()
            explain = prepared.explain()
            if LAYOUTS[layout] is None:
                assert physical.compiled is not None
                assert not physical.compiled.inverse
                assert "compiled core:" in explain
                assert "lane (a * b, key -a)" in explain
                assert rows == expected_rows, variant
                assert counter.as_dict() == expected_counts, variant
            else:
                assert physical.mode == LAYOUTS[layout][1], physical.notes
                assert all(f.compiled is not None for f in physical.fragments)
                assert "compiled cores:" in explain
                if variant == "batch_nosort":
                    assert sorted(rows) == sorted(expected_rows)
                else:
                    assert by_weight(rows) == by_weight(expected_rows), variant
