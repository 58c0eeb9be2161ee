"""One stage scan over column images, in counts a machine cannot blur.

Every lane bind lowers each stage through ``_scan_column_stage`` over
its relation's column image (:attr:`repro.data.relation.Relation.arrays`),
and an image is made once per relation version:

* **one scan**: per bind, ``_scan_column_stage`` runs exactly once per
  stage, over an acyclic query in memory and in SQLite, an atom with a
  repeated variable, a tie-broken member over row relations, an ``int``
  and a ``str`` 4-cycle (bag columns) and a generic decomposition's bags;
* **one image**: two cold binds of unchanged relations make each image
  once; ``add`` extends it without a rebuild, and assigning ``tuples``
  or ``weights`` rebuilds it — and rebinds an engine that already bound
  the old rows — as :meth:`~repro.data.database.Database.touch` does
  after a list is changed in place;
* **one read**: a SQLite image is one statement, retried through a lock
  storm — a cycle's split included — and a read that fails leaves no image;
* **no object graph**: a bind whose dioid has a lane calls neither
  ``build_tdp`` nor ``compile_tdp`` — a UCQ of an acyclic and a cyclic
  member under tropical and max-times included — apart from the one
  ``build_tdp`` of a min-weight projection's free-connex cut.
"""

from __future__ import annotations

import itertools
import random
import sys

import numpy as np
import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.image import ColumnImage
from repro.data.relation import Relation
from repro.dp import builder, flat, lower
from repro.dp.builder import rank_tie_domains
from repro.dp.flat import CompiledTDP
from repro.engine import Engine
from repro.enumeration.api import ranked_enumerate_ucq
from repro.query.builders import cycle_query, path_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_TIMES, TROPICAL, TieBreakingDioid
from repro.util import faults

CHORDED = parse_query(
    "Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d), R4(d, a), R5(a, c)"
)
REPEAT = parse_query("Q(x, y, z) :- R1(x, y), R1(y, z), R1(z, z)")


def database_for(query, n: int = 120, seed: int = 7, value=None) -> Database:
    """``n`` rows per distinct relation of ``query``, hub values 1 and 2
    in every first column (heavy cycle members exist); ``value``
    retypes every value drawn."""
    rng = random.Random(seed)
    relations = []
    for name, arity in dict((a.relation_name, a.arity) for a in query.atoms).items():
        tuples = [
            tuple(
                rng.randint(1, 2) if j % 4 == 0 and c == 0 else rng.randint(1, 12)
                for c in range(arity)
            )
            for j in range(n)
        ]
        if value is not None:
            tuples = [tuple(map(value, row)) for row in tuples]
        weights = [round(rng.uniform(0.1, 3.0), 3) for _ in tuples]
        relations.append(Relation(name, arity, tuples, weights))
    return Database(relations)


@pytest.fixture
def counts(monkeypatch):
    """Counts stage scans, image builds (by relation name), extensions, and
    calls of the object builder and its compiler, under every name a
    ``repro`` module imported them by."""
    seen = {"scans": 0, "builds": [], "extends": 0, "build_tdp": 0, "compile_tdp": 0}
    real_scan = lower._scan_column_stage
    real_read = Relation._read_image
    real_extended = ColumnImage.extended

    def scan(*args):
        seen["scans"] += 1
        return real_scan(*args)

    def read(self):
        seen["builds"].append(self.name)
        return real_read(self)

    def extended(self, *args):
        seen["extends"] += 1
        return real_extended(self, *args)

    monkeypatch.setattr(lower, "_scan_column_stage", scan)
    monkeypatch.setattr(Relation, "_read_image", read)
    monkeypatch.setattr(ColumnImage, "extended", extended)
    for real in (builder.build_tdp, flat.compile_tdp):
        name = real.__name__

        def counted(*args, real=real, name=name, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("repro") and vars(module).get(name) is real:
                monkeypatch.setattr(module, name, counted)
    return seen


def answers(results) -> list:
    return [(result.weight, result.output_tuple) for result in results]


def bind(database, query) -> tuple:
    """``(stages, layouts, answers)`` of one cold bind: the bound plan's
    stages over every member, each member's bag layout, its top 20."""
    with Engine(database, core_cache="off") as engine:
        physical = engine.prepare(query, dioid=TROPICAL).bind()
        tdps = getattr(physical, "tdps", None) or [physical.tdp]
        layouts = {task.bag_layout for task in getattr(physical, "tasks", ())}
        stages = sum(tdp.num_stages for tdp in tdps)
        return stages, layouts, answers(physical.top(20))


#: cell -> (query, values): bound through the engine.
ENGINE_CELLS = {
    "memory": (path_query(4), None),
    "sqlite": (path_query(4), None),
    "repeat": (REPEAT, None),
    "int_cycle": (cycle_query(4), None),
    "str_cycle": (cycle_query(4), lambda v: f"v{v}"),
    "generic": (CHORDED, None),
}


@pytest.mark.parametrize("cell", list(ENGINE_CELLS))
def test_every_stage_scans_once_and_every_image_is_made_once(tmp_path, counts, cell):
    """A generic decomposition joins its inputs' rows: only its bags,
    made per bind, have images — each made once."""
    query, value = ENGINE_CELLS[cell]
    database = database_for(query, value=value)
    inputs = {relation.name for relation in database}
    if cell == "generic":
        inputs = set()
    if cell == "sqlite":
        backend = SQLiteBackend(str(tmp_path / "image.db"))
        for relation in database:
            backend.ingest(relation)
        database = backend.database()
    try:
        stages, layouts, first = bind(database, query)
        assert len(first) == 20
        assert counts["scans"] == stages > 0
        assert counts["build_tdp"] == counts["compile_tdp"] == 0
        assert sorted(n for n in counts["builds"] if n in inputs) == sorted(inputs)
        bags = [n for n in counts["builds"] if n not in inputs]
        assert len(bags) == len(set(bags)) == (stages if cell == "generic" else 0)
        if cell in ("int_cycle", "str_cycle"):
            assert layouts == {"bag columns"}
        # A second cold bind scans again, but makes no image anew.
        counts["scans"], counts["builds"] = 0, []
        stages, _layouts, again = bind(database, query)
        assert counts["scans"] == stages
        assert not [n for n in counts["builds"] if n in inputs]
        assert again == first
    finally:
        database.close()


def test_a_tie_broken_member_over_row_relations_scans_each_stage_once(counts):
    query = parse_query("Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(b, d)")
    database = database_for(query)
    tree = build_join_tree(query)
    positions = {var: slot for slot, var in enumerate(query.variables)}
    tie = TieBreakingDioid(TROPICAL, len(positions))
    rank_tie_domains(tie, [(database, tree, positions)])
    core = lower.lower_member(database, tree, tie, positions, lower.member_lane(tie)[0])
    assert counts["scans"] == core.num_stages == 3
    assert sorted(counts["builds"]) == ["R1", "R2", "R3"]
    assert all(type(rows) is list for rows in core.tuples)


#: An acyclic member and a cyclic one (a 3-cycle with heavy members).
UCQ = [
    parse_query("Q(x, y, z) :- R1(x, y), R2(y, z)"),
    parse_query("Q(x, y, z) :- R1(x, y), R2(y, z), R3(z, x)"),
]


@pytest.mark.parametrize("dioid", [TROPICAL, MAX_TIMES], ids=["tropical", "max_times"])
def test_a_ucq_under_a_lane_lowers_every_member(counts, dioid):
    database = database_for(UCQ[1])
    results = ranked_enumerate_ucq(database, UCQ, dioid=dioid)
    assert len(answers(itertools.islice(results, 20))) == 20
    assert counts["build_tdp"] == counts["compile_tdp"] == 0
    # The path's two stages, and at least one bag per cycle member.
    assert counts["scans"] >= 3


def test_a_min_weight_bind_builds_only_the_free_connex_cut(counts):
    query = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)")
    with Engine(database_for(query), core_cache="off") as engine:
        physical = engine.prepare(query, projection="min_weight").bind()
        assert counts["build_tdp"] == 1 and counts["compile_tdp"] == 0
        assert isinstance(physical.tdp, CompiledTDP)
        assert counts["scans"] == physical.tdp.num_stages
        assert len(physical.top(5)) == 5


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_add_extends_the_image_and_rebinds(tmp_path, counts, backend):
    query = path_query(3)
    database = database_for(query)
    if backend == "sqlite":
        sqlite = SQLiteBackend(str(tmp_path / "add.db"))
        for relation in database:
            sqlite.ingest(relation)
        database = sqlite.database()
    try:
        with Engine(database, core_cache="off") as engine:
            before = answers(engine.prepare(query).top(5))
            counts["builds"] = []
            database["R2"].add((1, 1), -100.0)
            database["R3"].add((1, 1), -100.0)
            after = answers(engine.prepare(query).top(5))
            assert counts["builds"] == [] and counts["extends"] == 2
            assert after != before and after[0][0] < before[0][0]
            image = database["R2"].arrays
            assert len(image) == len(database["R2"]) == 121
            assert [column[-1] for column in image.codes] == [1, 1]
            fresh = Database([
                Relation(r.name, r.arity, list(r.tuples), list(r.weights))
                for r in database
            ])
        with Engine(fresh) as engine:
            assert answers(engine.prepare(query).top(5)) == after
    finally:
        database.close()


def test_a_value_without_a_code_rebuilds_the_image(counts):
    relation = Relation("R", 2, [(1, 2), (3, 4)], [1.0, 2.0])
    assert relation.arrays.code is None
    relation.add(("a", 4), 3.0)
    image = relation.arrays
    assert counts["extends"] == 1 and counts["builds"] == ["R", "R"]
    assert image.code == {1: 0, 2: 1, 3: 2, 4: 3, "a": 4}
    assert [column.tolist() for column in image.codes] == [[0, 2, 4], [1, 3, 3]]


@pytest.mark.parametrize("setter", ["tuples", "weights"])
def test_a_setter_rebuilds_the_image_and_the_same_engine_sees_it(counts, setter):
    """Replacing a relation's list bumps its version: an engine that bound
    the old rows rebinds, as a fresh engine would."""
    query = parse_query("Q(a, b, c) :- R1(a, b), R2(b, c)")
    database = Database([
        Relation("R1", 2, [(1, 2), (1, 3)], [0.0, 0.0]),
        Relation("R2", 2, [(2, 5), (3, 6)], [1.0, 2.0]),
    ])
    with Engine(database) as engine:
        assert [r.weight for r in engine.prepare(query).top(2)] == [1.0, 2.0]
        version = database.version
        if setter == "tuples":
            database["R2"].tuples = [(3, 7), (2, 8)]
        else:
            database["R2"].weights = [5.0, 0.5]
        assert database.version > version
        counts["builds"] = []
        again = answers(engine.prepare(query).top(2))
    assert counts["builds"] == ["R2"]
    with Engine(database) as engine:
        assert answers(engine.prepare(query).top(2)) == again
    expected = (
        [((1, 3, 7), 0.0 + 1.0), ((1, 2, 8), 0.0 + 2.0)] if setter == "tuples"
        else [((1, 3, 6), 0.5), ((1, 2, 5), 5.0)]
    )
    assert [(output, weight) for weight, output in again] == expected


def test_touch_after_an_in_place_change_remakes_the_images(counts):
    query = parse_query("Q(a, b, c) :- R1(a, b), R2(b, c)")
    database = Database([
        Relation("R1", 2, [(1, 2), (1, 3)], [0.0, 0.0]),
        Relation("R2", 2, [(2, 5), (3, 6)], [1.0, 2.0]),
    ])
    with Engine(database) as engine:
        assert [r.weight for r in engine.prepare(query).top(2)] == [1.0, 2.0]
        database["R2"].weights[0] = 3.0
        database.touch()
        counts["builds"] = []
        assert [r.weight for r in engine.prepare(query).top(2)] == [2.0, 3.0]
    assert sorted(counts["builds"]) == ["R1", "R2"]


def sqlite_relation(tmp_path) -> Relation:
    backend = SQLiteBackend(str(tmp_path / "storm.db"))
    rng = random.Random(5)
    backend.ingest(Relation(
        "R", 2, [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(9000)],
        [rng.random() for _ in range(9000)],
    ))
    return backend.database()["R"]


def test_a_lock_storm_during_the_image_read_is_retried(tmp_path, counts):
    relation = sqlite_relation(tmp_path)
    with faults.injected("sqlite.execute=raise:1:2:busy"):
        image = relation.arrays
    assert counts["builds"] == ["R"] and not relation.is_materialized
    assert len(image) == 9000
    assert list(zip(*[column.tolist() for column in image.codes])) == relation.tuples
    assert image.weights.tolist() == relation.weights
    relation.backend.close()


def test_a_lock_storm_during_a_cycle_split_is_retried(tmp_path, counts):
    """A SQLite-backed cycle counts its degrees over the images it read
    through the retrier: one image per relation, the in-memory answers."""
    query = cycle_query(4)
    database = database_for(query, seed=11)
    backend = SQLiteBackend(str(tmp_path / "storm.db"))
    for relation in database:
        backend.ingest(relation)
    stored = backend.database()
    try:
        with faults.injected("sqlite.execute=raise:1:2:busy"):
            stages, layouts, top = bind(stored, query)
        assert sorted(counts["builds"]) == ["R1", "R2", "R3", "R4"]
        assert (stages, layouts, top) == bind(database, query)
    finally:
        stored.close()


def test_a_failed_image_read_leaves_no_image(tmp_path, counts):
    """A storm that outlasts the retrier: the read fails whole, and the
    next one makes the whole image."""
    relation = sqlite_relation(tmp_path)
    with faults.injected("sqlite.execute=raise:1:0:busy"):
        with pytest.raises(Exception, match="locked"):
            relation.arrays
    assert relation._image is None
    image = relation.arrays
    assert len(image) == 9000
    assert np.array_equal(image.codes[0], np.array([t[0] for t in relation.tuples]))
    relation.backend.close()
