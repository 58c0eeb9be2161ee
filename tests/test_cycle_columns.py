"""Bag columns against bag rows: the cycle decomposition's two paths agree.

Where the dioid has a lane and the cycle's relations hold ``int`` values
and ``float`` weights, :func:`~repro.decomposition.cycle.decompose_cycle`
builds its bags as columns (column-backed relations); everywhere else it
builds rows, and the rows are the reference (:func:`force_bag_rows`
builds them for any relations).  The
benchmark's cycle reference is bound through the same decomposition, so
this suite is what guards the column path:

* **bags**: per member its label and query, per bag its tuples, its
  weights by ``float.hex`` and its lineage (atoms and tuple-id columns),
  over l = 3 .. 6, thresholds that force heavy members, self-joins, all
  three lanes and palettes with signed zeros, ±inf and NaN;
* **answers**: a bound plan ranks the same answers, weight bits,
  assignments and witnesses either way;
* **fallbacks**: ``str``, ``bool`` and ``None`` values, ``int`` weights
  and a dioid without a lane each run the row path, as the ``decompose``
  span's ``columns`` attribute and each member's ``bag_layout`` say.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition import cycle
from repro.decomposition.cycle import decompose_cycle
from repro.engine import Engine
from repro.obs.trace import Tracer
from repro.query.builders import cycle_query
from repro.ranking.dioid import MAX_PLUS, MAX_TIMES, TROPICAL, MaxTimesDioid
from repro.util import vec

LANES = {"tropical": TROPICAL, "max_plus": MAX_PLUS, "max_times": MAX_TIMES}
PALETTES = {
    "floats": None,
    "signed_zeros": (0.0, -0.0, 1.0, -1.0),
    "infinities": (math.inf, -math.inf, 0.0, 2.5),
    "nan": (math.nan, 0.5, -0.0, math.inf),
}


def weights_of(rng: random.Random, palette: str, n: int) -> list[float]:
    special = PALETTES[palette]
    if special is None:
        return [round(rng.uniform(0.05, 3.0), 3) for _ in range(n)]
    return [rng.choice(special) if rng.random() < 0.6 else rng.random() for _ in range(n)]


def cycle_database(
    length: int, palette: str, seed: int, self_join: bool = False, n: int = 40
) -> Database:
    """Hub values 1 and 2 in every first column: heavy members exist."""
    rng = random.Random(seed)
    names = ["E"] if self_join else [f"R{i}" for i in range(1, length + 1)]
    return Database([
        Relation(
            name, 2,
            [
                (rng.randint(1, 2) if j % 3 == 0 else rng.randint(3, 9), rng.randint(1, 9))
                for j in range(n)
            ],
            weights_of(rng, palette, n),
        )
        for name in names
    ])


def snapshot(tasks) -> list:
    """Everything a member's bags hold, weights by their bits."""
    return [
        (
            task.label,
            repr(task.query),
            [
                (
                    name,
                    bag.tuples,
                    [float.hex(weight) for weight in bag.weights],
                    task.lineage[name].atoms,
                    [list(column) for column in task.lineage[name].columns],
                    repr([task.lineage[name][i] for i in range(len(bag))]),
                )
                for name, bag in task.database.relations.items()
            ],
        )
        for task in tasks
    ]


def force_bag_rows(patch: pytest.MonkeyPatch) -> None:
    """Have the decomposition build bag rows whatever the relations hold."""
    patch.setattr(cycle, "_scan_columns", lambda _relation, _scan: "forced")


def decompose_both(monkeypatch, database, query, dioid, threshold):
    """``(columns, rows)``: the decomposition as it runs, then as rows."""
    columns = decompose_cycle(database, query, dioid=dioid, threshold=threshold)
    with monkeypatch.context() as patch:
        force_bag_rows(patch)
        rows = decompose_cycle(database, query, dioid=dioid, threshold=threshold)
    return columns, rows


@pytest.mark.parametrize("palette", list(PALETTES))
@pytest.mark.parametrize("lane", list(LANES))
@pytest.mark.parametrize("self_join", [False, True], ids=["distinct", "self_join"])
@pytest.mark.parametrize("length", [3, 4, 5, 6])
def test_bag_columns_are_the_bag_rows(monkeypatch, length, self_join, lane, palette):
    database = cycle_database(length, palette, seed=3400 + length, self_join=self_join)
    query = cycle_query(length, relation="E" if self_join else None)
    heavy_members = 0
    for threshold in (None, 2, 4):
        columns, rows = decompose_both(monkeypatch, database, query, LANES[lane], threshold)
        assert {task.bag_layout for task in columns} == {"bag columns"}
        assert {task.bag_layout for task in rows} == {"bag rows (forced)"}
        assert all(
            bag.arrays is not None and not bag.is_materialized
            for task in columns for bag in task.database
        )
        assert snapshot(columns) == snapshot(rows)
        heavy_members += sum(task.label.startswith("heavy") for task in columns)
    assert heavy_members > 0, "some threshold forces a heavy member"


def answers(physical, k: int = 400) -> list:
    """Weights by their bits; the rest by ``repr``, so an id or value of
    another type (``np.int64``) would not pass for an ``int``."""
    return [
        (float.hex(a.weight), repr(a.assignment), repr(a.witness_ids), repr(a.witness))
        for a in itertools.islice(physical.iter(), k)
    ]


@pytest.mark.parametrize("palette", list(PALETTES))
@pytest.mark.parametrize("lane", list(LANES))
@pytest.mark.parametrize("length", [3, 4, 5])
def test_a_plan_over_bag_columns_ranks_as_over_bag_rows(monkeypatch, length, lane, palette):
    database = cycle_database(length, palette, seed=3500 + length)
    query = cycle_query(length)
    with Engine(database) as engine:
        columns = engine.prepare(query, dioid=LANES[lane]).bind()
        assert {task.bag_layout for task in columns.tasks} == {"bag columns"}
        got = answers(columns)
    with monkeypatch.context() as patch:
        force_bag_rows(patch)
        with Engine(database) as engine:
            rows = engine.prepare(query, dioid=LANES[lane]).bind()
            assert {task.bag_layout for task in rows.tasks} == {"bag rows (forced)"}
            expected = answers(rows)
    assert len(got) > 10
    assert got == expected


class CountingMaxTimes(MaxTimesDioid):
    """Overrides ``times``: the lane is lost."""

    def times(self, a, b):
        return a * b


def _retyped(database: Database, change: dict) -> Database:
    """``database`` with R2's first row's first ``value`` or its
    ``weight`` replaced, as ``change`` says."""
    relations = []
    for relation in database:
        tuples, weights = list(relation.tuples), list(relation.weights)
        if relation.name == "R2":
            if "value" in change:
                tuples[0] = (change["value"], tuples[0][1])
            if "weight" in change:
                weights[0] = change["weight"]
        relations.append(Relation(relation.name, 2, tuples, weights))
    return Database(relations)


FALLBACKS = {
    "str_value": (dict(value="a"), None, "bag rows (R2 holds a value of type str)"),
    "bool_value": (dict(value=True), None, "bag rows (R2 holds a value of type bool)"),
    "none_value": (dict(value=None), None, "bag rows (R2 holds a value of type NoneType)"),
    "int_weight": (dict(weight=2), None, "bag rows (R2 holds a weight of type int)"),
    "lane_less": ({}, CountingMaxTimes(), "bag rows (CountingMaxTimes overrides times)"),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_every_fallback_runs_the_row_path(case):
    change, dioid, layout = FALLBACKS[case]
    database = _retyped(cycle_database(4, "floats", seed=3600), change)
    options = {} if dioid is None else {"dioid": dioid}
    with Engine(database, tracer=Tracer(sample="always")) as engine:
        physical = engine.prepare(cycle_query(4), **options).bind()
        (span,) = [s for s in engine.tracer.spans() if s.name == "decompose"]
        assert len(physical.top(5)) == 5
    assert span.attrs["columns"] == 0
    assert span.attrs["bag_tuples"] > 0
    assert {task.bag_layout for task in physical.tasks} == {layout}
    assert all(bag.arrays is None for task in physical.tasks for bag in task.database)


def test_the_decompose_span_counts_the_bags_built_as_columns():
    database = cycle_database(4, "floats", seed=3601)
    with Engine(database, tracer=Tracer(sample="always")) as engine:
        physical = engine.prepare(cycle_query(4), dioid=MAX_TIMES).bind()
        (span,) = [s for s in engine.tracer.spans() if s.name == "decompose"]
    bags = sum(len(task.database.relations) for task in physical.tasks)
    assert span.attrs["columns"] == bags > 0


def test_bag_rows_materialise_from_the_columns_only_when_read():
    database = cycle_database(4, "floats", seed=3602)
    (task, *_rest) = decompose_cycle(database, cycle_query(4), dioid=TROPICAL, threshold=2)
    bag = next(iter(task.database))
    columns, weights = bag.arrays
    assert not bag.is_materialized and len(bag) == len(weights) > 0
    assert bag.tuples[0] == tuple(int(column[0]) for column in columns)
    assert all(type(value) is int for row in bag.tuples for value in row)
    assert [float.hex(w) for w in bag.weights] == [float.hex(w) for w in weights.tolist()]
    # A mutation leaves the lists as the only storage.
    bag.add((1, 2, 3), 0.5)
    assert bag.arrays is None and len(bag) == len(weights) + 1


@pytest.mark.parametrize("palette", ["nan", "infinities", "signed_zeros"])
@pytest.mark.parametrize("lane", list(LANES))
def test_a_column_member_lowers_as_the_object_builder(lane, palette):
    """The column stage scan against ``build_tdp`` over the same bags'
    rows, column by column in bits — NaN entry values included."""
    from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
    from repro.dp.lower import ColumnRows, lower_member, member_lane, rank_tables
    from repro.query.jointree import build_join_tree
    from repro.ranking.dioid import TieBreakingDioid
    from tests.test_lane_conformance import assert_same_columns

    base = LANES[lane]
    query = cycle_query(4)
    tasks = decompose_cycle(
        cycle_database(4, palette, seed=3700), query, dioid=base, threshold=4
    )
    positions = {var: slot for slot, var in enumerate(query.variables)}
    tie = TieBreakingDioid(base, len(positions))
    trees = [build_join_tree(task.query) for task in tasks]
    rank_tie_domains(tie, [(t.database, tree, positions) for t, tree in zip(tasks, trees)])
    tables = rank_tables(tie)
    compared = nan_entries = 0
    for task, tree in zip(tasks, trees):
        core = lower_member(
            task.database, tree, tie, positions, member_lane(tie)[0], tables
        )
        assert all(type(rows) is ColumnRows for rows in core.tuples)
        tdp = build_tdp(
            task.database, tree, dioid=tie, lift=make_tie_lift(tie, positions, tree)
        )
        if tdp.is_empty():
            continue
        assert_same_columns(core, tdp)
        compared += 1
        nan_entries += any(math.isnan(value) for column in core.ent_base for value in column)
    assert compared > 1
    # inf + -inf and 0 * inf make NaN entries of infinite weights, too.
    assert (nan_entries > 0) == (palette != "signed_zeros")


@pytest.mark.parametrize("length", [3, 4])
def test_values_near_the_int64_bounds_join_as_rows_do(monkeypatch, length):
    """Keys whose value ranges multiply past 2**62 are numbered densely
    (``vec.key_codes``), not read as one mixed-radix number."""
    spread = cycle_database(length, "floats", seed=3800)
    database = Database([
        Relation(
            relation.name, 2,
            [tuple(value * 2**59 - 2**62 for value in row) for row in relation.tuples],
            relation.weights,
        )
        for relation in spread
    ])
    query = cycle_query(length)
    columns, rows = decompose_both(monkeypatch, database, query, MAX_TIMES, 2)
    assert {task.bag_layout for task in columns} == {"bag columns"}
    assert snapshot(columns) == snapshot(rows)
    with Engine(database) as engine:
        got = answers(engine.prepare(query, dioid=MAX_TIMES).bind())
    with monkeypatch.context() as patch:
        force_bag_rows(patch)
        with Engine(database) as engine:
            expected = answers(engine.prepare(query, dioid=MAX_TIMES).bind())
    assert len(got) > 10 and got == expected


def test_a_value_past_int64_keeps_bag_rows():
    database = cycle_database(4, "floats", seed=3801)
    relation = database["R3"]
    relation.tuples[0] = (2**63, relation.tuples[0][1])
    tasks = decompose_cycle(database, cycle_query(4), dioid=TROPICAL)
    assert {task.bag_layout for task in tasks} == {"bag rows (R3 holds a value past int64)"}


@pytest.mark.parametrize("scale", [1, 2**20, 2**40, 2**61])
def test_the_join_kernels_match_their_loops(scale):
    """``vec.gather`` is the nested-loop join in its order, and
    ``vec.key_codes`` codes two keys alike iff they are equal — over
    narrow and wide value ranges, one to three key columns."""
    rng = random.Random(scale)
    values = [rng.randint(-3, 3) * scale for _ in range(6)]
    for _ in range(40):
        probe, build = (
            np.array([rng.choice(values) for _ in range(rng.randint(0, 25))], np.int64)
            for _side in range(2)
        )
        left, right = vec.gather(probe, build)
        assert list(zip(left.tolist(), right.tolist())) == [
            (i, j) for i, p in enumerate(probe) for j, b in enumerate(build) if p == b
        ]
        width = rng.randint(1, 3)
        a = [np.array([rng.choice(values) for _ in range(9)], np.int64) for _ in range(width)]
        b = [np.array([rng.choice(values) for _ in range(7)], np.int64) for _ in range(width)]
        code_a, code_b = vec.key_codes(*zip(a, b))
        keys = list(zip(*[c.tolist() for c in a])) + list(zip(*[c.tolist() for c in b]))
        codes = code_a.tolist() + code_b.tolist()
        for x, y in itertools.product(range(len(keys)), repeat=2):
            assert (keys[x] == keys[y]) == (codes[x] == codes[y])
