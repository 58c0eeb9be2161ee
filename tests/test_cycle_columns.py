"""The cycle decomposition's one builder against its row-at-a-time reference.

:func:`~repro.decomposition.cycle.decompose_cycle` builds every bag from
int64 code columns, and stores it as columns where the dioid has a lane
and the cycle's relations hold ``float`` weights, whatever their values,
else as rows made from the columns.  :mod:`tests.reference.cycle_rows` is the
same decomposition with Python tuples and dict joins, and the oracle of
both storages.  The benchmark's cycle reference is bound through the
same decomposition, so this suite is what guards it:

* **bags**: per member its label and query, per bag its tuples (each
  value with its type), its weights by ``float.hex`` (``repr`` where not
  a ``float``) and its lineage (atoms and tuple-id columns), over
  l = 3 .. 6, thresholds that force heavy members, self-joins, all three
  lanes and palettes with signed zeros, ±inf and NaN;
* **answers**: a bound plan ranks the same answers, weight bits,
  assignments and witnesses either way;
* **former fallbacks**: ``str``, ``bool``, ``None`` and mixed values,
  ``1`` / ``1.0`` / ``True`` meeting in one join and a value past int64 —
  each coded, and stored as columns — and ``int`` weights, a dioid
  without a lane, ``BOOLEAN`` and a lexicographic dioid — each stored as
  rows; each as the ``decompose`` span's ``columns`` attribute and each member's
  ``bag_layout`` say, and each the reference's bags — in memory and, where
  SQLite stores the values, over SQLite;
* **degrees**: counted over the entry codes, values equal under ``==``
  sharing one; a rebind after ``add`` or a same-name replacement counts
  them anew.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.cycle import decompose_cycle
from repro.engine import Engine
from repro.obs.trace import Tracer
from repro.query.builders import cycle_query
from repro.ranking.dioid import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    TROPICAL,
    LexicographicDioid,
    MaxTimesDioid,
)
from repro.util import vec
from tests.reference.cycle_rows import LAYOUT, decompose_cycle_rows, use_cycle_rows

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
    """Everything a member's bags hold: values with their types, weights
    by their bits."""
    return [
        (
            task.label,
            repr(task.query),
            [
                (
                    name,
                    [tuple(map(typed, row)) for row in bag.tuples],
                    [typed(weight) for weight in bag.weights],
                    task.lineage[name].atoms,
                    [list(column) for column in task.lineage[name].columns],
                    repr([task.lineage[name][i] for i in range(len(bag))]),
                )
                for name, bag in task.database.relations.items()
            ],
        )
        for task in tasks
    ]


def typed(value) -> tuple:
    """``value`` with its type, a float by its bits."""
    if type(value) is float:
        return ("float", value.hex())
    return (type(value).__name__, repr(value))


def decompose_both(database, query, dioid, threshold=None):
    """``(built, reference)``: the decomposition, then its reference."""
    options = dict(dioid=dioid, threshold=threshold)
    built = decompose_cycle(database, query, **options)
    return built, decompose_cycle_rows(database, query, **options)


@pytest.mark.parametrize("palette", list(PALETTES))
@pytest.mark.parametrize("lane", list(LANES))
@pytest.mark.parametrize("self_join", [False, True], ids=["distinct", "self_join"])
@pytest.mark.parametrize("length", [3, 4, 5, 6])
def test_bag_columns_are_the_bag_rows(length, self_join, lane, palette):
    database = cycle_database(length, palette, seed=3400 + length, self_join=self_join)
    query = cycle_query(length, relation="E" if self_join else None)
    heavy_members = 0
    for threshold in (None, 2, 4):
        columns, rows = decompose_both(database, query, LANES[lane], threshold)
        assert {task.bag_layout for task in columns} == {"bag columns"}
        assert {task.bag_layout for task in rows} == {LAYOUT}
        assert all(
            not bag.is_materialized for task in columns for bag in task.database
        )
        assert snapshot(columns) == snapshot(rows)
        heavy_members += sum(task.label.startswith("heavy") for task in columns)
    assert heavy_members > 0, "some threshold forces a heavy member"


def answers(physical, k: int = 400) -> list:
    """Weights by their bits; the rest by ``repr``, so an id or value of
    another type (``np.int64``, ``1.0`` for ``1``) would not pass."""
    return [
        (typed(a.weight), repr(a.assignment), repr(a.witness_ids), repr(a.witness))
        for a in itertools.islice(physical.iter(), k)
    ]


def ranked_both(monkeypatch, database, query, **options) -> tuple:
    """``(layouts, answers)`` of an engine bind, then of one over the
    reference's bags."""
    with Engine(database) as engine:
        physical = engine.prepare(query, **options).bind()
        built = ({task.bag_layout for task in physical.tasks}, answers(physical))
    with monkeypatch.context() as patch:
        use_cycle_rows(patch)
        with Engine(database) as engine:
            physical = engine.prepare(query, **options).bind()
            assert {task.bag_layout for task in physical.tasks} == {LAYOUT}
            reference = answers(physical)
    assert len(reference) > 10
    return built[0], built[1] == reference


@pytest.mark.parametrize("palette", list(PALETTES))
@pytest.mark.parametrize("lane", list(LANES))
@pytest.mark.parametrize("length", [3, 4, 5])
def test_a_plan_over_bag_columns_ranks_as_over_bag_rows(monkeypatch, length, lane, palette):
    database = cycle_database(length, palette, seed=3500 + length)
    layouts, same = ranked_both(monkeypatch, database, cycle_query(length), dioid=LANES[lane])
    assert layouts == {"bag columns"}
    assert same


class CountingMaxTimes(MaxTimesDioid):
    """Overrides ``times``: the lane is lost."""

    def times(self, a, b):
        return a * b


def _retyped(database: Database, change: dict) -> Database:
    """``database`` with R2's first row's first ``value`` or its
    ``weight`` replaced, as ``change`` says; ``values`` maps every value."""
    relations = []
    for relation in database:
        tuples, weights = list(relation.tuples), list(relation.weights)
        if "values" in change:
            tuples = [tuple(map(change["values"], row)) for row in tuples]
        if "weights" in change:
            weights = list(map(change["weights"], weights))
        if relation.name == "R2":
            if "value" in change:
                tuples[0] = (change["value"], tuples[0][1])
            if "weight" in change:
                weights[0] = change["weight"]
        relations.append(Relation(relation.name, 2, tuples, weights))
    return Database(relations)


def _mixed(value: int):
    """Every third value a ``str``, every fifth ``None``."""
    return None if value % 5 == 0 else str(value) if value % 3 == 0 else value


def _equal_types(value: int):
    """``1`` / ``1.0`` / ``True`` and ``2`` / ``2.0`` meet in the joins."""
    return {1: True, 2: 2.0, 4: 1.0, 5: 1}.get(value, value)


#: case -> (change, dioid, layout of every member).
FALLBACKS = {
    "str_value": (dict(value="a"), None, "bag columns"),
    "bool_value": (dict(value=True), None, "bag columns"),
    "none_value": (dict(value=None), None, "bag columns"),
    # Any value is coded: its bags are columns.
    "mixed_values": (dict(values=_mixed), None, "bag columns"),
    "equal_types": (dict(values=_equal_types), None, "bag columns"),
    "past_int64": (
        dict(values=lambda v: v if v % 4 else v + 2**64), None, "bag columns",
    ),
    # A relation holding several other types names the first by name.
    "int_weight": (dict(weight=2), None, "bag rows (R2 holds a weight of type int)"),
    "int_weights": (
        dict(weights=lambda w: int(w * 10)), None,
        "bag rows (R1 holds a weight of type int)",
    ),
    "lane_less": ({}, CountingMaxTimes(), "bag rows (CountingMaxTimes overrides times)"),
    "boolean": (
        dict(weights=lambda w: w > 1.0), BOOLEAN, "bag rows (BooleanDioid declares no float lane)"
    ),
    "lexicographic": (
        dict(weights=lambda w: (round(w), w)), LexicographicDioid(2),
        "bag rows (LexicographicDioid(2) declares no float lane)",
    ),
}


def _fallback(case: str):
    change, dioid, layout = FALLBACKS[case]
    database = _retyped(cycle_database(4, "floats", seed=3600), change)
    return database, {} if dioid is None else {"dioid": dioid}, layout


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_every_former_fallback_stores_its_layout(case):
    database, options, layout = _fallback(case)
    with Engine(database, tracer=Tracer(sample="always")) as engine:
        physical = engine.prepare(cycle_query(4), **options).bind()
        (span,) = [s for s in engine.tracer.spans() if s.name == "decompose"]
        assert len(physical.top(5)) == 5
    columns = layout == "bag columns"
    bags = [bag for task in physical.tasks for bag in task.database]
    assert span.attrs["columns"] == (len(bags) if columns else 0)
    assert span.attrs["bag_tuples"] > 0
    assert {task.bag_layout for task in physical.tasks} == {layout}
    assert all(bag.is_materialized != columns for bag in bags)


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_every_former_fallback_builds_the_reference_bags(case):
    database, options, _layout = _fallback(case)
    dioid = options.get("dioid", TROPICAL)
    heavy_members = 0
    for threshold in (None, 2, 4):
        built, reference = decompose_both(database, cycle_query(4), dioid, threshold)
        assert snapshot(built) == snapshot(reference)
        heavy_members += sum(task.label.startswith("heavy") for task in built)
    assert heavy_members > 0


def sqlite_database(database: Database, tmp_path, tag: str) -> Database:
    """``database`` stored in SQLite, its relations read back from there."""
    backend = SQLiteBackend(str(tmp_path / f"{tag}.db"))
    for relation in database:
        backend.ingest(relation)
    return backend.database()


def bag_sizes(tasks) -> list:
    """Per member its label and the length of each bag."""
    return [(task.label, [len(bag) for bag in task.database]) for task in tasks]


#: The former fallbacks whose values and weights SQLite stores: not a
#: value past int64, nor ``bool`` or tuple weights.
SQLITE_FALLBACKS = [
    case for case in FALLBACKS if case not in ("past_int64", "boolean", "lexicographic")
]


@pytest.mark.parametrize("case", SQLITE_FALLBACKS)
def test_a_former_fallback_over_sqlite_builds_the_reference_bags(tmp_path, case):
    """The degrees of a SQLite-backed relation come from the codes of its
    image: its bags are the reference's over the same stored rows, and
    split as the in-memory relations do."""
    database, options, _layout = _fallback(case)
    dioid = options.get("dioid", TROPICAL)
    stored = sqlite_database(database, tmp_path, case)
    try:
        heavy_members = 0
        for threshold in (None, 2, 4):
            built, reference = decompose_both(stored, cycle_query(4), dioid, threshold)
            assert snapshot(built) == snapshot(reference)
            memory = decompose_cycle(database, cycle_query(4), dioid=dioid, threshold=threshold)
            assert bag_sizes(built) == bag_sizes(memory)
            heavy_members += sum(task.label.startswith("heavy") for task in built)
        assert heavy_members > 0
    finally:
        stored.close()


def _degree_database() -> Database:
    """A 3-cycle whose R1 entry values ``1`` / ``1.0`` / ``True`` are one
    value of degree 3, ``"1"`` and ``None`` each of degree 2 and ``2`` of
    degree 1; every R1 row joins."""
    entries = [1, 1.0, True, "1", "1", None, None, 2]
    return Database([
        Relation("R1", 2, [(value, 0) for value in entries], [1.0] * len(entries)),
        Relation("R2", 2, [(0, 0)], [1.0]),
        Relation("R3", 2, [(0, value) for value in (1, "1", None, 2)], [1.0] * 4),
    ])


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_the_split_counts_degrees_as_a_dict_join_matches_values(tmp_path, store):
    """Values equal under ``==`` share a code, so they share a degree;
    ``"1"`` and ``None`` are values of their own."""
    database = _degree_database()
    if store == "sqlite":
        database = sqlite_database(database, tmp_path, "degrees")
    expected = {2: {1, "1", None}, 3: {1}, 4: set()}
    try:
        for threshold, heavy in expected.items():
            built, reference = decompose_both(database, cycle_query(3), TROPICAL, threshold)
            assert snapshot(built) == snapshot(reference)
            fans = [task for task in built if task.label == "heavy@x1"]
            assert len(fans) == (1 if heavy else 0)
            for task in fans:
                bag = next(iter(task.database))
                assert {row[0] for row in bag.tuples} == heavy
                assert len(bag) == sum(value in heavy for value, _ in database["R1"].tuples)
    finally:
        database.close()


@pytest.mark.parametrize("store", ["memory", "sqlite"])
def test_degrees_follow_a_mutation_on_rebind(tmp_path, store):
    """A value made heavy by ``add`` gets its own fan on the next bind of
    the same prepared plan, as a fresh decomposition gives it."""
    database = cycle_database(4, "floats", seed=3602)
    if store == "sqlite":
        database = sqlite_database(database, tmp_path, "mutation")
    query = cycle_query(4)
    try:
        with Engine(database) as engine:
            prepared = engine.prepare(query)
            before = prepared.bind()
            assert snapshot(before.tasks) == snapshot(decompose_cycle_rows(database, query))
            for value in range(3, 13):
                database["R1"].add((50, value % 9 + 1), 0.5)
                database["R4"].add((value % 9 + 1, 50), 0.5)
            after = prepared.bind()
            assert after is not before and engine.stats.binds == 2
            assert snapshot(after.tasks) == snapshot(decompose_cycle_rows(database, query))
            (fan,) = [task for task in after.tasks if task.label == "heavy@x1"]
            assert 50 in {row[0] for row in next(iter(fan.database)).tuples}
            (old_fan,) = [task for task in before.tasks if task.label == "heavy@x1"]
            assert 50 not in {row[0] for row in next(iter(old_fan.database)).tuples}
    finally:
        database.close()


def test_the_degrees_of_a_same_name_replacement_are_recounted():
    """A relation replaced by another of the same name and cardinality is
    counted anew: the fan follows the new relation's hub."""
    database = cycle_database(4, "floats", seed=3603)
    query = cycle_query(4)
    with Engine(database) as engine:
        prepared = engine.prepare(query)
        before = prepared.bind()
        old = database["R1"]
        rehubbed = [(7 if value in (1, 2) else value, exit_value) for value, exit_value in old.tuples]
        database.add(Relation("R1", 2, rehubbed, list(old.weights)))
        after = prepared.bind()
        assert after is not before
        assert snapshot(after.tasks) == snapshot(decompose_cycle_rows(database, query))
        (fan,) = [task for task in after.tasks if task.label == "heavy@x1"]
        assert 7 in {row[0] for row in next(iter(fan.database)).tuples}
        assert not {1, 2} & {row[0] for row in next(iter(fan.database)).tuples}


@pytest.mark.parametrize("case", ["mixed_values", "equal_types", "past_int64", "int_weights"])
def test_a_former_fallback_ranks_as_the_reference(monkeypatch, case):
    """Through the engine, which counts the degrees from the codes."""
    database, options, layout = _fallback(case)
    layouts, same = ranked_both(monkeypatch, database, cycle_query(4), **options)
    assert layouts == {layout}
    assert same


def test_values_equal_under_eq_share_a_code_and_keep_their_type():
    """``1`` joins ``1.0`` and ``True`` as a dict join does, and each bag
    value is the object its own tuple holds."""
    database = Database([
        Relation("R1", 2, [(0, 1), (0, 2)], [1.0, 2.0]),
        Relation("R2", 2, [(1.0, 3), (True, 4), (2, 5)], [1.0, 2.0, 3.0]),
        Relation("R3", 2, [(3, 0), (4, 0.0), (5, False)], [1.0, 2.0, 3.0]),
    ])
    built, reference = decompose_both(database, cycle_query(3), TROPICAL)
    assert snapshot(built) == snapshot(reference)
    ((bag,),) = [list(task.database) for task in built]
    assert bag.tuples == [(0, 1, 3), (0, 1, 4), (0, 2, 5)]
    assert [tuple(map(type, row)) for row in bag.tuples] == [
        (int, float, int), (int, bool, int), (int, int, int),
    ]


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
    image = bag.arrays
    columns, weights = image.codes, image.weights
    assert not bag.is_materialized and len(bag) == len(weights) > 0
    assert bag.tuples[0] == tuple(int(column[0]) for column in columns)
    assert all(type(value) is int for row in bag.tuples for value in row)
    assert [float.hex(w) for w in bag.weights] == [float.hex(w) for w in weights.tolist()]
    # A mutation materialises the lists and extends the image.
    bag.add((1, 2, 3), 0.5)
    assert bag.is_materialized and len(bag) == len(weights) + 1
    extended = bag.arrays
    assert [column[-1] for column in extended.codes] == [1, 2, 3]
    assert extended.weights[:-1].tolist() == weights.tolist()


@pytest.mark.parametrize("palette", ["nan", "infinities", "signed_zeros"])
@pytest.mark.parametrize("lane", list(LANES))
def test_a_column_member_lowers_as_the_object_builder(lane, palette):
    """The column stage scan against ``build_tdp`` over the same bags'
    rows, column by column in bits — NaN entry values included."""
    from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
    from repro.dp.lower import ColumnRows, lower_member, member_lane
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
    compared = nan_entries = 0
    for task, tree in zip(tasks, trees):
        core = lower_member(
            task.database, tree, tie, positions, member_lane(tie)[0]
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
    (``vec.KeyIndex``), not read as one mixed-radix number."""
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
    columns, rows = decompose_both(database, query, MAX_TIMES, 2)
    assert {task.bag_layout for task in columns} == {"bag columns"}
    assert snapshot(columns) == snapshot(rows)
    layouts, same = ranked_both(monkeypatch, database, query, dioid=MAX_TIMES)
    assert layouts == {"bag columns"}
    assert same


def test_a_value_past_int64_is_coded_into_bag_columns():
    database = cycle_database(4, "floats", seed=3801)
    relation = database["R3"]
    relation.tuples[0] = (2**63, relation.tuples[0][1])
    tasks, reference = decompose_both(database, cycle_query(4), TROPICAL)
    assert {task.bag_layout for task in tasks} == {"bag columns"}
    assert snapshot(tasks) == snapshot(reference)


@pytest.mark.parametrize("scale", [1, 2**20, 2**40, 2**61])
def test_the_join_kernels_match_their_loops(scale):
    """``vec.gather`` is the nested-loop join in its order — over
    narrow and wide value ranges, one to three key columns, so its
    :class:`~repro.util.vec.KeyIndex` finds two keys alike iff they are
    equal."""
    rng = random.Random(scale)
    values = [rng.randint(-3, 3) * scale for _ in range(6)]
    for _ in range(40):
        width = rng.randint(1, 3)
        probe, build = (
            [
                np.array([rng.choice(values) for _ in range(rows)], np.int64)
                for _column in range(width)
            ]
            for rows in (rng.randint(0, 25), rng.randint(0, 25))
        )
        left, right = vec.gather(probe, build)
        probe_keys = list(zip(*[column.tolist() for column in probe]))
        build_keys = list(zip(*[column.tolist() for column in build]))
        assert list(zip(left.tolist(), right.tolist())) == [
            (i, j)
            for i, p in enumerate(probe_keys)
            for j, b in enumerate(build_keys)
            if p == b
        ]
