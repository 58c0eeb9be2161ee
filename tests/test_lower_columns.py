"""The lowering's columns, in bits: numpy kernels == object path.

``test_flat_conformance.TestDirectLoweringMatchesObjectLowering``
compares the direct lowering with ``compile_tdp(build_tdp(...))`` using
``==``, which cannot see a zero's sign and treats ``1`` and ``1.0`` as
one value.  This suite compares every column with ``float.hex`` between
the numpy kernels, which lower every stage (the tiny and empty ones
included), and the object path, ``compile_tdp(build_tdp(...))``, over
{tropical, max-plus} x {path, star, two-column join key, self-join with
a repeated variable} x {in-memory, SQLite} x hostile weight and
join-key palettes, and over a root relation cut to empty, one-row and
partial row ranges.  The connector
placement is also held, as a unit, to the dict-of-lists grouping with
``min()`` per connector (:func:`place_oracle`).

The columns are values (state values, ``pi1`` values, connector minima)
and the entries keys, under the dioid's lane.  The lowering folds in
value space from ``one`` and keys afterwards, as the object path does,
so nothing differs, a max-plus derived zero's sign included
(:func:`test_max_plus_zeros_equal_the_object_path_in_bits`).  The numpy
kernel hands back the stored weight objects as state values (an ``int``
weight stays an ``int``), like the object path.
"""

from __future__ import annotations

import gc
import math
import random
import sys
from array import array
from heapq import heapify
from itertools import accumulate, chain, count
from operator import itemgetter, neg

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.image import ColumnImage, code_table, object_table
from repro.data.relation import Relation
from repro.anyk.base import make_enumerator
from repro.dp import flat, lower
from repro.dp.builder import build_tdp, rank_tie_domains
from repro.dp.flat import compile_tdp
from repro.query.builders import path_query, star_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_PLUS, MAX_TIMES, TROPICAL, TieBreakingDioid

DIOIDS = {"tropical": TROPICAL, "max-plus": MAX_PLUS}

QUERIES = {
    "path4": path_query(4),
    "star4": star_query(4),
    "twocol": parse_query(
        "Q(a, b, c, d, e) :- R1(a, b, c), R2(b, c, d), R3(c, d, e)"
    ),
    "selfjoin_repeat": parse_query("Q(x, y, z) :- R1(x, y), R1(y, z), R1(z, z)"),
}

INF = math.inf
NAN = math.nan

#: name -> weights drawn per tuple.  ``zeros`` mixes both signs inside
#: join-key groups; ``infs`` also yields NaN sums (``inf + -inf``).
WEIGHTS = {
    "floats": lambda rng: rng.uniform(-5.0, 5.0),
    "zeros": lambda rng: rng.choice([0.0, -0.0, 0.0, -0.0, 1.5, -1.5]),
    "infs": lambda rng: rng.choice([INF, -INF, 1.0, 2.5, -2.5, 0.0, 7.0]),
    "nans": lambda rng: rng.choice([NAN, 1.0, 2.0, -1.0, 0.0, 0.5]),
    "ints": lambda rng: rng.randint(-3, 3),
    "mixed": lambda rng: rng.choice([1, 2.5, -0.0, 0, 3, 0.25, -2]),
}
#: SQLite stores NaN as NULL: that palette is in-memory only.
SQLITE_WEIGHTS = [name for name in WEIGHTS if name != "nans"]


#: One NaN object: a dict probe finds it (by identity), ``!=`` says it
#: is unequal to itself.
NAN_KEY = float("nan")
#: Spellings of a join value ``v`` in one column: ``int`` and ``str``
#: mixed (``3`` and ``"3"`` are two values), every third value past
#: int64, or ``1`` as :data:`NAN_KEY`.
SPELLINGS = {
    "str": lambda rng, v: rng.choice([v, str(v)]),
    "past_int64": lambda rng, v: v + 2**64 if v % 3 == 0 else v,
    "nan": lambda rng, v: NAN_KEY if v == 1 else v,
}


def make_database(query, n, weights="floats", seed=1, mixed_keys=False, edge=None):
    """Relations for ``query``: ``n`` rows each plus 10% duplicate tuples.

    ``mixed_keys`` spells one join value as ``1`` / ``1.0`` / ``True``
    (and every other as ``v`` / ``float(v)``) within a column, or as
    :data:`SPELLINGS` names.  ``edge`` empties a relation or leaves a
    stage without join partners.
    """
    rng = random.Random(seed)
    draw = WEIGHTS[weights]
    # About n/5 distinct join keys per stage, one column or two.
    domain = max(2, n // 5)
    if any(atom.arity > 2 for atom in query.atoms):
        domain = max(2, round((n / 5) ** 0.5))
    last = query.atoms[-1].relation_name
    first = query.atoms[0].relation_name

    def value():
        v = rng.randint(1, domain)
        if mixed_keys in SPELLINGS:
            return SPELLINGS[mixed_keys](rng, v)
        if mixed_keys:
            return rng.choice([v, float(v), True] if v == 1 else [v, float(v)])
        return v

    relations = {}
    for atom in query.atoms:
        name = atom.relation_name
        if name in relations:
            continue
        count = n
        if (edge == "empty_leaf" and name == last) or (
            edge == "empty_anchor" and name == first
        ):
            count = 0
        tuples = [tuple(value() for _ in range(atom.arity)) for _ in range(count)]
        if edge == "dead_leaf" and name == last:
            tuples = [tuple(v + 10**6 for v in t) for t in tuples]
        tuples += tuples[: count // 10]
        relations[name] = Relation(
            name, atom.arity, tuples, [draw(rng) for _ in tuples]
        )
    return Database(list(relations.values()))


def open_database(database, backend, tmp_path):
    if backend == "memory":
        return database
    sqlite = SQLiteBackend(str(tmp_path / "lower.db"))
    for relation in database:
        sqlite.ingest(relation)
    return sqlite.database()


def bits(x) -> str:
    """A number's IEEE bits (an ``int`` as the float it equals)."""
    return float(x).hex()


# -- the lowering and the object path -----------------------------------------


def conn_minima(core) -> list:
    """Each connector's least entry value, as ``min()`` over its entry
    tuples picks it: its key, negated where the lane negates."""
    minima = []
    for uid in range(core.num_connectors):
        pairs = core.pairs(uid)
        key = min(pairs)[0] if pairs else None
        minima.append(-key if pairs and core.lane.negate else key)
    return minima


def core_columns(core, conn_min, uids=None) -> dict:
    """Everything the lowering emits for one core, numbers as bit strings."""
    if uids is None:
        uids = range(core.num_connectors)
    return {
        "empty": core.empty,
        # (An empty core still owns its root uid slot.)
        "num_connectors": None if core.empty else core.num_connectors,
        "best_key": bits(core.best_key),
        # (The object path forgets its root connectors when empty.)
        "root_uid": {} if core.empty else dict(core.root_uid),
        "val_base": [[bits(v) for v in stage] for stage in core.val_base],
        # Not only equal bits: the same Python types (an ``int`` weight
        # stays an ``int`` state value), state by state.
        "val_types": [[type(v) for v in stage] for stage in core.val_base],
        "pi1": [[bits(v) for v in stage] for stage in core.pi1],
        "child_uids": [list(stage) for stage in core.child_uids],
        "tuples": state_rows(core),
        # Each value read back as the object its row holds (``1.0`` stays
        # ``1.0``), not as its code.
        "row_types": [
            [tuple(map(type, row)) for row in stage] for stage in state_rows(core)
        ],
        "tuple_ids": [list(stage) for stage in core.tuple_ids],
        "conn_min": {
            uid: None if conn_min[uid] is None else bits(conn_min[uid])
            for uid in uids
        },
        "pairs": {
            uid: [(bits(key), state) for key, state in core.pairs(uid)]
            for uid in uids
        },
    }


def state_rows(core) -> list[list[tuple]]:
    """Each stage's rows, state by state: a lowered core reads its stage's
    row store at the state's tuple id, an object graph's core holds them
    in state order."""
    if not core.rows_by_id:
        return [list(rows) for rows in core.tuples]
    return [[rows[i] for i in ids] for rows, ids in zip(core.tuples, core.tuple_ids)]


def object_columns(database, tree, dioid) -> tuple[dict, list[int]]:
    """The same columns from ``compile_tdp(build_tdp(...))``.

    Returns them with the uids some state (or the virtual start state)
    references: the builder numbers every join-key group but lowers only
    those.
    """
    tdp = build_tdp(database, tree, dioid=dioid)
    reference = compile_tdp(tdp)
    conns = {}
    for stage_conns in tdp.child_conns:
        for state_conns in stage_conns:
            for conn in state_conns:
                conns[conn.uid] = conn
    for conn in tdp.root_conn.values():
        conns[conn.uid] = conn
    uids = sorted(conns)
    conn_min = {uid: conns[uid].min_value for uid in uids}
    return core_columns(reference, conn_min, uids), uids


def assert_typed(column, typecode: str, kinds: set) -> None:
    """``column`` is a typed array of ``typecode`` that reads back
    native Python numbers of ``kinds``."""
    assert (type(column), column.typecode) == (array, typecode)
    assert {type(v) for v in column} <= kinds


def assert_same_structures(core):
    """The acceptance shape: one pool of ``float`` keys and ``int`` states
    in uid order, typed arrays the collector never walks, the root in
    it, each connector's states
    ascending — pool order is state order (see
    :func:`test_lowering_keeps_no_entry_tuple`) — and every other number
    column a typed array too; only the state values stay the stored
    weight objects."""
    offsets = core.conn_offsets
    key, state = core.entry_key, core.entry_state
    assert (type(key), key.typecode, type(state), state.typecode) == (array, "d", array, "q")
    assert_typed(offsets, "q", {int})
    assert_typed(core.conn_stage, "q", {int})
    assert len(offsets) == core.num_connectors + 1
    assert offsets[0] == 0 and offsets[-1] == len(key) == len(state)
    assert all(lo <= hi for lo, hi in zip(offsets, offsets[1:]))
    assert {type(k) for k in key} <= {float} and {type(s) for s in state} <= {int}
    for lo, hi in zip(offsets, offsets[1:]):
        assert all(a < b for a, b in zip(state[lo:hi - 1], state[lo + 1:hi]))
    for column in core.val_base:
        assert type(column) is list
        assert all(type(v) in (float, int) for v in column)
    for column in core.pi1:
        assert_typed(column, "d", {float})
    for column in core.child_uids + core.tuple_ids:
        assert_typed(column, "q", {int})
    for stage, parent in enumerate(core.parent_stage):
        if parent != -1 and core.num_branches[parent] == 1:
            assert core.conn_of[stage] is core.child_uids[parent]
        elif parent != -1:
            assert_typed(core.conn_of[stage], "q", {int})


def assert_object_path(database, tree, dioid, expect_empty=False):
    core = lower.lower_query(database, tree, dioid)
    assert_same_structures(core)
    reference, uids = object_columns(database, tree, dioid)
    if expect_empty is not None:
        assert reference["empty"] == expect_empty
    assert core_columns(core, conn_minima(core), uids) == reference


# -- whole relation ------------------------------------------------------------


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("weights", list(WEIGHTS))
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_whole_relation_in_memory(shape, dioid, weights, n):
    query = QUERIES[shape]
    database = make_database(query, n, weights, seed=n)
    assert_object_path(database, build_join_tree(query), DIOIDS[dioid])


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("weights", SQLITE_WEIGHTS)
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_whole_relation_sqlite(tmp_path, shape, dioid, weights, n):
    query = QUERIES[shape]
    database = open_database(
        make_database(query, n, weights, seed=n + 1), "sqlite", tmp_path
    )
    try:
        assert_object_path(database, build_join_tree(query), DIOIDS[dioid])
    finally:
        database.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_join_keys_1_and_1_0_and_true_share_a_connector(
    tmp_path, shape, dioid, backend
):
    query = QUERIES[shape]
    database = open_database(
        make_database(query, 700, "floats", seed=5, mixed_keys=True),
        backend, tmp_path,
    )
    try:
        assert_object_path(database, build_join_tree(query), DIOIDS[dioid])
    finally:
        database.close()


@pytest.mark.parametrize(
    "spelling, backend",
    [
        ("str", "memory"), ("str", "sqlite"),
        ("past_int64", "memory"), ("nan", "memory"),
    ],
)
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_mixed_and_wide_join_values_lower_as_the_object_path(
    tmp_path, shape, dioid, spelling, backend
):
    """A column image numbers what is not an ``int`` within int64: the
    codes join as the object path's dict probes do, and rows read back
    as the values stored.  (SQLite stores no integer past int64, and
    NaN as NULL.)"""
    query = QUERIES[shape]
    database = open_database(
        make_database(query, 700, "mixed", seed=7, mixed_keys=spelling),
        backend, tmp_path,
    )
    try:
        assert_object_path(database, build_join_tree(query), DIOIDS[dioid])
    finally:
        database.close()


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("edge", ["dead_leaf", "empty_leaf", "empty_anchor"])
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", ["path4", "star4", "twocol"])
def test_dead_stage_and_empty_relation(shape, dioid, edge, n):
    query = QUERIES[shape]
    database = make_database(query, n, "floats", seed=9, edge=edge)
    tree = build_join_tree(query)
    assert_object_path(database, tree, DIOIDS[dioid], expect_empty=True)
    core = lower.lower_query(database, tree, DIOIDS[dioid])
    assert core.empty and core.best_key == DIOIDS[dioid].key(DIOIDS[dioid].zero)


# -- a cut root relation -------------------------------------------------------


#: Row ranges over the root stage's ``total`` rows: ``thirds`` leaves one
#: range empty, ``edges`` gives the first and the last row one each.
CUTS = {
    "thirds": lambda total: [0, total // 3, total // 3, (2 * total) // 3, total],
    "edges": lambda total: [0, 1, total - 1, total],
}


def cut_root(database, name, lo, hi) -> Database:
    """``database`` with relation ``name`` restricted to rows ``[lo, hi)``."""
    return Database([
        Relation(
            name, relation.arity, relation.tuples[lo:hi], relation.weights[lo:hi]
        )
        if relation.name == name
        else relation
        for relation in database
    ])


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("layout", list(CUTS))
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_a_cut_root_relation_is_the_object_path(
    tmp_path, shape, dioid, backend, layout, n
):
    """The root stage (placed last, keyless) over empty, one-row and
    partial row ranges of its relation: bit for bit the object path, and,
    where the root's relation occurs once, each range's root rows are the
    whole relation's live root rows inside it, in order."""
    query = QUERIES[shape]
    tree = build_join_tree(query)
    dioid = DIOIDS[dioid]
    full = make_database(query, n, "zeros", seed=n + 7)
    name = query.atoms[tree.order[0]].relation_name
    once = sum(atom.relation_name == name for atom in query.atoms) == 1
    whole = lower.lower_query(full, tree, dioid)
    live = list(whole.tuple_ids[0])
    cuts = CUTS[layout](len(full[name]))
    for index, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        part = tmp_path / f"cut{index}"
        part.mkdir()
        database = open_database(cut_root(full, name, lo, hi), backend, part)
        try:
            inside = [i for i in live if lo <= i < hi]
            expect_empty = not inside if once else None
            assert_object_path(database, tree, dioid, expect_empty=expect_empty)
            core = lower.lower_query(database, tree, dioid)
            root = core.root_uid[0]
            assert root == core.num_connectors - 1
            if once:
                assert [lo + i for i in core.tuple_ids[0]] == inside
                assert [bits(v) for v in core.val_base[0]] == [
                    bits(whole.val_base[0][live.index(i)]) for i in inside
                ]
            if hi == lo:
                assert core.empty and core.conn_size(root) == 0
        finally:
            database.close()


# -- what the columns hold ----------------------------------------------------


@pytest.mark.parametrize("dioid", list(DIOIDS))
def test_state_keys_are_the_stored_weight_objects(dioid):
    """No second float per state: ``int`` stays ``int``, identity shares."""
    query = QUERIES["path4"]
    database = make_database(query, 60, "ints", seed=4)
    tree = build_join_tree(query)
    kernel = lower.lower_query(database, tree, DIOIDS[dioid])
    assert {type(v) for s in kernel.val_base for v in s} == {int}
    assert {type(v) for s in kernel.pi1 for v in s} == {float}
    assert all(type(k) is float for uid in range(4) for k, _s in kernel.pairs(uid))
    floats = make_database(query, 60, "floats", seed=4)
    kernel = lower.lower_query(floats, tree, TROPICAL)
    leaf = tree.query.atoms[tree.order[-1]].relation_name
    stored = {id(w) for w in floats[leaf].weights}
    assert all(id(v) in stored for v in kernel.val_base[-1])
    # ``pi1`` holds no float object per state at all: a typed array of
    # the object path's bits (a leaf's every state ``0.0``).
    reference = build_tdp(floats, tree, dioid=TROPICAL)
    for column, expected in zip(kernel.pi1, reference.pi1):
        assert_typed(column, "d", {float})
        assert list(map(bits, column)) == list(map(bits, expected))
    assert set(map(bits, kernel.pi1[-1])) == {bits(0.0)}


def test_max_plus_zeros_equal_the_object_path_in_bits():
    """A derived zero is keyed as the object path keys it: ``-(0.0)``."""
    query = QUERIES["path4"]
    database = make_database(query, 60, "zeros", seed=6)
    tree = build_join_tree(query)
    core = lower.lower_query(database, tree, MAX_PLUS)
    reference, uids = object_columns(database, tree, MAX_PLUS)
    direct = core_columns(core, conn_minima(core), uids=uids)
    assert direct == reference
    # A derived zero entry value is +0.0, so its key is -0.0 (a fold in
    # key space from +0.0 would have made it +0.0).
    keys = {key for uid in uids for key, _state in direct["pairs"][uid]}
    assert (-0.0).hex() in keys and (0.0).hex() not in keys


# -- connector placement, as a unit --------------------------------------------


def fresh_lowering(ranks):
    """A path-4 :class:`lower.Lowering` to place stage 2 into: tropical,
    or max-times (no inverse, entries ``(key, rank, state)``) with
    ``ranks``."""
    query = QUERIES["path4"]
    dioid = TROPICAL if ranks is None else MAX_TIMES
    return lower.Lowering(query, build_join_tree(query), dioid)


def pool_entries(low) -> list[tuple]:
    """The pool's columns as ``(key[, rank], state)`` tuples."""
    columns = [low.entry_key, low.entry_state]
    if low.entry_rank is not None:
        columns.insert(1, low.entry_rank)
    assert len({len(column) for column in columns}) == 1
    return list(zip(*columns))


def placed(low, keys: list) -> tuple:
    """The placement's columns, with ``keys`` — ``(join key, uid)`` per
    connector of stage 2."""
    offsets = low.conn_offsets
    entries = pool_entries(low)
    for entry in entries:
        assert [type(v) for v in entry] == [float] + [int] * (len(entry) - 1)
    return (
        [
            [(bits(k), *rest) for k, *rest in entries[lo:hi]]
            for lo, hi in zip(offsets, offsets[1:])
        ],
        [bits(m) for m in low.conn_min],
        keys,
        low.conn_stage,
        low.conn_rank,
    )


def place(join_keys, entry_keys, ranks=None):
    """One stage's grouping through the placement kernel, over the join
    keys' codes as a column image numbers them.

    ``ranks`` is a list of Python integers, as the tie-breaker's packed
    ranks are summed, made a column as :func:`lower._rank_columns` makes
    it.
    """
    low = fresh_lowering(ranks)
    (codes,), _values, code = code_table(object_table([(key,) for key in join_keys], 1))
    lower._place_columns(
        low, 2, [codes], np.array(entry_keys, np.float64),
        None if ranks is None else lower._rank_array(ranks),
    )
    table = low.tables[2]
    keys = table.columns[0].tolist()
    if code is not None:
        keys = list(map(list(code).__getitem__, keys))
    return placed(low, list(zip(keys, count(table.first_uid))))


def place_oracle(join_keys, entry_keys, ranks=None):
    """:func:`place` as a dict of lists: a connector per distinct join key
    in first-seen order, its entries in state order, its minimum the
    value of ``min()`` over them.  The entry values are fresh floats, one
    object each, as a stage scan hands them over (``min()`` treats one
    NaN object met twice as equal to itself)."""
    low = fresh_lowering(ranks)
    entry_values = np.array(entry_keys, np.float64).tolist()
    keys = list(map(neg, entry_values)) if low.lane.negate else entry_values
    if ranks is None:
        entries = zip(keys, count())
    else:
        entries = zip(keys, ranks, count())
    groups: dict = {}
    for join_key, entry in zip(join_keys, entries):
        groups.setdefault(join_key, []).append(entry)
    uids = list(zip(groups, count(len(low.conn_stage))))
    low.conn_stage.extend([2] * len(groups))
    low.conn_offsets.extend(map(
        len(low.entry_key).__add__, accumulate(map(len, groups.values()))
    ))
    pool = list(chain.from_iterable(groups.values()))
    low.entry_key.extend(map(itemgetter(0), pool))
    low.entry_state.extend(map(itemgetter(-1), pool))
    if ranks is not None:
        low.entry_rank = typed_ranks([*low.entry_rank, *map(itemgetter(1), pool)])
    least = list(map(min, groups.values()))
    low.conn_min.extend(map(entry_values.__getitem__, map(itemgetter(-1), least)))
    if ranks is not None:
        low.conn_rank = typed_ranks([*low.conn_rank, *map(itemgetter(1), least)])
    return placed(low, uids)


def typed_ranks(ranks: list):
    """A rank column as a core keeps one: ``array('q')``, or the list of
    Python ints where a rank passes int64."""
    try:
        return array("q", ranks)
    except OverflowError:
        return ranks


def test_zero_minimum_takes_the_sign_of_its_first_entry():
    # Per group, in state order: the minimum is a zero of either sign.
    join_keys = ["a", "b", "a", "c", "b", "c", "d", "d", "a", "e", "e"]
    entry_keys = [0.0, -0.0, -0.0, 3.0, 0.0, -0.0, -0.0, -0.0, 1.0, 2.0, 0.0]
    kernel = place(join_keys, entry_keys)
    assert kernel == place_oracle(join_keys, entry_keys)
    assert kernel[1] == [bits(m) for m in (0.0, -0.0, -0.0, -0.0, 0.0)]


#: Entry values that tie, sign or not, and that ``min()`` cannot order.
PALETTE = [0.0, -0.0, INF, -INF, 1.5, -1.5, 2.0, 1e-300, -1e-300, NAN]
JOIN_VALUES = [1, 1.0, True, 2, 2.0, "x", (1, 2), (1.0, 2), None]


def test_placement_matches_the_scalar_grouping():
    rng = random.Random(3)
    for size in (1, 7, 600):
        for _ in range(20):
            join_keys = [rng.choice(JOIN_VALUES) for _ in range(size)]
            entry_keys = [rng.choice(PALETTE) for _ in range(size)]
            assert place(join_keys, entry_keys) == place_oracle(join_keys, entry_keys)


def test_more_connectors_than_a_uint16_holds():
    rng = random.Random(8)
    join_keys = [rng.randrange(70_000) for _ in range(90_000)] + list(range(70_000))
    entry_keys = [rng.choice([0.0, -0.0, 1.0, -2.0]) for _ in join_keys]
    kernel = place(join_keys, entry_keys)
    assert len(kernel[1]) == 70_000
    assert kernel == place_oracle(join_keys, entry_keys)


def test_nan_entry_keys_place_as_min_does():
    join_keys = ["a", "b", "a", "a", "b", "b", "c", "c"]
    entry_keys = [NAN, 1.0, 0.5, NAN, NAN, 0.25, NAN, NAN]
    kernel = place(join_keys, entry_keys)
    assert kernel == place_oracle(join_keys, entry_keys)
    # ``min()`` never replaces a leading NaN, and never takes a later one.
    assert kernel[1] == [bits(NAN), bits(0.25), bits(NAN)]
    ranks = [2, 5, 1, 0, 0, 9, 3, 1]
    kernel = place(join_keys, entry_keys, ranks)
    assert kernel == place_oracle(join_keys, entry_keys, ranks)
    # A leading NaN stays the least entry whatever the later ranks.
    assert kernel[4] == array("q", [2, 5, 3])


def test_ranked_key_ties_go_to_the_rank_then_the_state():
    # Per group, in state order; max-times keys are the values negated.
    join_keys = ["a", "a", "a", "b", "b", "b", "c", "c", "d"]
    values = [2.0, 2.0, 2.0, 1.0, 1.0, 3.0, 0.5, 0.5, 4.0]
    ranks = [7, 3, 3, 5, 5, 0, 1, 0, 9]
    kernel = place(join_keys, values, ranks)
    assert kernel == place_oracle(join_keys, values, ranks)
    # a: equal keys, rank 3 beats 7; b: 3.0 is the least key (-3.0)
    # whatever its rank; c: equal keys, rank 0 beats 1.
    assert kernel[4] == array("q", [3, 0, 0, 9])
    assert kernel[1] == [bits(m) for m in (2.0, 3.0, 0.5, 4.0)]


def test_ranked_signed_zeros_tie_on_the_key():
    # ``0.0 == -0.0``: the rank decides, so the minimum's sign is the
    # least-ranked zero's, not the first zero's.
    join_keys = ["a", "a", "a", "b", "b", "c", "c"]
    values = [0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0]
    ranks = [4, 2, 2, 1, 1, 6, 6]
    kernel = place(join_keys, values, ranks)
    assert kernel == place_oracle(join_keys, values, ranks)
    assert kernel[1] == [bits(m) for m in (-0.0, -0.0, 0.0)]
    assert kernel[4] == array("q", [2, 1, 6])


def test_ranked_placement_matches_the_scalar_grouping():
    rng = random.Random(5)
    for size in (1, 7, 600):
        for rank_range in (3, 1 << 40, 1 << 70):
            for _ in range(10):
                join_keys = [rng.choice(JOIN_VALUES) for _ in range(size)]
                values = [rng.choice(PALETTE) for _ in range(size)]
                ranks = [rng.randrange(rank_range) for _ in range(size)]
                assert place(join_keys, values, ranks) == place_oracle(
                    join_keys, values, ranks
                )


def test_ranks_near_two_to_the_63_take_the_kernel():
    top = (1 << 63) - 1
    join_keys = ["a", "b", "a", "b", "a", "c"]
    values = [1.0, 2.0, 1.0, 2.0, 1.0, -0.0]
    ranks = [top, top - 1, top - 2, top - 1, top - 2, top]
    assert lower._rank_array(ranks).dtype == np.int64
    kernel = place(join_keys, values, ranks)
    assert kernel == place_oracle(join_keys, values, ranks)
    assert kernel[4] == array("q", [top - 2, top - 1, top])


def test_a_rank_column_past_int64_places_as_min_does():
    join_keys = ["a", "b", "a", "b"]
    values = [1.0, 2.0, 1.0, 2.0]
    ranks = [1 << 64, 3, (1 << 64) - 1, 1 << 70]
    kernel = place(join_keys, values, ranks)
    assert kernel == place_oracle(join_keys, values, ranks)
    assert kernel[4] == [(1 << 64) - 1, 3]


@pytest.mark.parametrize("shape", ["path4", "star4", "twocol"])
def test_tree_and_multi_column_stages_take_the_kernel(shape):
    """``tdp.build`` counts the stages and the rows the pass scanned."""
    from repro.obs.trace import Tracer

    query = QUERIES[shape]
    database = make_database(query, 700, "floats", seed=1)
    tracer = Tracer()
    with tracer.span("tdp.build") as span:
        lower.lower_query(database, build_join_tree(query), TROPICAL, span)
    assert span.attrs["stages"] == len(query.atoms)
    assert "vectorized_stages" not in span.attrs
    assert span.attrs["rows"] == sum(
        len(database[a.relation_name]) for a in query.atoms
    )


# -- weights that are not numbers ------------------------------------------------


@pytest.mark.parametrize("n", [10, 600])
@pytest.mark.parametrize("bad", [None, "3"])
def test_a_weight_that_is_not_a_number_is_a_type_error(bad, n):
    """Every stage size raises, as the object path does; none turns the
    weight into a float (``None`` into NaN, ``"3"`` into 3.0)."""
    query = QUERIES["path4"]
    database = make_database(query, n, "floats", seed=16)
    relation = database["R2"]
    relation.weights[:] = [bad] * len(relation.weights)
    tree = build_join_tree(query)
    kind = type(bad).__name__
    with pytest.raises(TypeError, match=f"R2 holds a weight of type {kind}"):
        lower.lower_query(database, tree, TROPICAL)
    with pytest.raises(TypeError):
        build_tdp(database, tree, dioid=TROPICAL)


# -- the cost gate: count, do not time -----------------------------------------

#: Containers a stage may hold beside its entries and connectors: its
#: columns (rows, ids, state keys, pi1 keys, child uids, ``conn_of``),
#: its join-key map, the ``placed`` list every connector slices, the
#: scan's own few.  Measured 16 per stage (CPython 3.11); 24 leaves room
#: for another interpreter, none for a per-row container.
CONTAINERS_PER_STAGE = 24


def test_lowering_creates_no_reboxed_rows_and_only_what_the_core_holds(monkeypatch):
    """No ``row + (weight,)`` tuple is ever alive; survivors are the core's.

    With the collector off, every container the lowering has created and
    not yet released is in ``gc.get_objects()``.  Sampled around each
    stage scan — when a re-boxed stage input, or per-row scratch, would
    be alive — and on return: never a row-with-weight tuple, and never
    more than ``entries + connectors + 24 * stages`` containers (inside
    the issue's ``entries + 2 * connectors + c * stages``, ``c = 24``).
    """
    query = QUERIES["path4"]
    database = make_database(query, 700, "floats", seed=12)
    tree = build_join_tree(query)
    arity = 2
    samples = []
    known: set[int] = set()

    def sample():
        fresh = [o for o in gc.get_objects() if id(o) not in known]
        reboxed = sum(  # an (int, int, float): a row with its weight
            type(o) is tuple
            and [type(v) for v in o] == [int] * arity + [float]
            for o in fresh
        )
        samples.append((len(fresh), reboxed))

    real_scan = lower._scan_column_stage

    def sampling_scan(*args, **kwargs):
        sample()
        out = real_scan(*args, **kwargs)
        sample()
        return out

    monkeypatch.setattr(lower, "_scan_column_stage", sampling_scan)
    lower.lower_query(database, tree, TROPICAL)  # warm caches, imports
    del samples[:]
    gc.collect()
    gc.disable()
    try:
        known.update(id(o) for o in gc.get_objects())
        known.add(id(known))
        core = lower.lower_query(database, tree, TROPICAL)
        sample()
    finally:
        gc.enable()
    stats = core.stats()
    assert stats["stages"] == 4 and len(samples) == 9
    assert [reboxed for _count, reboxed in samples] == [0] * 9
    bound = (
        stats["entries"] + stats["connectors"]
        + CONTAINERS_PER_STAGE * stats["stages"]
    )
    assert max(count for count, _reboxed in samples) <= bound, (samples, bound)


# -- one pool of columns, no tuple per entry -----------------------------------

#: The slots read lazily: filled on first touch, ``None`` at bind (the
#: two caches: ``[_take2_heaps, Eager's made on its first sort]``).
FIRST_TOUCH_CACHES = ("_take2_heaps", "_caches")


def reachable(core, kind: type, skip=(), known=frozenset()) -> int:
    """``kind`` objects reachable from the core's slots through lists,
    tuples and dicts (not through other objects, the shell included),
    leaving out the ``skip`` slots and the objects whose ``id`` is
    ``known``."""
    seen: set[int] = set(known)
    stack = [
        getattr(core, name) for name in type(core).__slots__ if name not in skip
    ]
    found = 0
    while stack:
        item = stack.pop()
        if not isinstance(item, (list, tuple, dict)) or id(item) in seen:
            continue
        seen.add(id(item))
        found += type(item) is kind
        stack.extend(item.values() if isinstance(item, dict) else item)
    return found


def stored_rows(database) -> frozenset:
    """The ``id`` of every row tuple ``database`` stores: a core holds its
    stages' rows by reference (result assembly reads them), but the
    bind makes none of them."""
    return frozenset(id(row) for relation in database for row in relation.tuples)


def test_lowering_keeps_no_list_per_connector():
    """Ten times the rows, ten times the connectors, the same lists and
    the same tuples: the entries are one pool of columns, so a bind makes
    neither a list per connector nor a tuple per entry — and ranking a
    connector keeps lists of numbers, no tuple."""
    query = QUERIES["path4"]
    tree = build_join_tree(query)
    databases = [make_database(query, n, seed=14) for n in (2_000, 20_000)]
    small, large = (
        lower.lower_query(database, tree, TROPICAL) for database in databases
    )
    assert large.num_connectors > 5 * small.num_connectors
    assert reachable(small, list, FIRST_TOUCH_CACHES) == reachable(
        large, list, FIRST_TOUCH_CACHES
    )
    small_tuples, large_tuples = (
        reachable(core, tuple, FIRST_TOUCH_CACHES, stored_rows(database))
        for core, database in zip((small, large), databases)
    )
    assert small_tuples == large_tuples
    # The root's Take2 heap is ranked at bind; any other connector when
    # enumeration first touches it — as lists of numbers only.
    root = large.root_uid[0]
    states, keys, ranks = large._take2_heaps[root]
    assert len(states) == len(keys) == large.conn_size(root) and ranks is None
    assert large._take2_heaps.count(None) == large.num_connectors - 1
    # The arrays ranked at bind are counted as they are: no ranks here.
    columns = large.heap_columns
    assert columns[2] is None
    assert flat._seq_bytes(columns, set()) == sys.getsizeof(columns) + sum(
        map(sys.getsizeof, columns[:2])
    )
    lists, tuples = reachable(large, list), reachable(large, tuple)
    large.take2_heap(0)
    large.sorted_order(0)
    # [states, keys, None] each, and Eager's uid-indexed list, made on
    # its first sort.
    assert reachable(large, list) == lists + 2 * 3 + 1
    assert reachable(large, tuple) == tuples
    answers = make_enumerator(large, "take2")
    for _answer in zip(range(50), answers):
        pass
    assert reachable(large, tuple, known=stored_rows(databases[1])) == large_tuples


def test_a_list_of_typed_columns_counts_each_by_its_own_size():
    """Per-stage typed arrays of different lengths are each counted as
    they are, not as the first one times the number of stages."""
    column = [array("q", range(3)), array("d", [0.5] * 1_000)]
    assert flat._seq_bytes(column, set()) == sys.getsizeof(column) + sum(
        map(sys.getsizeof, column)
    )


# -- what the collector walks ----------------------------------------------------

#: Slots a walk leaves out: the state values (the stored weight objects,
#: a reference per state), the first-touch caches, and the dioid (a
#: tie-breaker's rank tables are the ranking's input, shared by every
#: member of a union).
UNWALKED = ("val_base", *FIRST_TOUCH_CACHES, "dioid")


def walked_references(core) -> int:
    """What a collection traverses from a core: ``len(gc.get_referents(x))``
    summed over the GC-tracked objects reachable from its slots through
    lists, tuples and dicts, leaving out the :data:`UNWALKED` slots (with
    their per-stage lists) and each stage's row store — the stored rows:
    a relation's own list, a backend's one fetch, a bag's columns."""
    skipped = {id(rows) for rows in core.tuples}
    for name in UNWALKED:
        value = getattr(core, name)
        skipped.add(id(value))
        if isinstance(value, list):
            skipped.update(map(id, value))
    gc.collect()  # untracks what holds no container, in either core
    stack = [
        getattr(core, name) for name in flat.CompiledTDP.__slots__
        if name not in UNWALKED
    ]
    walked = 0
    while stack:
        item = stack.pop()
        if id(item) in skipped or not gc.is_tracked(item):
            continue
        skipped.add(id(item))
        referents = gc.get_referents(item)
        walked += len(referents)
        if isinstance(item, (list, tuple, dict)):
            stack.extend(referents)
    return walked


def column_backed(database) -> Database:
    """``database`` with every relation held as int64 columns, as a cycle
    decomposition's bags are."""
    return Database([
        Relation.from_columns(relation.name, ColumnImage(
            [np.array(column, np.int64) for column in zip(*relation.tuples)],
            np.array(relation.weights, np.float64),
        ))
        for relation in database
    ])


def lower_cell(cell: str, database):
    """One bind of the path-4 over ``database``, as ``cell`` asks: the
    whole query, or a tie-broken union member over rows or columns."""
    tree = build_join_tree(QUERIES["path4"])
    if cell in ("path4", "sqlite"):
        return lower.lower_query(database, tree, TROPICAL)
    if cell == "member_columns":
        database = column_backed(database)
    positions = {var: slot for slot, var in enumerate(tree.query.variables)}
    tie = TieBreakingDioid(TROPICAL, len(positions))
    rank_tie_domains(tie, [(database, tree, positions)])
    core = lower.lower_member(database, tree, tie, positions, lower.member_lane(tie)[0])
    stores = (lower.ColumnRows if cell == "member_columns" else list,)
    assert all(type(rows) in stores for rows in core.tuples)
    return core


@pytest.mark.parametrize("cell", ["path4", "member_rows", "member_columns", "sqlite"])
def test_a_bound_core_leaves_the_collector_nothing_to_walk(tmp_path, cell):
    """Ten times the rows, ten times the connectors and the states, the
    same references for the collector to walk: every per-state and
    per-connector number column is a typed array, and no stage keeps a
    per-state row list."""
    query = QUERIES["path4"]
    walked, sizes = [], []
    for n in (2_000, 20_000):
        database = make_database(query, n, seed=14)
        if cell == "sqlite":
            sqlite = SQLiteBackend(str(tmp_path / f"walk{n}.db"))
            for relation in database:
                sqlite.ingest(relation)
            database = sqlite.database()
        try:
            core = lower_cell(cell, database)
            assert not core.empty
            walked.append(walked_references(core))
            sizes.append((core.num_connectors, core.stats()["states"]))
        finally:
            database.close()
    (small_conns, small_states), (large_conns, large_states) = sizes
    assert large_conns > 5 * small_conns and large_states > 5 * small_states
    assert walked[0] == walked[1]


@pytest.mark.parametrize("mutation", ["add", "replace"])
def test_a_pinned_stream_reads_its_own_rows_after_a_mutation(mutation):
    """A cursor opened at version v keeps reading v's witnesses after a
    relation is appended to, or its tuple list replaced: a core reads
    each stage's store — the relation's list it was bound over — by
    tuple id, never the relation's current list."""
    from repro.engine import Engine

    def read(results) -> list[tuple]:
        return [
            (result.weight.hex(), result.witness_ids, result.witness, result.assignment)
            for result in results
        ]

    query = QUERIES["path4"]
    with Engine(make_database(query, 300, seed=19)) as reference:
        expected = read(reference.prepare(query).top(60))
    database = make_database(query, 300, seed=19)
    with Engine(database) as engine:
        cursor = engine.prepare(query).cursor()
        results = list(cursor.fetch(20))
        for relation in database:
            if mutation == "add":
                relation.add((1, 1), -1000.0)
            else:
                relation.tuples = relation.tuples[::-1]
        results += cursor.fetch(40)
        assert read(results) == expected


@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_the_root_is_pooled_last(shape, dioid):
    """Stage 0's root connector takes the last uid and holds every state
    of stage 0 in order; ``conn_size`` reads any connector off the
    offsets, and ``stats`` counts the whole pool."""
    query = QUERIES[shape]
    database = make_database(query, 700, seed=15)
    core = lower.lower_query(database, build_join_tree(query), DIOIDS[dioid])
    assert not core.empty
    offsets = core.conn_offsets
    root = core.root_uid[0]
    assert root == core.num_connectors - 1 == len(offsets) - 2
    assert core.conn_stage[root] == 0
    assert core.entry_state[offsets[root]:].tolist() == list(
        range(len(core.val_base[0]))
    )
    assert core.stats()["entries"] == offsets[-1] == len(core.entry_key)
    for uid in range(core.num_connectors):
        assert core.conn_size(uid) == len(core.pairs(uid))


# -- ranking by pool position ---------------------------------------------------

#: Keys that tie, as zeros of either sign, and as NaN (each a fresh
#: object, as the pool holds them), or mostly do not.
RANKED_KEYS = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0, math.inf, math.nan]) | (
    st.floats(-1e6, 1e6)
)


@st.composite
def pooled_connectors(draw):
    """``(key, rank, states, lo, hi)``: a pool whose positions ``lo .. hi``
    are one connector, its distinct states ascending (a lowered core's)
    or not (``DPProblem``'s, compiled); ``rank`` is ``None`` (a core
    with an inverse) or ints, now and then one past int64; ``key`` a list
    or, like a mapped ``.core`` file's, a ``memoryview``."""
    size = draw(st.integers(0, 150))
    lo = draw(st.integers(0, 5))
    total = lo + size + draw(st.integers(0, 3))
    keys = draw(st.lists(RANKED_KEYS, min_size=total, max_size=total))
    keys = [float(k) for k in keys]
    states = sorted(draw(st.sets(st.integers(0, 10_000), min_size=size, max_size=size)))
    if draw(st.booleans()):
        states = draw(st.permutations(states))
    states = [0] * lo + states + [0] * (total - lo - size)
    rank = None
    if draw(st.booleans()):
        rank = draw(st.lists(st.integers(0, 3), min_size=total, max_size=total))
        if total and draw(st.sampled_from([False, False, False, True])):
            rank[draw(st.integers(0, total - 1))] = 2**63  # past int64
    if rank is None and draw(st.booleans()):
        keys = memoryview(array("d", keys))
    return keys, rank, states, lo, lo + size


def entries_at(key, rank, states, positions) -> list[tuple]:
    if rank is None:
        return [(key[p], states[p]) for p in positions]
    return [(key[p], rank[p], states[p]) for p in positions]


def canon(entries: list[tuple]) -> list[tuple]:
    """Entries with each float as its bits, so ``-0.0`` and NaN compare."""
    return [tuple(bits(v) if type(v) is float else v for v in e) for e in entries]


@settings(max_examples=300, deadline=None)
@given(pooled_connectors())
def test_position_heap_and_order_are_heapify_and_sorted(connector):
    """Take2's heap and Eager's order, kept as pool positions and mapped
    back to entries, are ``heapify``'s layout and ``sorted``'s order of
    the ``(key[, rank], state)`` tuples themselves — on first touch, and
    as the pool's heaps are ranked at bind, from arrays (a lowered
    core's connector, states ascending)."""
    key, rank, states, lo, hi = connector
    expected = entries_at(key, rank, states, range(lo, hi))
    heapify(expected)
    heap = flat._heap_positions(key, rank, states, lo, hi)
    assert canon(entries_at(key, rank, states, heap)) == canon(expected)

    # At bind: the connector between two others, ranked with them.
    keys = np.asarray(key, np.float64)
    ranks = None if rank is None else lower._rank_array(rank)
    layout = flat.heap_layout(keys, ranks, np.array([0, lo, hi, len(keys)]))
    if layout is None:
        assert np.isnan(keys).any() or ranks.dtype == object
    elif states[lo:hi] == sorted(states[lo:hi]):
        heap = layout[lo:hi].tolist()
        assert canon(entries_at(key, rank, states, heap)) == canon(expected)

    expected = sorted(entries_at(key, rank, states, range(lo, hi)))
    order = flat._sorted_positions(key, rank, states, lo, hi)
    assert canon(entries_at(key, rank, states, order)) == canon(expected)
