"""The column builder is the scalar builder, in bits.

``repro.dp.builder.build_tdp`` sweeps a stage as columns: one probe pass
per child branch, one ``times_column`` per branch and one for the
entries, one ``key_column``, one lift column.  The loop it replaced
lives on in ``tests/scalar_builder.py`` and is the oracle here: for
every dioid the compiled core cannot take, over every query shape and
over hostile weight and join-key palettes, both builders must produce
the same T-DP — compared by ``repr``, which tells ``-0.0`` from ``0.0``,
``1`` from ``1.0`` from ``True`` and prints a NaN as itself.

The tie-breaking dioid's column operations are additionally checked
against their scalar definitions on columns no stage produces
(non-uniform partial bindings), and a container gate pins what a
tie-broken state may keep alive.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.cycle import decompose_cycle
from repro.dp.builder import build_tdp, make_tie_lift
from repro.dp.graph import ChoiceSet
from repro.query.builders import cycle_query, path_query
from repro.query.jointree import build_join_tree
from repro.ranking.dioid import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    TROPICAL,
    TieBreakingDioid,
)
from repro.ranking.lexicographic import (
    attribute_lexicographic,
    relation_lexicographic,
)
from tests.scalar_builder import build_tdp_scalar
from tests.test_lower_columns import QUERIES, WEIGHTS, make_database

#: The lowering suite's palettes (NaN, ±inf, ±0.0, ints, mixed types) plus
#: two-valued weights: every connector a run of ties.
PALETTES = [*WEIGHTS, "ties"]


def database_for(query, n, weights, seed, **shape):
    if weights != "ties":
        return make_database(query, n, weights, seed, **shape)
    database = make_database(query, n, "floats", seed, **shape)
    rng = random.Random(seed)
    for relation in database:
        relation.weights = [rng.choice([1.0, 2.0]) for _ in relation.tuples]
    return database


def _plain(dioid):
    return lambda query: (dioid, lambda: None)


def _tie(base):
    def ranking(query):
        variables = query.variables
        tie = TieBreakingDioid(base, len(variables))
        positions = {var: slot for slot, var in enumerate(variables)}
        # A lift shares its value boxes across calls: one per build.
        return tie, lambda: make_tie_lift(tie, positions)

    return ranking


def _lexicographic(helper):
    def ranking(query):
        dioid, lift = helper(query)
        return dioid, lambda: lift

    return ranking


#: name -> query -> (dioid, factory of a fresh lift).  The lexicographic
#: lifts are plain ``(atom, values, raw_weight)`` callables with no column
#: form; the tie lift has one, which only the column builder looks for.
RANKINGS = {
    "tropical": _plain(TROPICAL),
    "max-plus": _plain(MAX_PLUS),
    "max-times": _plain(MAX_TIMES),
    "boolean": _plain(BOOLEAN),
    "relation-lex": _lexicographic(relation_lexicographic),
    "attribute-lex": _lexicographic(
        lambda query: attribute_lexicographic(query, query.variables[::-1][:3])
    ),
    "tie/tropical": _tie(TROPICAL),
    "tie/max-times": _tie(MAX_TIMES),
}


def connectors_of(tdp) -> dict[int, ChoiceSet]:
    """Every connector a state or the virtual start state points at."""
    found = {}
    for stage_conns in tdp.child_conns:
        for conns in stage_conns:
            for conn in conns:
                found[conn.uid] = conn
    for conn in tdp.root_conn.values():
        found[conn.uid] = conn
    return found


def snapshot(tdp) -> dict:
    """All a builder emits, values as ``repr`` strings, connectors by uid."""
    return {
        "tuples": repr(tdp.tuples),
        "tuple_ids": repr(tdp.tuple_ids),
        "values": repr(tdp.values),
        "pi1": repr(tdp.pi1),
        "child_conns": [
            [tuple(conn.uid for conn in conns) for conns in stage]
            for stage in tdp.child_conns
        ],
        "connectors": {
            uid: (conn.stage, repr(conn.entries), repr(conn.min_entry))
            for uid, conn in sorted(connectors_of(tdp).items())
        },
        "root_conn": {stage: conn.uid for stage, conn in tdp.root_conn.items()},
        "best_weight": repr(tdp.best_weight),
        "num_connectors": tdp.num_connectors,
        "empty": tdp.is_empty(),
    }


def assert_same_tdp(database, tree, ranking, **options):
    dioid, fresh_lift = RANKINGS[ranking](tree.query)
    columns = build_tdp(database, tree, dioid=dioid, lift=fresh_lift(), **options)
    scalar = build_tdp_scalar(
        database, tree, dioid=dioid, lift=fresh_lift(), **options
    )
    got, expected = snapshot(columns), snapshot(scalar)
    for field, value in expected.items():
        assert got[field] == value, field
    for stage in range(columns.num_stages):
        for column in (
            columns.tuples, columns.tuple_ids, columns.values, columns.pi1,
            columns.child_conns,
        ):
            assert type(column[stage]) is list
    if "nan" not in expected["values"] + expected["pi1"] + repr(
        [conn.entries for conn in connectors_of(scalar).values()]
    ):
        columns.verify()  # (``verify`` compares with ``==``: NaN-free only)
    return columns


# -- every dioid, shape and palette --------------------------------------------


@pytest.mark.parametrize("weights", PALETTES)
@pytest.mark.parametrize("shape", list(QUERIES))
@pytest.mark.parametrize("ranking", list(RANKINGS))
def test_columns_equal_the_scalar_loop(ranking, shape, weights):
    """Path, star (three child branches), two-column keys, repeated variable."""
    query = QUERIES[shape]
    database = database_for(query, 60, weights, seed=2201)
    tdp = assert_same_tdp(database, build_join_tree(query), ranking)
    if weights == "floats":
        assert tdp.num_states() > 0


@pytest.mark.parametrize("shape", ["path4", "star4", "twocol"])
@pytest.mark.parametrize("ranking", list(RANKINGS))
def test_join_keys_1_and_1_0_and_true(ranking, shape):
    """Equal keys of different types share a connector and keep their spelling.

    Under the tie-breaking dioid the id boxes are shared per *equal*
    value: which spelling a box carries (the first in row-major order)
    must not depend on the lift being called per row or per column.
    """
    query = QUERIES[shape]
    database = make_database(query, 80, "mixed", seed=2202, mixed_keys=True)
    tdp = assert_same_tdp(database, build_join_tree(query), ranking)
    assert tdp.num_states() > 0


@pytest.mark.parametrize("edge", ["empty_leaf", "dead_leaf", "empty_anchor"])
@pytest.mark.parametrize("shape", ["path4", "star4"])
@pytest.mark.parametrize("ranking", list(RANKINGS))
def test_empty_relation_and_dying_stage(ranking, shape, edge):
    query = QUERIES[shape]
    database = make_database(query, 40, "floats", seed=2203, edge=edge)
    tdp = assert_same_tdp(database, build_join_tree(query), ranking)
    assert tdp.is_empty()


@pytest.mark.parametrize("shape", ["path4", "star4", "selfjoin_repeat"])
@pytest.mark.parametrize("ranking", ["tropical", "max-times", "tie/max-times"])
def test_private_connectors(ranking, shape):
    """``share_connectors=False``: state-major uids, private entry lists."""
    query = QUERIES[shape]
    database = make_database(query, 60, "mixed", seed=2204)
    tdp = assert_same_tdp(
        database, build_join_tree(query), ranking, share_connectors=False
    )
    private = [
        conn for stage in tdp.child_conns for conns in stage for conn in conns
    ]
    assert private and len({id(conn.entries) for conn in private}) == len(private)


@pytest.mark.parametrize("self_join", [False, True])
@pytest.mark.parametrize("base", [TROPICAL, MAX_TIMES], ids=repr)
def test_decomposition_bag_trees(base, self_join):
    """The production input: simple-cycle bags, joined on two columns."""
    rng = random.Random(2205)
    relations = []
    for name in ["E"] if self_join else ["R1", "R2", "R3", "R4"]:
        tuples = [
            (rng.randint(1, 2) if j % 4 == 0 else rng.randint(3, 12),
             rng.randint(1, 12))
            for j in range(70)
        ]
        weights = [round(rng.uniform(0.1, 1.0), 3) for _ in tuples]
        relations.append(Relation(name, 2, tuples, weights))
    database = Database(relations)
    query = cycle_query(4, relation="E" if self_join else None)
    tasks = decompose_cycle(database, query, dioid=base)
    assert len(tasks) > 1
    tie, fresh_lift = _tie(base)(query)
    states = 0
    for task in tasks:
        tree = build_join_tree(task.query)
        assert any(len(tree.shared_variables(atom)) == 2 for atom in tree.order)
        columns = build_tdp(task.database, tree, dioid=tie, lift=fresh_lift())
        scalar = build_tdp_scalar(task.database, tree, dioid=tie, lift=fresh_lift())
        assert snapshot(columns) == snapshot(scalar)
        columns.verify()
        states += columns.num_states()
    assert states > 0


def test_stage_columns_are_not_the_relations_lists():
    """A fully alive stage must not alias the lists its relation stores."""
    query = path_query(2)
    database = Database([
        Relation("R1", 2, [(1, 2), (3, 2)], [1.0, 2.0]),
        Relation("R2", 2, [(2, 5)], [0.5]),
    ])
    tdp = build_tdp(database, build_join_tree(query))
    for stage, atom in enumerate(tdp.atom_of_stage):
        relation = database[query.atoms[atom].relation_name]
        assert tdp.tuples[stage] == relation.tuples
        assert tdp.tuples[stage] is not relation.tuples
        assert tdp.values[stage] is not relation.weights
    database["R1"].add((9, 2), 7.0)
    assert len(tdp.tuples[0]) == len(tdp.values[0]) == 2


# -- the tie-breaking dioid's column operations --------------------------------


def tie_values(slots: int):
    """Tie-broken values with *any* subset of the slots bound, per value."""
    slot = st.one_of(st.just(()), st.tuples(st.integers(0, 3)))
    ids = st.tuples(*[slot] * slots)
    base = st.one_of(
        st.floats(allow_nan=False), st.integers(-3, 3), st.just(-0.0)
    )
    return st.tuples(base, ids)


@st.composite
def tie_column_pairs(draw):
    slots = draw(st.integers(0, 4))
    tie = TieBreakingDioid(draw(st.sampled_from([TROPICAL, MAX_TIMES])), slots)
    length = draw(st.sampled_from([0, 1, 1, 2, 5, 9]))
    column = st.one_of(
        st.lists(tie_values(slots), min_size=length, max_size=length),
        st.just([tie.one] * length),
        # Uniform in one slot: bound in every row of the column.
        st.lists(tie_values(slots), min_size=length, max_size=length).map(
            lambda rows: [
                (base, ((7,),) + ids[1:]) if ids else (base, ids)
                for base, ids in rows
            ]
        ),
    )
    return tie, draw(column), draw(column)


@settings(max_examples=300, deadline=None)
@given(tie_column_pairs())
def test_tie_column_operations_equal_their_scalar_definitions(case):
    tie, a, b = case
    product = tie.times_column(a, b)
    expected = [tie.times(x, y) for x, y in zip(a, b)]
    assert type(product) is list and repr(product) == repr(expected)
    assert repr(tie.key_column(product)) == repr([tie.key(v) for v in expected])
    assert repr(tie.key_column(a)) == repr([tie.key(v) for v in a])
    # Against a column of ``one`` the id vectors come back themselves
    # (an all-unbound vector may come back as ``one``'s, as from ``times``).
    ones = [tie.one] * len(a)
    for product in (tie.times_column(a, ones), tie.times_column(ones, a)):
        assert all(
            out[1] is value[1] or value[1] == tie.one[1]
            for out, value in zip(product, a)
        )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False), max_size=6),
    st.sampled_from([TROPICAL, MAX_PLUS, MAX_TIMES, BOOLEAN]),
)
def test_default_column_operations_are_the_scalar_methods_mapped(values, dioid):
    flipped = values[::-1]
    assert repr(dioid.times_column(values, flipped)) == repr(
        [dioid.times(x, y) for x, y in zip(values, flipped)]
    )
    assert repr(dioid.key_column(values)) == repr([dioid.key(v) for v in values])


def test_tie_lift_column_is_the_scalar_lift_mapped():
    """Same values by ``repr``, boxes shared per equal value in both forms."""
    query = QUERIES["twocol"]
    atom = query.atoms[1]
    tie = TieBreakingDioid(TROPICAL, 4)
    positions = {"b": 0, "d": 2, "e": 3}  # ``c`` is not ranked, ``e`` not here
    # Row-major, ``1`` is first spelled ``True`` (row 0, column ``d``);
    # column by column it would be ``1.0`` (row 1, column ``b``).
    rows = [(5, 1, True), (1.0, 7, 1), (True, 5, 5), (2, 2, 2)]
    weights = [0.5, 1, -0.0, 2.5]
    scalar_lift = make_tie_lift(tie, positions)
    scalar = [scalar_lift(atom, row, w) for row, w in zip(rows, weights)]
    column = make_tie_lift(tie, positions).column(atom, rows, weights)
    assert repr(column) == repr(scalar)
    assert repr(column[1]) == "(1, ((True,), (), (True,), ()))"
    assert column[0][1][2] is column[1][1][0] is column[2][1][0]
    unranked = make_tie_lift(tie, {"z": 1}).column(atom, rows, weights)
    assert unranked == [(w, tie.one[1]) for w in weights]
    assert make_tie_lift(tie, positions).column(atom, [], []) == []


# -- the cost gate: count, do not time -----------------------------------------

#: Containers a stage may hold beside its states' and connectors': its
#: columns, its join-key maps, the lift's slot columns.  Measured 10 per
#: stage (CPython 3.11).
CONTAINERS_PER_STAGE = 24


def test_tie_broken_bind_keeps_six_tuples_per_state_and_no_per_state_list():
    """What a tie-broken state costs in containers, by census.

    With the collector off nothing is untracked, so every container the
    bind made and still holds is in ``gc.get_objects()``.  A leaf state
    may keep five tuples — its id vector, its lifted value, its entry
    value (the same id vector under a new base weight), the entry's key
    and the entry — and a state with child branches a sixth, the merged
    id vector, beside the tuple of its child connectors.  ``pi1`` is not
    on the list: a connector's minimum is folded once per distinct
    connector and handed to every state that points at it.  Lists are
    per stage (columns) or per connector (entries), never per state.
    """
    query = path_query(2)
    rng = random.Random(2206)
    database = Database([
        Relation(
            f"R{i}", 2,
            [(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(900)],
            [rng.uniform(0.1, 1.0) for _ in range(900)],
        )
        for i in (1, 2)
    ])
    tree = build_join_tree(query)
    tie = TieBreakingDioid(MAX_TIMES, 3)
    positions = {var: slot for slot, var in enumerate(query.variables)}

    def bind():
        return build_tdp(
            database, tree, dioid=tie, lift=make_tie_lift(tie, positions)
        )

    bind()  # warm caches, imports
    gc.collect()
    gc.disable()
    try:
        known = {id(o) for o in gc.get_objects()}
        tdp = bind()
        fresh = [o for o in gc.get_objects() if id(o) not in known]
    finally:
        gc.enable()
    root_states, leaf_states = (len(stage) for stage in tdp.tuples)
    assert root_states > 500 and leaf_states > 500
    connectors = tdp.num_connectors
    values = 40  # one ``(value,)`` box per distinct domain value
    child_conn_tuples = sum(
        type(o) is tuple and len(o) == 1 and type(o[0]) is ChoiceSet for o in fresh
    )
    assert child_conn_tuples == root_states
    tuples = sum(type(o) is tuple for o in fresh) - child_conn_tuples
    # (+ per referenced connector: its folded minimum.)
    assert tuples <= (
        6 * root_states + 5 * leaf_states + connectors + values
        + CONTAINERS_PER_STAGE * 2
    ), tuples
    assert tuples > 5 * (root_states + leaf_states)  # the census sees them
    lists = sum(type(o) is list for o in fresh)
    assert lists <= connectors + CONTAINERS_PER_STAGE * 2, lists
