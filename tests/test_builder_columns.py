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
against their scalar definitions on columns no stage produces (any
ranks, any base weights), and a container gate pins what a tie-broken
state may keep alive.
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
from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
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
    return lambda database, tree: (dioid, lambda: None)


def _tie(base):
    def ranking(database, tree):
        variables = tree.query.variables
        tie = TieBreakingDioid(base, len(variables))
        positions = {var: slot for slot, var in enumerate(variables)}
        rank_tie_domains(tie, [(database, tree, positions)])
        return tie, lambda: make_tie_lift(tie, positions, tree)

    return ranking


def _lexicographic(helper):
    def ranking(database, tree):
        dioid, lift = helper(tree.query)
        return dioid, lambda: lift

    return ranking


#: name -> (database, tree) -> (dioid, factory of a fresh lift).  The lexicographic
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
    dioid, fresh_lift = RANKINGS[ranking](database, tree)
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

    Under the tie-breaking dioid they also share a rank: ``1``, ``1.0``
    and ``True`` are one key of the rank table, whether the lift is
    called per row or per column.
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
    variables = query.variables
    tie = TieBreakingDioid(base, len(variables))
    positions = {var: slot for slot, var in enumerate(variables)}
    trees = [build_join_tree(task.query) for task in tasks]
    # One numbering for all members, as ``UnionPhysical`` does.
    rank_tie_domains(
        tie, [(task.database, tree, positions) for task, tree in zip(tasks, trees)]
    )
    states = 0
    for task, tree in zip(tasks, trees):
        assert any(len(tree.shared_variables(atom)) == 2 for atom in tree.order)

        def fresh_lift():
            return make_tie_lift(tie, positions, tree)

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


#: Tie-broken values: any base weight, any rank (Python ints do not wrap).
tie_values = st.tuples(
    st.one_of(st.floats(allow_nan=False), st.integers(-3, 3), st.just(-0.0)),
    st.one_of(st.integers(0, 50), st.integers(0, 10**40)),
)


@st.composite
def tie_column_pairs(draw):
    tie = TieBreakingDioid(
        draw(st.sampled_from([TROPICAL, MAX_TIMES])), draw(st.integers(0, 4))
    )
    length = draw(st.sampled_from([0, 1, 1, 2, 5, 9]))
    column = st.one_of(
        st.lists(tie_values, min_size=length, max_size=length),
        st.just([tie.one] * length),
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
    # Against a column of ``one`` the ranks come back; the base lane
    # still goes through the base dioid (``0.0 + 2`` is ``2.0``).
    ones = [tie.one] * len(a)
    for product in (tie.times_column(a, ones), tie.times_column(ones, a)):
        assert [out[1] for out in product] == [value[1] for value in a]
        assert repr([out[0] for out in product]) == repr(
            [tie.base.times(tie.base.one, value[0]) for value in a]
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
    """Same values by ``repr``; each stage lifts the variables it owns."""
    query = QUERIES["twocol"]  # R1(a, b, c), R2(b, c, d), R3(c, d, e)
    tree = build_join_tree(query)
    assert tree.order[0] == 0 and tree.parent[1] == 0
    tie = TieBreakingDioid(TROPICAL, 4)
    positions = {"b": 0, "d": 2, "e": 3}  # ``c`` is not ranked, slot 1 unused
    # ``1`` is spelled ``True`` and ``1.0`` too: one rank.
    rows = [(5, 1, True), (1.0, 7, 1), (True, 5, 5), (2, 2, 2)]
    weights = [0.5, 1, -0.0, 2.5]
    database = Database(
        [Relation(f"R{i}", 3, rows, weights) for i in (1, 2, 3)]
    )
    rank_tie_domains(tie, [(database, tree, positions)])
    # b: column 1 of R1 {1, 7, 5, 2}; d: column 2 of R2 {1, 5, 2}; e:
    # column 2 of R3 (the same column) -- places 9, 3, 1.
    assert tie.ranks == (
        {1: 0, 2: 9, 5: 18, 7: 27}, {}, {1: 0, 2: 3, 5: 6}, {1: 0, 2: 1, 5: 2},
    )
    scalar_lift = make_tie_lift(tie, positions, tree)
    column_lift = make_tie_lift(tie, positions, tree).column
    for atom, ranks in zip(
        query.atoms, ([0, 27, 18, 9], [0, 0, 6, 3], [0, 0, 2, 1])
    ):
        scalar = [scalar_lift(atom, row, w) for row, w in zip(rows, weights)]
        assert repr(column_lift(atom, rows, weights)) == repr(scalar)
        assert scalar == list(zip(weights, ranks))
        assert column_lift(atom, [], []) == []
    unranked = make_tie_lift(tie, {"z": 1}, tree).column(query.atoms[1], rows, weights)
    assert unranked == [(w, 0) for w in weights]


# -- the cost gate: count, do not time -----------------------------------------

#: Containers a stage may hold beside its states' and connectors': its
#: columns, its join-key maps, the lift's slot columns.  Measured 10 per
#: stage (CPython 3.11).
CONTAINERS_PER_STAGE = 24


def test_tie_broken_bind_keeps_four_tuples_per_state_and_no_per_state_list():
    """What a tie-broken state costs in containers, by census.

    With the collector off nothing is untracked, so every container the
    bind made and still holds is in ``gc.get_objects()``.  A state may
    keep four tuples beyond its row — its lifted value ``(weight,
    rank)``, its entry value (the product with ``pi1``), the entry's key
    and the entry — beside the tuple of its child connectors.  None of
    them holds a tuple of tuples or a per-value box: the tie-breaker is
    an ``int`` in each.  ``pi1`` is not on the list: a connector's
    minimum is folded once per distinct connector and handed to every
    state that points at it.  Lists are per stage (columns) or per
    connector (entries), never per state.
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
        rank_tie_domains(tie, [(database, tree, positions)])
        return build_tdp(
            database, tree, dioid=tie, lift=make_tie_lift(tie, positions, tree)
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
    child_conn_tuples = sum(
        type(o) is tuple and len(o) == 1 and type(o[0]) is ChoiceSet for o in fresh
    )
    assert child_conn_tuples == root_states
    fresh_tuples = [o for o in fresh if type(o) is tuple]
    tuples = len(fresh_tuples) - child_conn_tuples
    # (+ per referenced connector: its folded minimum; the rank tables
    # are dicts, three of them.)
    assert tuples <= (
        4 * (root_states + leaf_states) + connectors + CONTAINERS_PER_STAGE * 2
    ), tuples
    assert tuples > 3 * (root_states + leaf_states)  # the census sees them
    # A value or a key is a pair of scalars; only an entry holds tuples
    # (its key and its value), and nothing holds a one-tuple box.
    for item in fresh_tuples:
        if len(item) == 2:
            assert not any(type(part) is tuple for part in item), item
        assert not (len(item) == 1 and type(item[0]) is int), item
    lists = sum(type(o) is list for o in fresh)
    assert lists <= connectors + CONTAINERS_PER_STAGE * 2, lists
