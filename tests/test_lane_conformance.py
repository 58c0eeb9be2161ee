"""A lowered union member is the object member, column by column and rank by rank.

:func:`repro.dp.lane.lower_member` lowers a tie-broken member straight to
a two-lane :class:`~repro.dp.lane.LaneCore` and :mod:`repro.anyk.flat`'s
kernels enumerate it.  The object path — ``build_tdp`` under
:class:`~repro.ranking.dioid.TieBreakingDioid` and the enumerators of
``anyk/partition.py``, ``recursive.py`` and ``batch.py`` — is the oracle:

* **columns**: per stage the rows, witness ids, value lanes and entry
  lanes; per connector its uid, stage, entries (key, rank, state) and
  minimum; per state its child connectors; the best weight — every
  number compared by type and ``float.hex``;
* **ranks**: ``(weight, key, states)`` of every answer, and the
  ``OpCounter`` after 1, 13 and all answers, for all seven variants.

Over 3 bases (tropical, max-plus, max-times) x 3 weight palettes (floats,
``int`` 1..3, massive ties with signed zeros) x 3 members (the all-light
chain and a heavy fan of a 4-cycle, a four-bag heavy member of a
6-cycle), plus tree-shaped members — a star (open branches, ranked
products) and a two-component query (several roots) — that no cycle
produces.  Nothing here needs numpy.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from repro.anyk.base import make_enumerator
from repro.data.database import Database
from repro.data.generators import uniform_database
from repro.data.relation import Relation
from repro.decomposition.cycle import decompose_cycle
from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
from repro.dp.flat import LANE_CALL, LANE_ID, LANE_NEG, key_lane
from repro.dp.lane import LaneCore, lower_member, member_lane
from repro.dp.lower import lower_query
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import (
    MAX_PLUS,
    MAX_TIMES,
    TROPICAL,
    BooleanDioid,
    LexicographicDioid,
    MaxTimesDioid,
    TieBreakingDioid,
    TropicalDioid,
    lane_of,
)
from repro.util.counters import OpCounter
from tests import vector_tie

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
BASES = {"tropical": TROPICAL, "max_plus": MAX_PLUS, "max_times": MAX_TIMES}
#: Counters are compared after this many answers, and after the last.
CHECKPOINTS = (1, 13)


def palette_weights(rng: random.Random, palette: str, n: int) -> list:
    if palette == "floats":
        return [round(rng.uniform(0.05, 3.0), 3) for _ in range(n)]
    if palette == "ints":
        return [rng.randint(1, 3) for _ in range(n)]
    return [rng.choice((0.0, -0.0, 1.0)) for _ in range(n)]  # massive ties


def cycle_database(length: int, n: int, domain: int, palette: str, seed: int) -> Database:
    """A cycle whose first columns are skewed: heavy members are non-empty."""
    rng = random.Random(seed)
    relations = []
    for i in range(1, length + 1):
        tuples = [
            (rng.randint(1, 2) if j % 4 == 0 else rng.randint(3, domain),
             rng.randint(1, domain))
            for j in range(n)
        ]
        relations.append(Relation(f"R{i}", 2, tuples, palette_weights(rng, palette, n)))
    return Database(relations)


#: member -> (cycle length, rows per relation, domain, which task).
CYCLE_MEMBERS = {
    "light_chain": (4, 60, 9, "all-light"),
    "heavy_fan": (4, 60, 9, "heavy@x1"),
    "cycle6": (6, 30, 8, "heavy@x1"),
}
TREE_MEMBERS = {
    "star": star_query(3),
    "two_roots": parse_query("Q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(d, e)"),
}


def member_task(member: str, palette: str, base):
    """``(database, join tree, var -> slot)`` of one member to lower."""
    seed = 2500 + sorted(CYCLE_MEMBERS | TREE_MEMBERS).index(member)
    if member in CYCLE_MEMBERS:
        length, n, domain, label = CYCLE_MEMBERS[member]
        database = cycle_database(length, n, domain, palette, seed)
        query = cycle_query(length)
        (task,) = [
            task for task in decompose_cycle(database, query, dioid=base)
            if task.label == label
        ]
        variables = query.variables
        return task.database, build_join_tree(task.query), variables
    query = TREE_MEMBERS[member]
    rng = random.Random(seed)
    database = Database([
        Relation(
            atom.relation_name, 2,
            [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(18)],
            palette_weights(rng, palette, 18),
        )
        for atom in query.atoms
    ])
    return database, build_join_tree(query), query.variables


@lru_cache(maxsize=None)
def member_pair(member: str, palette: str, base_name: str):
    """The same member lowered and built: ``(core, object T-DP)``."""
    base = BASES[base_name]
    database, tree, variables = member_task(member, palette, base)
    positions = {var: slot for slot, var in enumerate(variables)}
    tie = TieBreakingDioid(base, len(variables))
    rank_tie_domains(tie, [(database, tree, positions)])
    lane, _why = member_lane(tie)
    core = lower_member(database, tree, tie, positions, lane)
    tdp = build_tdp(database, tree, dioid=tie, lift=make_tie_lift(tie, positions, tree))
    return core, tdp


def canon(value):
    """A number with its type and every bit; sequences element-wise."""
    if isinstance(value, (tuple, list)):
        return tuple(map(canon, value))
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def object_connectors(tdp) -> dict:
    """uid -> ChoiceSet, every connector the object T-DP references."""
    conns = {conn.uid: conn for conn in tdp.root_conn.values()}
    for stage_conns in tdp.child_conns:
        for state_conns in stage_conns:
            conns.update((conn.uid, conn) for conn in state_conns)
    return conns


MEMBERS = [*CYCLE_MEMBERS, *TREE_MEMBERS]
PALETTES = ["floats", "ints", "ties"]


@pytest.mark.parametrize("palette", PALETTES)
@pytest.mark.parametrize("base_name", list(BASES))
@pytest.mark.parametrize("member", MEMBERS)
def test_lowered_columns_equal_the_object_builder(member, base_name, palette):
    core, tdp = member_pair(member, palette, base_name)
    assert isinstance(core, LaneCore) and core.tdp._compiled is core
    shell = core.tdp
    assert shell.num_stages == tdp.num_stages
    assert shell.parent_stage == tdp.parent_stage
    assert core.num_connectors == tdp.num_connectors
    assert core.empty == tdp.is_empty() is False
    assert canon(core.best) == canon(tdp.best_weight) == canon(shell.best_weight)
    assert core.is_chain == (member not in TREE_MEMBERS)
    for stage in range(tdp.num_stages):
        assert shell.tuples[stage] == tdp.tuples[stage]
        assert shell.tuple_ids[stage] == tdp.tuple_ids[stage]
        assert canon(list(zip(core.val_base[stage], core.val_rank[stage]))) == canon(
            tdp.values[stage]
        )
        assert canon(list(shell.values[stage])) == canon(tdp.values[stage])
        branches = len(tdp.children_stages[stage])
        child_uids = core.child_uids[stage]
        for state, conns in enumerate(tdp.child_conns[stage]):
            assert child_uids[state * branches:(state + 1) * branches] == [
                conn.uid for conn in conns
            ]
    for uid, conn in object_connectors(tdp).items():
        stage = conn.stage
        assert core.conn_stage[uid] == stage
        assert canon(core.pairs(uid)) == canon(
            [(key[0], key[1], state) for key, state, _value in conn.entries]
        )
        for key, state, value in conn.entries:
            lanes = (core.ent_base[stage][state], core.ent_rank[stage][state])
            assert canon(lanes) == canon(value)
        assert canon((core.min_base[uid], core.min_rank[uid])) == canon(conn.min_value)


def ranked(enumerator, counter: OpCounter) -> tuple[list, list]:
    rows: list = []
    counts: list = []
    results = iter(enumerator)
    for checkpoint in CHECKPOINTS:
        rows.extend(
            (canon(r.weight), canon(r.key), r.states)
            for r in itertools.islice(results, checkpoint - len(rows))
        )
        counts.append(counter.as_dict())
    rows.extend((canon(r.weight), canon(r.key), r.states) for r in results)
    counts.append(counter.as_dict())
    return rows, counts


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("palette", PALETTES)
@pytest.mark.parametrize("base_name", list(BASES))
@pytest.mark.parametrize("member", MEMBERS)
def test_lane_kernels_rank_and_count_as_the_object_enumerators(
    member, base_name, palette, variant
):
    core, tdp = member_pair(member, palette, base_name)
    lane_counter, object_counter = OpCounter(), OpCounter()
    rows, counts = ranked(make_enumerator(core.tdp, variant, lane_counter), lane_counter)
    expected_rows, expected_counts = ranked(
        make_enumerator(tdp, variant, object_counter), object_counter
    )
    assert len(rows) > CHECKPOINTS[-1], "the member ranks something"
    assert rows == expected_rows
    assert counts == expected_counts


def test_a_run_that_is_dropped_is_freed_by_reference_counting():
    """No kernel holds its enumerator: a half-read run (and the core, once
    the plan is closed) goes without waiting for the cycle collector."""
    import gc
    import weakref

    core, _tdp = member_pair("light_chain", "floats", "max_times")
    for variant in ALL_VARIANTS:
        enumerator = make_enumerator(core.tdp, variant)
        next(iter(enumerator))
        gone = weakref.ref(enumerator)
        gc.disable()
        try:
            del enumerator
            assert gone() is None, variant
        finally:
            gc.enable()


def key_space_shell(shape: str):
    """A directly lowered tropical 4-path or 4-star: a key-space core's shell."""
    database = uniform_database(4, 40, domain_size=8, seed=2520)
    query = path_query(4) if shape == "path" else star_query(4)
    return lower_query(database, build_join_tree(query), TROPICAL).tdp


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("core", ["key_path", "key_star", "lane_chain", "lane_star"])
def test_every_kernel_frees_a_dropped_run_without_the_cycle_collector(core, variant):
    """The run holds its candidate heap or memo: dropping the enumerator
    and its iterator must free it at once, on either kind of core and
    either tree shape (a tree's Recursive keeps ranked products)."""
    import gc
    import weakref

    if core.startswith("key"):
        shell = key_space_shell(core[4:])
    else:
        shell = member_pair(
            "light_chain" if core == "lane_chain" else "star", "floats", "max_times"
        )[0].tdp
    gc.collect()
    gc.disable()
    try:
        enumerator = make_enumerator(shell, variant)
        results = iter(enumerator)
        next(results)
        gone = weakref.ref(enumerator)
        del enumerator, results
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("base_name", list(BASES))
def test_eager_over_a_wide_connector_sorts_every_entry_column(base_name):
    """From 64 entries up a connector's sorted list comes from numpy's
    ``lexsort`` where numpy is present: key, rank and state columns must
    all survive it, in ``sorted``'s order, for Eager to rank as the
    object path does."""
    core, tdp = member_pair("heavy_fan", "ties", base_name)
    wide = [uid for uid in range(core.num_connectors) if core.conn_size(uid) >= 64]
    assert wide
    for uid in wide:
        assert canon(core.sorted_pairs(uid)) == canon(sorted(core.pairs(uid)))
    lane_counter, object_counter = OpCounter(), OpCounter()
    assert ranked(make_enumerator(core.tdp, "eager", lane_counter), lane_counter) == ranked(
        make_enumerator(tdp, "eager", object_counter), object_counter
    )


def test_an_exhausted_generator_run_says_so_however_it_was_read():
    core, _tdp = member_pair("heavy_fan", "ints", "tropical")
    enumerator = make_enumerator(core.tdp, "take2")
    assert not enumerator.exhausted
    assert list(enumerator) and enumerator.exhausted
    stepped = make_enumerator(core.tdp, "lazy")
    while stepped.step(7):
        pass
    assert stepped.exhausted


# -- which path a member takes -------------------------------------------------


class CountingTropical(TropicalDioid):
    def times(self, a, b):
        return a + b


class ClampedMaxTimes(MaxTimesDioid):
    def key(self, a):
        return -min(a, 10.0)


def test_the_lane_is_declared_by_the_dioid_and_lost_by_an_override():
    assert str(lane_of(TROPICAL)[0]) == "a + b, key a"
    assert str(lane_of(MAX_PLUS)[0]) == "a + b, key -a"
    assert str(lane_of(MAX_TIMES)[0]) == "a * b, key -a"
    assert lane_of(CountingTropical()) == (None, "CountingTropical overrides times")
    assert lane_of(ClampedMaxTimes()) == (None, "ClampedMaxTimes overrides key")
    assert lane_of(BooleanDioid())[0] is None
    assert lane_of(LexicographicDioid(2))[0] is None
    for base in (TROPICAL, MAX_PLUS, MAX_TIMES):
        assert member_lane(TieBreakingDioid(base, 2))[0] is lane_of(base)[0]
    lane, why = member_lane(vector_tie.TieBreakingDioid(TROPICAL, 2))
    assert lane is None and "not the packed-rank tie-breaker" in why
    # The key-space core reads the same declaration for its weight transform.
    assert key_lane(TROPICAL) == LANE_ID
    assert key_lane(MAX_PLUS) == LANE_NEG
    assert key_lane(CountingTropical()) == LANE_CALL


@pytest.mark.parametrize(
    "dioid, lowered",
    [(TROPICAL, True), (MAX_PLUS, True), (MAX_TIMES, True),
     (CountingTropical(), False), (LexicographicDioid(1), False)],
)
def test_a_union_lowers_exactly_the_members_whose_base_keeps_a_lane(dioid, lowered):
    database = cycle_database(4, 40, 8, "floats", seed=2510)
    if isinstance(dioid, LexicographicDioid):
        for relation in database:
            relation.weights = [(w,) for w in relation.weights]
    physical = Engine(database).prepare(cycle_query(4), dioid=dioid).bind()
    assert len(physical.tdps) > 1
    assert all((core is not None) == lowered for core in physical.cores)
    for tdp in physical.tdps:
        # Either way a member enumerates to pair-valued results.
        first = next(iter(make_enumerator(tdp, "take2")))
        assert type(first.weight) is tuple and type(first.weight[1]) is int
        assert first.key == physical.tie.key(first.weight)


def test_an_empty_member_lowers_to_an_empty_core():
    query = cycle_query(4)
    positions = {var: slot for slot, var in enumerate(query.variables)}
    database = Database([
        Relation("B1", 3, [(1, 2, 3)], [1.0]), Relation("B2", 3, [(9, 9, 9)], [1.0]),
    ])
    member = parse_query("Q(x1, x2, x3, x4) :- B1(x1, x2, x3), B2(x1, x3, x4)")
    tree = build_join_tree(member)
    tie = TieBreakingDioid(MAX_TIMES, 4)
    rank_tie_domains(tie, [(database, tree, positions)])
    core = lower_member(database, tree, tie, positions, member_lane(tie)[0])
    assert core.empty and core.tdp.is_empty()
    assert core.tdp.best_weight is tie.zero
    for variant in ALL_VARIANTS:
        assert list(make_enumerator(core.tdp, variant)) == []
