"""A tie is broken by one integer: the packed rank is the id vector, in order.

``repro.ranking.dioid.TieBreakingDioid`` carries the Section 6.3
tie-breaker as one mixed-radix integer and ``make_tie_lift`` gives a
stage only the variables it owns.  The representation it replaced — a
vector of ``(value,)`` boxes merged slot by slot — lives on verbatim in
``tests/vector_tie.py`` and is the oracle here:

* **equivalence**: every tie-broken pipeline (simple-cycle union of
  length 4 / 5 / 6, generic decomposition, UCQ with and without
  ``dedup``, one-member unions of an acyclic 3-path, with and without
  ``dedup``, and of a 3-star) x all seven any-k variants x
  {tropical, max-times, lexicographic base} on massive-tie weight
  palettes is bound once under each representation; the ranked
  sequences (``float.hex`` weight, assignment, ``witness_ids``) and the
  operation counts after 1, 13 and all answers must be identical;
* **hostile values**: ``1 == 1.0 == True`` share a rank, mixed-type and
  ``None`` columns rank group by group instead of raising, empty
  relations, one-valued variables and ``k`` far past the output;
* **laws** of the new contract, by Hypothesis.
"""

from __future__ import annotations

import importlib
import itertools
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import make_tie_lift, owned_columns, rank_tie_domains
from repro.engine import Engine
from repro.enumeration.api import ranked_enumerate, ranked_enumerate_ucq
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import (
    MAX_TIMES,
    TROPICAL,
    LexicographicDioid,
    TieBreakingDioid,
    ranking_order,
)
from repro.util.counters import OpCounter
from tests import vector_tie
from tests.test_lower_columns import QUERIES, make_database

# ``repro.engine.plan`` the attribute is the ``plan()`` function.  It
# binds every tie-broken member (``bind_members``); the UCQ pipeline in
# ``repro.enumeration.api`` makes its own tie-breaker and binds there.
MEMBER_BINDER = importlib.import_module("repro.engine.plan")
TIE_PIPELINES = [MEMBER_BINDER, importlib.import_module("repro.enumeration.api")]

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
#: Counters are compared after this many answers, and after the last.
CHECKPOINTS = (1, 13)


@contextmanager
def vector_oracle():
    """Run the tie-broken pipelines on the id-vector representation."""
    with pytest.MonkeyPatch.context() as patch:
        for module in TIE_PIPELINES:
            patch.setattr(module, "TieBreakingDioid", vector_tie.TieBreakingDioid)
        patch.setattr(
            MEMBER_BINDER, "make_tie_lift",
            lambda tie, positions, _tree: vector_tie.make_tie_lift(tie, positions),
        )
        patch.setattr(MEMBER_BINDER, "rank_tie_domains", lambda tie, members: None)
        yield


# -- inputs: every weight a tie ------------------------------------------------

LEX = LexicographicDioid(2)
#: base -> (dioid, equal weight, the two weights of the binary palette).
BASES = {
    "tropical": (TROPICAL, 1.0, (0.0, 1.0)),
    "max-times": (MAX_TIMES, 0.5, (0.0, 1.0)),
    "lexicographic": (LEX, (1.0, 2.0), ((0.0, 1.0), (1.0, 0.0))),
}
PALETTES = ["equal", "binary"]


def tie_database(names, n, domain, base, palette, seed) -> Database:
    _dioid, equal, binary = BASES[base]
    rng = random.Random(seed)
    return Database([
        Relation(
            name, 2,
            [(rng.randint(1, domain), rng.randint(1, domain)) for _ in range(n)],
            [equal if palette == "equal" else rng.choice(binary) for _ in range(n)],
        )
        for name in names
    ])


GENERIC = parse_query("Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)")
#: Overlapping members (``R3`` repeats rows of ``R2``) and a cyclic one.
UCQ = [
    parse_query("Q(x,y,z) :- R1(x,y), R2(y,z)"),
    parse_query("Q(u,v,w) :- R1(u,v), R3(v,w)"),
    parse_query("Q(x,y,z) :- R1(x,y), R2(y,z), R4(z,x)"),
]


def cycle_run(length):
    def run(base, palette, variant, counter):
        names = [f"R{i}" for i in range(1, length + 1)]
        database = tie_database(names, 26, 5, base, palette, seed=2400 + length)
        return ranked_enumerate(
            database, cycle_query(length), dioid=BASES[base][0],
            algorithm=variant, counter=counter,
        )

    return run


def generic_run(base, palette, variant, counter):
    names = ["R1", "R2", "R3", "R4", "R5"]
    database = tie_database(names, 40, 5, base, palette, seed=2410)
    return ranked_enumerate(
        database, GENERIC, dioid=BASES[base][0], algorithm=variant, counter=counter
    )


def ucq_run(dedup):
    def run(base, palette, variant, counter):
        database = tie_database(["R1", "R2", "R3", "R4"], 30, 5, base, palette, 2411)
        overlap = database["R2"]
        for values, weight in zip(overlap.tuples[:20], overlap.weights[:20]):
            database["R3"].add(values, weight)
        return ranked_enumerate_ucq(
            database, UCQ, dioid=BASES[base][0], algorithm=variant, dedup=dedup,
            counter=counter,
        )

    return run


def acyclic_run(query, dedup):
    """An acyclic query as a one-member union: one tree, tie-broken."""
    def run(base, palette, variant, counter):
        names = [atom.relation_name for atom in query.atoms]
        database = tie_database(names, 26, 5, base, palette, seed=2412)
        return ranked_enumerate_ucq(
            database, [query], dioid=BASES[base][0], algorithm=variant,
            dedup=dedup, counter=counter,
        )

    return run


PIPELINES = {
    "cycle4": cycle_run(4),
    "cycle5": cycle_run(5),
    "cycle6": cycle_run(6),
    "generic": generic_run,
    "ucq": ucq_run(dedup=False),
    "ucq_dedup": ucq_run(dedup=True),
    "path3": acyclic_run(path_query(3), dedup=False),
    "path3_dedup": acyclic_run(path_query(3), dedup=True),
    "star3": acyclic_run(star_query(3), dedup=False),
}


def row(result) -> tuple:
    weight = result.weight
    return (
        weight.hex() if isinstance(weight, float) else repr(weight),
        repr(result.assignment),
        result.witness_ids,
    )


def ranked_run(pipeline, base, palette, variant) -> tuple[list, list]:
    """The whole ranked output, and the counters at every checkpoint."""
    counter = OpCounter()
    results = PIPELINES[pipeline](base, palette, variant, counter)
    rows: list = []
    counts: list = []
    for checkpoint in CHECKPOINTS:
        rows.extend(map(row, itertools.islice(results, checkpoint - len(rows))))
        counts.append(counter.as_dict())
    rows.extend(map(row, results))
    counts.append(counter.as_dict())
    return rows, counts


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("palette", PALETTES)
@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("pipeline", list(PIPELINES))
def test_packed_rank_is_the_id_vector_in_order(pipeline, base, palette, variant):
    rows, counts = ranked_run(pipeline, base, palette, variant)
    with vector_oracle():
        expected_rows, expected_counts = ranked_run(pipeline, base, palette, variant)
    assert len(rows) > CHECKPOINTS[-1], "the cell ranks something"
    assert rows == expected_rows
    assert counts == expected_counts
    if variant != "batch_nosort":
        # Massive ties: the order inside a weight is the tie-break's alone.
        assert len({weight for weight, _assignment, _ids in rows}) < len(rows) / 4


def test_the_oracle_is_the_vector_representation():
    """The patch really swaps the representation, in all three pipelines."""
    database = tie_database(["R1", "R2", "R3", "R4"], 26, 5, "tropical", "equal", 1)
    plain = Engine(database).prepare(cycle_query(4)).bind()
    assert len(plain.tdps) > 1, "heavy and light members: the merge is exercised"
    assert type(plain.tdps[0].val_rank[0][0]) is int
    with vector_oracle():
        physical = Engine(database).prepare(cycle_query(4)).bind()
        assert type(physical.tie) is vector_tie.TieBreakingDioid
        assert type(physical.tdps[0].values[0][0][1]) is tuple


# -- values that are hostile to a sort -----------------------------------------


def test_equal_values_share_one_rank_whatever_their_spelling():
    assert ranking_order([2, 1.0, True, 1, 2.0, 3]) == [1, 2, 3]
    tie = TieBreakingDioid(TROPICAL, 1)
    tie.rank_domains([[1.0, 2, True, 3.5]])
    (ranks,) = tie.ranks
    assert ranks[1] == ranks[1.0] == ranks[True] == 0
    assert (ranks[2], ranks[3.5]) == (1, 2)


def test_mixed_type_values_rank_group_by_group_instead_of_raising():
    values = ["b", 2, None, "a", 1.5, b"z", True, (1, 2), (0, 9)]
    with pytest.raises(TypeError):
        sorted(values)
    assert ranking_order(values) == [None, True, 1.5, 2, b"z", "a", "b", (0, 9), (1, 2)]
    assert ranking_order(reversed(values)) == ranking_order(values)
    # A group whose own values do not order falls back on ``repr``.
    assert ranking_order([(1, 2), (1, "a"), 3]) == [3, (1, "a"), (1, 2)]
    assert ranking_order([]) == []


def test_ranks_are_places_times_ordinals_slot_zero_most_significant():
    tie = TieBreakingDioid(TROPICAL, 3)
    tie.rank_domains([[10, 20], [], ["x", "y", "z"]])
    assert tie.ranks == ({10: 0, 20: 3}, {}, {"x": 0, "y": 1, "z": 2})
    assert tie.lift(1.5, {0: 20, 2: "y"}) == (1.5, 4)
    assert tie.lift(1.5, {}) == (1.5, 0)
    with pytest.raises(ValueError):
        tie.rank_domains([[1]])
    # Python integers: sixty variables over a thousand values do not wrap.
    wide = TieBreakingDioid(TROPICAL, 60)
    wide.rank_domains([range(1000)] * 60)
    top = wide.lift(0.0, {slot: 999 for slot in range(60)})
    assert top[1] == 1000**60 - 1


MIXED_VALUES = [1, 2, "a", "b", None, 2.5]
#: Wide enough that no value is heavy: the cycle decomposition sorts
#: its heavy values itself, which mixed types would not survive.
WIDE_MIXED_VALUES = [*range(1, 7), *"abcdef", None, 2.5, 3.5, 4.5]


def mixed_database(names, n, values, weights, seed) -> Database:
    rng = random.Random(seed)
    return Database([
        Relation(
            name, 2,
            [(rng.choice(values), rng.choice(values)) for _ in range(n)],
            [weights(rng) for _ in range(n)],
        )
        for name in names
    ])


def ranked_path3(database):
    """A 3-path ranked under the tie-breaker: a one-member union."""
    return ranked_enumerate_ucq(database, [path_query(3)], dedup=False)


def test_mixed_type_columns_with_real_ties_bind_and_rank_deterministically():
    """Where the id vectors raised ``TypeError`` on the first real tie
    between an ``int`` and a ``str``, the ranks order them: ``None``,
    then numbers, then strings."""
    names = ["R1", "R2", "R3"]
    database = mixed_database(names, 30, MIXED_VALUES, lambda rng: 1.0, 2420)
    with vector_oracle(), pytest.raises(TypeError):
        list(ranked_path3(database))
    results = list(ranked_path3(database))
    brute_force = [
        (a[0], a[1], b[1], c[1])
        for a, b, c in itertools.product(*(database[name].tuples for name in names))
        if a[1] == b[0] and b[1] == c[0]
    ]
    assert sorted(repr(r.output_tuple) for r in results) == sorted(
        map(repr, brute_force)
    )
    assert ranking_order(MIXED_VALUES) == [None, 1, 2, 2.5, "a", "b"]
    position = {value: rank for rank, value in enumerate(ranking_order(MIXED_VALUES))}
    keys = [tuple(position[value] for value in r.output_tuple) for r in results]
    assert keys == sorted(keys) and len(set(keys)) < len(keys)  # duplicate tuples
    again = mixed_database(names, 30, MIXED_VALUES, lambda rng: 1.0, 2420)
    assert [row(r) for r in ranked_path3(again)] == [row(r) for r in results]


@pytest.mark.parametrize("pipeline", ["cycle", "ucq"])
def test_a_mixed_type_database_that_binds_under_the_vectors_ranks_the_same(pipeline):
    """No two answers tie (weights are distinct sums), so the vectors are
    never compared across types and the parent ranks this input too."""
    names = [f"R{i}" for i in range(1, 5)]
    database = mixed_database(
        names, 60, WIDE_MIXED_VALUES, lambda rng: rng.uniform(0.0, 100.0), 2421
    )

    def run():
        if pipeline == "cycle":
            return [row(r) for r in Engine(database).prepare(cycle_query(4)).iter()]
        return [row(r) for r in ranked_path3(database)]

    results = run()
    with vector_oracle():
        assert results == run()
    assert len(results) > 20


@pytest.mark.parametrize("shape", ["path4", "star4", "twocol"])
@pytest.mark.parametrize("weights", ["mixed", "ints", "zeros"])
def test_join_keys_1_and_1_0_and_true_rank_like_the_vectors(shape, weights):
    """A one-member union over the lowering suite's key palette: the
    spelling an answer reports and its place among equal weights."""
    query = QUERIES[shape]
    database = make_database(query, 60, weights, seed=2422, mixed_keys=True)

    def run():
        results = ranked_enumerate_ucq(database, [query], dedup=False)
        return [row(r) for r in itertools.islice(results, 10**6)]

    results = run()
    with vector_oracle():
        assert results == run()
    assert len(results) > 20


@pytest.mark.parametrize("edge", ["empty_leaf", "dead_leaf", "empty_anchor"])
def test_empty_relations_rank_nothing_and_do_not_fail(edge):
    query = QUERIES["path4"]
    database = make_database(query, 40, "floats", seed=2423, edge=edge)
    assert list(ranked_enumerate_ucq(database, [query], dedup=False)) == []
    empty = Database([Relation(f"R{i}", 2, [], []) for i in range(1, 5)])
    assert list(Engine(empty).prepare(cycle_query(4)).iter()) == []
    assert list(ranked_enumerate_ucq(empty, UCQ)) == []


def test_a_variable_with_one_value_and_k_far_past_the_output():
    rng = random.Random(2424)
    database = Database([
        Relation(
            f"R{i}", 2,
            [
                (7 if i == 1 else rng.randint(1, 4), 7 if i == 4 else rng.randint(1, 4))
                for _ in range(25)
            ],
            [1.0] * 25,
        )
        for i in range(1, 5)
    ])
    query = cycle_query(4)
    physical = Engine(database).prepare(query).bind()
    assert physical.tie.ranks[0] == {7: 0}
    results = [row(r) for r in physical.top(10**6)]
    with vector_oracle():
        expected = [row(r) for r in Engine(database).prepare(query).top(10**6)]
    assert results == expected and 0 < len(results) < 10**6


def test_zero_weight_answers_at_rank_zero_are_still_answers():
    """``(base.zero, 0)`` is a value a solution can take — every variable
    at its least value, an absorbing weight — and is not ``zero``."""
    database = Database(
        [Relation(f"R{i}", 2, [(1, 1), (1, 2), (2, 1)], [0.0, 0.0, 0.0]) for i in range(1, 5)]
    )
    results = list(Engine(database).prepare(cycle_query(4), dioid=MAX_TIMES).iter())
    assert results[0].output_tuple == (1, 1, 1, 1) and results[0].weight == 0.0
    with vector_oracle():
        expected = list(Engine(database).prepare(cycle_query(4), dioid=MAX_TIMES).iter())
    assert [row(r) for r in results] == [row(r) for r in expected]


def test_sqlite_ucq_ranks_none_and_mixed_affinity_columns(tmp_path):
    """SQLite hands back ``None`` and, from an untyped column, ``int`` and
    ``str`` side by side."""
    rows = [(1, "a"), (None, 1), ("a", None), (1, 1), ("a", "a"), (None, None)]
    backend = SQLiteBackend(str(tmp_path / "mixed.db"))
    for name in ("R1", "R2", "R3"):
        backend.ingest(Relation(name, 2, rows, [1.0] * len(rows)))
    with Engine.from_backend(backend) as engine:
        results = list(
            ranked_enumerate_ucq(engine.database, UCQ[:2], dedup=True)
        )
    tuples = [r.output_tuple for r in results]
    assert len(tuples) == len(set(tuples)) > 5
    position = {value: rank for rank, value in enumerate([None, 1, "a"])}
    keys = [tuple(position[v] for v in t) for t in tuples]
    assert keys == sorted(keys)


# -- ownership -------------------------------------------------------------------


def test_a_variable_is_owned_by_the_first_stage_that_holds_it():
    query = QUERIES["twocol"]  # R1(a, b, c), R2(b, c, d), R3(c, d, e)
    tree = build_join_tree(query)
    positions = {var: slot for slot, var in enumerate(query.variables)}
    owned = owned_columns(tree, positions)
    by_relation = {
        query.atoms[atom].relation_name: template for atom, template in owned.items()
    }
    first = query.atoms[tree.order[0]].relation_name
    assert len(by_relation[first]) == 3
    assert sorted(len(t) for t in by_relation.values()) == [1, 1, 3]
    slots = [slot for template in owned.values() for _column, slot in template]
    assert sorted(slots) == list(range(5)), "every variable exactly once"
    # Unranked variables are nobody's; a repeated one is read once.
    repeat = QUERIES["selfjoin_repeat"]  # R1(x, y), R1(y, z), R1(z, z)
    tree = build_join_tree(repeat)
    owner = next(atom for atom in tree.order if "z" in repeat.atoms[atom].variables)
    expected = dict.fromkeys(range(3), ())
    expected[owner] = ((repeat.atoms[owner].variables.index("z"), 0),)
    assert owned_columns(tree, {"z": 0}) == expected


def test_full_solution_ranks_are_the_assignment_whatever_the_tree():
    """Two trees of one query (different roots, different owners) give a
    full solution the same rank: the packing is the assignment's."""
    query = path_query(3)
    database = tie_database(["R1", "R2", "R3"], 20, 4, "tropical", "equal", 2425)
    positions = {var: slot for slot, var in enumerate(query.variables)}
    ranks_by_root = []
    for root in (0, 2):
        tree = build_join_tree(query, root=root)
        tie = TieBreakingDioid(TROPICAL, len(positions))
        rank_tie_domains(tie, [(database, tree, positions)])
        lift = make_tie_lift(tie, positions, tree)
        solutions = {}
        rows = [
            list(zip(database[atom.relation_name].tuples, itertools.repeat(atom)))
            for atom in query.atoms
        ]
        for witness in itertools.product(*rows):
            (r1, _), (r2, _), (r3, _) = witness
            if r1[1] == r2[0] and r2[1] == r3[0]:
                value = tie.one
                for values, atom in witness:
                    value = tie.times(value, lift(atom, values, 1.0))
                solutions[(r1[0], r1[1], r2[1], r3[1])] = value[1]
        ranks_by_root.append(solutions)
    assert ranks_by_root[0] == ranks_by_root[1] and len(ranks_by_root[0]) > 10
    ordered = sorted(ranks_by_root[0], key=ranks_by_root[0].get)
    assert ordered == sorted(ordered), "rank order is assignment order"


# -- the laws of the new contract ------------------------------------------------

slot_values = st.one_of(
    st.integers(-3, 3), st.sampled_from([1.0, True, 2.5, "a", "b", None])
)


@st.composite
def ranked_ties(draw):
    """A tie dioid with numbered domains, and full assignments over them."""
    slots = draw(st.integers(1, 5))
    domains = [
        draw(st.lists(slot_values, min_size=1, max_size=6)) for _ in range(slots)
    ]
    tie = TieBreakingDioid(TROPICAL, slots)
    tie.rank_domains(domains)
    assignment = st.tuples(*[st.sampled_from(domain) for domain in domains])
    return tie, assignment


def disjoint_parts(draw, slots: int, count: int) -> list[set]:
    owner = [draw(st.integers(0, count)) for _ in range(slots)]  # ``count``: unbound
    return [{slot for slot in range(slots) if owner[slot] == part} for part in range(count)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_times_is_associative_and_one_is_a_two_sided_identity(data):
    tie, assignment = data.draw(ranked_ties())
    values = data.draw(assignment)
    # Operands bind disjoint slots (ownership); integer-valued weights
    # make the base lane exact, so the law is an equality.
    operands = [
        tie.lift(float(data.draw(st.integers(-50, 50))), {s: values[s] for s in part})
        for part in disjoint_parts(data.draw, tie.num_variables, 3)
    ]
    a, b, c = operands
    assert tie.times(tie.times(a, b), c) == tie.times(a, tie.times(b, c))
    assert tie.times(a, b) == tie.times(b, a)
    for value in operands:
        assert tie.times(value, tie.one) == value == tie.times(tie.one, value)
    assert tie.times(tie.times(a, b), c)[1] == sum(value[1] for value in operands)
    assert tie.times_column(operands, operands[::-1]) == [
        tie.times(x, y) for x, y in zip(operands, operands[::-1])
    ]
    assert tie.key_column(operands) == [tie.key(value) for value in operands]


def vector_sort_key(ids: tuple) -> tuple:
    """The oracle's id vector under the new mixed-type rule."""
    out = []
    for (value,) in ids:
        if value is None:
            out.append((0, "", 0))
        elif isinstance(value, (int, float)):
            out.append((1, "", value))
        else:
            out.append((2, type(value).__qualname__, value))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_key_order_of_full_solutions_is_the_order_of_the_id_vectors(data):
    tie, assignment = data.draw(ranked_ties())
    oracle = vector_tie.TieBreakingDioid(TROPICAL, tie.num_variables)
    x, y = data.draw(assignment), data.draw(assignment)
    wx, wy = (float(data.draw(st.integers(0, 1))) for _ in range(2))
    new_x, new_y = (
        tie.key(tie.lift(w, dict(enumerate(values)))) for w, values in ((wx, x), (wy, y))
    )
    old_x, old_y = (
        oracle.key(oracle.lift(w, dict(enumerate(values))))
        for w, values in ((wx, x), (wy, y))
    )
    assert (new_x == new_y) == (old_x == old_y), "the packing is injective"
    try:
        expected = old_x < old_y
    except TypeError:
        # The vectors cannot say; the documented group order can.
        expected = (old_x[0], vector_sort_key(old_x[1])) < (
            old_y[0], vector_sort_key(old_y[1])
        )
    assert (new_x < new_y) == expected


def test_base_arithmetic_survives_the_identity():
    # ``one`` must not be skipped: the base dioid's ``0.0 + x`` turns an
    # int weight into a float and ``-0.0`` into ``0.0``.
    tie = TieBreakingDioid(TROPICAL, 1)
    tie.rank_domains([[7]])
    product = tie.times(tie.lift(2, {0: 7}), tie.one)
    assert repr(product) == "(2.0, 0)"
    product = tie.times(tie.one, tie.lift(-0.0, {0: 7}))
    assert repr(product[0]) == "0.0"
    (column,) = tie.times_column([tie.lift(2, {0: 7})], [tie.one])
    assert repr(column) == "(2.0, 0)"
    assert tie.has_inverse is False
