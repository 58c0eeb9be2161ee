"""The lowering's columns, in bits: numpy kernel == scalar loop == object path.

``test_flat_conformance.TestDirectLoweringMatchesObjectLowering``
compares the direct lowering with ``compile_tdp(build_tdp(...))`` using
``==``, which cannot see a zero's sign and treats ``1`` and ``1.0`` as
one value.  This suite compares every column with ``float.hex`` across
the three ways a stage gets lowered:

* the **numpy kernel** — forced onto every stage, the tiny and empty
  ones included (``_VEC_SCAN_MIN = 0``);
* the **scalar loop** — ``vec.np = None``, what ``REPRO_NO_NUMPY`` runs;
* the **object path** — ``compile_tdp(build_tdp(...))``.

over {tropical, max-plus} x {path, star, two-column join key, self-join
with a repeated variable} x {in-memory, SQLite} x {whole relation, range
fragments, hash fragments} x hostile weight and join-key palettes.

The columns are values (state values, ``pi1`` values, connector minima)
and the entries keys, under the dioid's lane.  The lowering folds in
value space from ``one`` and keys afterwards, as the object path does,
so nothing differs, a max-plus derived zero's sign included
(:func:`test_max_plus_zeros_equal_the_object_path_in_bits`).  The numpy
kernel hands back the stored weight objects as state values (an ``int``
weight stays an ``int``), like the scalar loop and the object path.
"""

from __future__ import annotations

import gc
import math
import random

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp import lower
from repro.dp.builder import build_tdp
from repro.dp.flat import compile_tdp
from repro.parallel.build import _hash_buckets
from repro.query.builders import path_query, star_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_PLUS, MAX_TIMES, TROPICAL
from repro.util import vec

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


def make_database(query, n, weights="floats", seed=1, mixed_keys=False, edge=None):
    """Relations for ``query``: ``n`` rows each plus 10% duplicate tuples.

    ``mixed_keys`` spells one join value as ``1`` / ``1.0`` / ``True``
    (and every other as ``v`` / ``float(v)``) within a column.  ``edge``
    empties a relation or leaves a stage without join partners.
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


# -- the three lowerings -------------------------------------------------------


def lower_whole(database, tree, dioid):
    """``lower_query`` in two visible steps, so ``conn_min`` can be read."""
    query = tree.query
    shared = lower.build_shared_lower(database, query, tree, dioid, 0)
    relation = database[query.atoms[shared.order[0]].relation_name]
    rows, weights = lower.stage_columns(relation)
    core = lower.build_fragment(
        shared, rows, weights, 0, None, 0, lower.shared_lists(shared, 1)
    )
    return shared, core


def conn_minima(shared, cores) -> list:
    """``shared.conn_min`` extended by each fragment's root-connector minimum.

    Values: a least entry's key, negated where the lane negates.
    """
    minima = list(shared.conn_min)
    for index, core in enumerate(cores):
        root = core.pairs(shared.num_conns + index)
        key = min(root)[0] if root else None
        minima.append(-key if root and shared.lane.negate else key)
    return minima


needs_numpy = pytest.mark.skipif(vec.np is None, reason="numpy kernel unavailable")


def with_kernel(monkeypatch, build):
    if vec.np is None:
        pytest.skip("numpy kernel unavailable (REPRO_NO_NUMPY)")
    with monkeypatch.context() as patch:
        patch.setattr(lower, "_VEC_SCAN_MIN", 0)
        return build()


def with_scalar(monkeypatch, build):
    with monkeypatch.context() as patch:
        patch.setattr(vec, "np", None)
        return build()


def core_columns(core, conn_min, uids=None) -> dict:
    """Everything the lowering emits for one core, numbers as bit strings."""
    if uids is None:
        uids = range(core.num_connectors)
    return {
        "empty": core.empty,
        # (An empty fragment still owns its root uid slot.)
        "num_connectors": None if core.empty else core.num_connectors,
        "best_key": bits(core.best_key),
        # (The object path forgets its root connectors when empty.)
        "root_uid": {} if core.empty else dict(core.root_uid),
        "val_base": [[bits(v) for v in stage] for stage in core.val_base],
        "pi1": [[bits(v) for v in stage] for stage in core.pi1],
        "child_uids": [list(stage) for stage in core.child_uids],
        "tuples": [list(stage) for stage in core.tdp.tuples],
        "tuple_ids": [list(stage) for stage in core.tdp.tuple_ids],
        "conn_min": {
            uid: None if conn_min[uid] is None else bits(conn_min[uid])
            for uid in uids
        },
        "pairs": {
            uid: [(bits(key), state) for key, state in core.pairs(uid)]
            for uid in uids
        },
    }


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


def assert_same_structures(core):
    """The acceptance shape: one pool of ``(float, int)`` entries in uid
    order, the fragment roots beside it as lists (see
    :func:`test_lowering_keeps_no_list_per_connector`)."""
    offsets = core.conn_offsets
    pooled = len(offsets) - 1
    assert type(core.entries) is list and type(offsets) is list
    assert offsets[0] == 0 and offsets[-1] == len(core.entries)
    assert all(lo <= hi for lo, hi in zip(offsets, offsets[1:]))
    for key, state in core.entries:
        assert type(key) is float and type(state) is int
    assert pooled < core.num_connectors
    for uid in range(pooled, core.num_connectors):  # the fragment roots
        pairs = core.pairs(uid)
        assert type(pairs) is list and core.conn_size(uid) == len(pairs)
        for key, state in pairs:
            assert type(key) is float and type(state) is int
    for column in core.val_base + core.pi1 + core.child_uids:
        assert type(column) is list
        assert all(type(v) in (float, int) for v in column)


def assert_three_way(monkeypatch, database, tree, dioid, expect_empty=False):
    scalar_shared, scalar = with_scalar(
        monkeypatch, lambda: lower_whole(database, tree, dioid)
    )
    assert_same_structures(scalar)
    reference, uids = object_columns(database, tree, dioid)
    assert reference["empty"] == expect_empty
    scalar_min = conn_minima(scalar_shared, [scalar])
    assert core_columns(scalar, scalar_min, uids) == reference
    if vec.np is None:
        return
    kernel_shared, kernel = with_kernel(
        monkeypatch, lambda: lower_whole(database, tree, dioid)
    )
    assert_same_structures(kernel)
    assert core_columns(
        kernel, conn_minima(kernel_shared, [kernel])
    ) == core_columns(scalar, scalar_min)
    assert kernel_shared.conn_maps == scalar_shared.conn_maps
    assert kernel.conn_stage == scalar.conn_stage
    # Not only equal bits: the same Python types (``int`` weights stay
    # ``int`` state keys on both), state by state.
    assert [[type(v) for v in s] for s in kernel.val_base] == [
        [type(v) for v in s] for s in scalar.val_base
    ]


# -- whole relation ------------------------------------------------------------


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("weights", list(WEIGHTS))
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_whole_relation_in_memory(monkeypatch, shape, dioid, weights, n):
    query = QUERIES[shape]
    database = make_database(query, n, weights, seed=n)
    assert_three_way(monkeypatch, database, build_join_tree(query), DIOIDS[dioid])


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("weights", SQLITE_WEIGHTS)
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_whole_relation_sqlite(monkeypatch, tmp_path, shape, dioid, weights, n):
    query = QUERIES[shape]
    database = open_database(
        make_database(query, n, weights, seed=n + 1), "sqlite", tmp_path
    )
    try:
        assert_three_way(
            monkeypatch, database, build_join_tree(query), DIOIDS[dioid]
        )
    finally:
        database.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_join_keys_1_and_1_0_and_true_share_a_connector(
    monkeypatch, tmp_path, shape, dioid, backend
):
    query = QUERIES[shape]
    database = open_database(
        make_database(query, 700, "floats", seed=5, mixed_keys=True),
        backend, tmp_path,
    )
    try:
        assert_three_way(monkeypatch, database, build_join_tree(query), DIOIDS[dioid])
    finally:
        database.close()


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("edge", ["dead_leaf", "empty_leaf", "empty_anchor"])
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", ["path4", "star4", "twocol"])
def test_dead_stage_and_empty_relation(monkeypatch, shape, dioid, edge, n):
    query = QUERIES[shape]
    database = make_database(query, n, "floats", seed=9, edge=edge)
    tree = build_join_tree(query)
    assert_three_way(monkeypatch, database, tree, DIOIDS[dioid], expect_empty=True)
    core = lower.lower_query(database, tree, DIOIDS[dioid])
    assert core.empty and core.best_key == DIOIDS[dioid].key(DIOIDS[dioid].zero)


@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_lower_query_is_the_two_steps(shape, dioid):
    """``lower_query`` == phase A + one all-spanning fragment (default gates)."""
    query = QUERIES[shape]
    database = make_database(query, 700, "zeros", seed=2)
    tree = build_join_tree(query)
    shared, stepwise = lower_whole(database, tree, DIOIDS[dioid])
    core = lower.lower_query(database, tree, DIOIDS[dioid])
    assert_same_structures(core)
    minima = conn_minima(shared, [stepwise])
    assert core_columns(core, minima) == core_columns(stepwise, minima)


# -- what the columns hold ----------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("dioid", list(DIOIDS))
def test_state_keys_are_the_stored_weight_objects(monkeypatch, dioid):
    """No second float per state: ``int`` stays ``int``, identity shares."""
    query = QUERIES["path4"]
    database = make_database(query, 60, "ints", seed=4)
    tree = build_join_tree(query)
    _shared, kernel = with_kernel(
        monkeypatch, lambda: lower_whole(database, tree, DIOIDS[dioid])
    )
    assert {type(v) for s in kernel.val_base for v in s} == {int}
    assert {type(v) for s in kernel.pi1 for v in s} == {float}
    assert all(type(k) is float for uid in range(4) for k, _s in kernel.pairs(uid))
    floats = make_database(query, 60, "floats", seed=4)
    _shared, kernel = with_kernel(
        monkeypatch, lambda: lower_whole(floats, tree, TROPICAL)
    )
    leaf = tree.query.atoms[tree.order[-1]].relation_name
    stored = {id(w) for w in floats[leaf].weights}
    assert all(id(v) in stored for v in kernel.val_base[-1])
    assert len({id(p) for p in kernel.pi1[-1]}) == 1  # one shared 0.0


@pytest.mark.parametrize("lowering", ["scalar", "kernel"])
def test_max_plus_zeros_equal_the_object_path_in_bits(monkeypatch, lowering):
    """A derived zero is keyed as the object path keys it: ``-(0.0)``."""
    query = QUERIES["path4"]
    database = make_database(query, 60, "zeros", seed=6)
    tree = build_join_tree(query)
    lower_with = with_scalar if lowering == "scalar" else with_kernel
    shared, core = lower_with(
        monkeypatch, lambda: lower_whole(database, tree, MAX_PLUS)
    )
    reference, uids = object_columns(database, tree, MAX_PLUS)
    direct = core_columns(core, conn_minima(shared, [core]), uids=uids)
    assert direct == reference
    # A derived zero entry value is +0.0, so its key is -0.0 (a fold in
    # key space from +0.0 would have made it +0.0).
    keys = {key for uid in uids for key, _state in direct["pairs"][uid]}
    assert (-0.0).hex() in keys and (0.0).hex() not in keys


# -- fragments -----------------------------------------------------------------


def fragment_inputs(relation, strategy):
    """``(rows, weights, base, global_ids)`` per fragment, one left empty."""
    total = len(relation)
    if strategy == "range":
        cuts = [0, total // 3, total // 3, (2 * total) // 3, total]
        return [
            (*lower.stage_columns(relation, lo, hi), lo, None)
            for lo, hi in zip(cuts, cuts[1:])
        ]
    return [
        (rows, weights, None, gids)
        for rows, weights, gids in _hash_buckets(relation, 4)
    ]


def lower_fragments(database, tree, dioid, strategy):
    query = tree.query
    shared = lower.build_shared_lower(database, query, tree, dioid, 0)
    relation = database[query.atoms[shared.order[0]].relation_name]
    inputs = fragment_inputs(relation, strategy)
    lists = lower.shared_lists(shared, len(inputs))
    cores = []
    for index, (rows, weights, base, gids) in enumerate(inputs):
        cores.append(
            lower.build_fragment(shared, rows, weights, base, gids, index, lists)
        )
    return shared, cores, inputs


def fragment_columns(shared, cores):
    minima = conn_minima(shared, cores)
    return [core_columns(core, minima) for core in cores]


@pytest.mark.parametrize("n", [60, 700])
@pytest.mark.parametrize("strategy", ["range", "hash"])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("dioid", list(DIOIDS))
@pytest.mark.parametrize("shape", list(QUERIES))
def test_fragments(monkeypatch, tmp_path, shape, dioid, backend, strategy, n):
    query = QUERIES[shape]
    tree = build_join_tree(query)
    dioid = DIOIDS[dioid]
    database = open_database(
        make_database(query, n, "zeros", seed=n + 7), backend, tmp_path
    )
    try:
        shared, scalar, inputs = with_scalar(
            monkeypatch, lambda: lower_fragments(database, tree, dioid, strategy)
        )
        for core in scalar:
            assert_same_structures(core)
        for index, core in enumerate(scalar):
            root = shared.num_conns + index
            assert core.root_uid[0] == root
            assert core.conn_size(root) == len(core.val_base[0])
            assert core.stats()["entries"] == (
                shared.conn_offsets[-1] + core.conn_size(root)
            )
        columns = fragment_columns(shared, scalar)
        if vec.np is not None:
            _shared, kernel, _inputs = with_kernel(
                monkeypatch,
                lambda: lower_fragments(database, tree, dioid, strategy),
            )
            assert fragment_columns(shared, kernel) == columns

        # Against the object path: each fragment is the query over the
        # anchor relation restricted to its rows (sound when the anchor
        # relation occurs in one atom only).
        anchor = query.atoms[tree.order[0]]
        if sum(a.relation_name == anchor.relation_name for a in query.atoms) > 1:
            return
        for core, (rows, weights, base, gids) in zip(scalar, inputs):
            restricted = Database(
                [
                    Relation(anchor.relation_name, anchor.arity, rows, weights)
                    if relation.name == anchor.relation_name
                    else relation
                    for relation in database
                ]
            )
            tdp = build_tdp(restricted, tree, dioid=dioid)
            reference = compile_tdp(tdp)
            assert core.empty == reference.empty
            assert bits(core.best_key) == bits(reference.best_key)
            for name in ("val_base", "pi1"):
                assert [bits(v) for v in getattr(core, name)[0]] == [
                    bits(v) for v in getattr(reference, name)[0]
                ]
            assert core.tdp.tuples[0] == tdp.tuples[0]
            assert core.tdp.tuple_ids[0] == [
                (base + i) if gids is None else gids[i] for i in tdp.tuple_ids[0]
            ]
            if not reference.empty:
                assert [
                    (bits(k), s) for k, s in core.pairs(core.root_uid[0])
                ] == [
                    (bits(k), s)
                    for k, s in reference.pairs(reference.root_uid[0])
                ]
    finally:
        database.close()


# -- connector placement, as a unit --------------------------------------------


def place(join_keys, entry_keys, kernel, ranks=None):
    """One stage's grouping through the kernel's or the scalar placement.

    With ``ranks`` the stage is a max-times one (no inverse), whose
    entries are ``(key, rank, state)``; the rank column is a list of
    Python integers, as :func:`lower._rank_columns` hands it over.
    """
    query = QUERIES["path4"]
    dioid = TROPICAL if ranks is None else MAX_TIMES
    shared = lower.SharedLower(query, build_join_tree(query), dioid, 0)
    if kernel:
        lower._place_entries(shared, 2, join_keys, vec.np.array(entry_keys), ranks)
    else:
        lower._place_entries(shared, 2, join_keys, list(entry_keys), ranks)
    offsets = shared.conn_offsets
    for entry in shared.entries:
        assert [type(v) for v in entry] == [float] + [int] * (len(entry) - 1)
    return (
        [
            [(bits(k), *rest) for k, *rest in shared.entries[lo:hi]]
            for lo, hi in zip(offsets, offsets[1:])
        ],
        [bits(m) for m in shared.conn_min],
        list(shared.conn_maps[2].items()),
        shared.conn_stage,
        shared.conn_rank,
    )


@needs_numpy
def test_zero_minimum_takes_the_sign_of_its_first_entry():
    # Per group, in state order: the minimum is a zero of either sign.
    join_keys = ["a", "b", "a", "c", "b", "c", "d", "d", "a", "e", "e"]
    entry_keys = [0.0, -0.0, -0.0, 3.0, 0.0, -0.0, -0.0, -0.0, 1.0, 2.0, 0.0]
    kernel = place(join_keys, entry_keys, True)
    assert kernel == place(join_keys, entry_keys, False)
    assert kernel[1] == [bits(m) for m in (0.0, -0.0, -0.0, -0.0, 0.0)]


@needs_numpy
def test_placement_matches_the_scalar_grouping():
    rng = random.Random(3)
    palette = [0.0, -0.0, INF, -INF, 1.5, -1.5, 2.0, 1e-300, -1e-300]
    join_values = [1, 1.0, True, 2, 2.0, "x", (1, 2), (1.0, 2), None]
    for size in (1, 7, 600):
        join_keys = [rng.choice(join_values) for _ in range(size)]
        entry_keys = [rng.choice(palette) for _ in range(size)]
        assert place(join_keys, entry_keys, True) == place(
            join_keys, entry_keys, False
        )


@needs_numpy
def test_more_connectors_than_a_uint16_holds():
    rng = random.Random(8)
    join_keys = [rng.randrange(70_000) for _ in range(90_000)] + list(range(70_000))
    entry_keys = [rng.choice([0.0, -0.0, 1.0, -2.0]) for _ in join_keys]
    kernel = place(join_keys, entry_keys, True)
    assert len(kernel[1]) == 70_000
    assert kernel == place(join_keys, entry_keys, False)


@needs_numpy
def test_nan_entry_keys_keep_the_scalar_grouping(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a stage with NaN entry keys reached the kernel")

    monkeypatch.setattr(lower, "_place_by_connector", refuse)
    join_keys = ["a", "b", "a", "a", "b", "b"]
    entry_keys = [NAN, 1.0, 0.5, NAN, NAN, 0.25]
    kernel = place(join_keys, entry_keys, True)
    assert kernel == place(join_keys, entry_keys, False)
    # ``min()`` never replaces a leading NaN: order-dependent, and kept.
    assert kernel[1] == [bits(NAN), bits(0.25)]


@needs_numpy
def test_ranked_key_ties_go_to_the_rank_then_the_state():
    # Per group, in state order; max-times keys are the values negated.
    join_keys = ["a", "a", "a", "b", "b", "b", "c", "c", "d"]
    values = [2.0, 2.0, 2.0, 1.0, 1.0, 3.0, 0.5, 0.5, 4.0]
    ranks = [7, 3, 3, 5, 5, 0, 1, 0, 9]
    kernel = place(join_keys, values, True, ranks)
    assert kernel == place(join_keys, values, False, ranks)
    # a: equal keys, rank 3 beats 7; b: 3.0 is the least key (-3.0)
    # whatever its rank; c: equal keys, rank 0 beats 1.
    assert kernel[4] == [3, 0, 0, 9]
    assert kernel[1] == [bits(m) for m in (2.0, 3.0, 0.5, 4.0)]


@needs_numpy
def test_ranked_signed_zeros_tie_on_the_key():
    # ``0.0 == -0.0``: the rank decides, so the minimum's sign is the
    # least-ranked zero's, not the first zero's.
    join_keys = ["a", "a", "a", "b", "b", "c", "c"]
    values = [0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0]
    ranks = [4, 2, 2, 1, 1, 6, 6]
    kernel = place(join_keys, values, True, ranks)
    assert kernel == place(join_keys, values, False, ranks)
    assert kernel[1] == [bits(m) for m in (-0.0, -0.0, 0.0)]
    assert kernel[4] == [2, 1, 6]


@needs_numpy
def test_ranked_placement_matches_the_scalar_grouping():
    rng = random.Random(5)
    palette = [0.0, -0.0, INF, -INF, 1.5, -1.5, 2.0, 1e-300, -1e-300]
    join_values = [1, 1.0, True, 2, 2.0, "x", (1, 2), (1.0, 2), None]
    for size in (1, 7, 600):
        for rank_range in (3, 1 << 40):
            join_keys = [rng.choice(join_values) for _ in range(size)]
            values = [rng.choice(palette) for _ in range(size)]
            ranks = [rng.randrange(rank_range) for _ in range(size)]
            assert place(join_keys, values, True, ranks) == place(
                join_keys, values, False, ranks
            )


@needs_numpy
def test_ranks_near_two_to_the_63_take_the_kernel(monkeypatch):
    top = (1 << 63) - 1
    join_keys = ["a", "b", "a", "b", "a", "c"]
    values = [1.0, 2.0, 1.0, 2.0, 1.0, -0.0]
    ranks = [top, top - 1, top - 2, top - 1, top - 2, top]
    calls = []
    real = lower._place_by_connector
    monkeypatch.setattr(
        lower, "_place_by_connector", lambda *args: calls.append(1) or real(*args)
    )
    kernel = place(join_keys, values, True, ranks)
    assert calls == [1]
    assert kernel == place(join_keys, values, False, ranks)
    assert kernel[4] == [top - 2, top - 1, top]


@needs_numpy
def test_a_rank_column_past_int64_keeps_the_scalar_grouping(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a rank column past int64 reached the kernel")

    join_keys = ["a", "b", "a", "b"]
    values = [1.0, 2.0, 1.0, 2.0]
    ranks = [1 << 64, 3, (1 << 64) - 1, 1 << 70]
    expected = place(join_keys, values, False, ranks)
    monkeypatch.setattr(lower, "_place_by_connector", refuse)
    kernel = place(join_keys, values, True, ranks)
    assert kernel == expected
    assert kernel[4] == [(1 << 64) - 1, 3]


@needs_numpy
@pytest.mark.parametrize("shape", ["path4", "star4", "twocol"])
def test_tree_and_multi_column_stages_take_the_kernel(shape):
    """Every stage of these shapes is vectorised at n >= ``_VEC_SCAN_MIN``."""
    from repro.obs.trace import Tracer

    query = QUERIES[shape]
    database = make_database(query, 700, "floats", seed=1)
    tracer = Tracer()
    with tracer.span("tdp.build") as span:
        lower.lower_query(database, build_join_tree(query), TROPICAL, span)
    stages = len(query.atoms)
    assert span.attrs["stages"] == span.attrs["vectorized_stages"] == stages
    assert span.attrs["rows"] == sum(
        len(database[a.relation_name]) for a in query.atoms
    )


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

    real_scan = lower.scan_stage

    def sampling_scan(*args, **kwargs):
        sample()
        out = real_scan(*args, **kwargs)
        sample()
        return out

    monkeypatch.setattr(lower, "scan_stage", sampling_scan)
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


# -- one pool, not a list per connector ----------------------------------------

#: The slots read lazily: filled on first touch, ``None`` at bind.
FIRST_TOUCH_CACHES = ("_take2_heaps", "_sorted_pairs", "_rea_heaps")


def reachable_lists(core) -> int:
    """``list`` objects reachable from the core's slots through lists,
    tuples and dicts (not through other objects, the shell included)."""
    seen: set[int] = set()
    stack = [
        getattr(core, name) for name in type(core).__slots__
        if name not in FIRST_TOUCH_CACHES
    ]
    found = 0
    while stack:
        item = stack.pop()
        if not isinstance(item, (list, tuple, dict)) or id(item) in seen:
            continue
        seen.add(id(item))
        found += type(item) is list
        stack.extend(item.values() if isinstance(item, dict) else item)
    return found


def test_lowering_keeps_no_list_per_connector():
    """Ten times the rows, ten times the connectors, the same lists: the
    entries are one pool, and only the root connector is a list at bind."""
    query = QUERIES["path4"]
    tree = build_join_tree(query)
    small, large = (
        lower.lower_query(make_database(query, n, seed=14), tree, TROPICAL)
        for n in (2_000, 20_000)
    )
    assert large.num_connectors > 5 * small.num_connectors
    assert reachable_lists(small) == reachable_lists(large)
    # What enumeration touches is cut then, and only that.
    before = reachable_lists(large)
    large.pairs(0)
    assert reachable_lists(large) == before + 1


@pytest.mark.parametrize("mode", ["fused", "thread"])
def test_fragment_roots_are_sized_beside_the_pool(mode):
    """Concurrently assembled fragment roots never enter the shared pool;
    ``conn_size`` and ``stats`` read them where they are held."""
    from repro.engine import Engine

    query = QUERIES["path4"]
    database = make_database(query, 700, seed=15)
    physical = Engine(database).prepare(
        query, shards=4, shard_parallel=mode, shard_workers=2
    ).bind()
    cores = [fragment.compiled for fragment in physical.fragments]
    assert len(cores) == 4 and physical.mode == mode
    pooled = len(cores[0].conn_offsets) - 1
    for index, core in enumerate(cores):
        assert core.entries is cores[0].entries
        root = core.root_uid[0]
        assert root == pooled + index
        assert core.conn_size(root) == len(core.pairs(root)) == len(core.val_base[0])
        assert core.stats()["entries"] == len(core.entries) + core.conn_size(root)
        for uid in range(core.num_connectors):
            assert core.conn_size(uid) == len(core.pairs(uid))
