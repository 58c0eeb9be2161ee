"""An answer is its states until someone reads it: the view is the eager decode.

The flat kernels allocate :class:`~repro.dp.graph.QueryResult` views —
weight, key, states and the plan's compiled assembler — for every plan
they run: every bind leaves the rows its answers read in this process,
so ``assignment`` / ``witness_ids`` / ``witness`` / ``output_tuple``
decode when read and nothing is retained.  The finishers that
post-process and the object-graph enumerators hand out finished answers
built while the stream extends.  This module pins both sides:

* every plan kind that hands out views (chain, tree, ranked product,
  two-column join key, self-join with a repeated variable) x
  {tropical, max-plus, max-times} x all seven algorithm names x
  {memory, SQLite cold bind}, over the
  ``1 == 1.0 == True`` join-key palette: all five fields of every
  answer equal ``ResultAssembler.result(weight, states)`` by ``repr`` /
  ``float.hex``, and a stage-by-stage loop that shares no code with the
  assembler;
* the cycle union, in memory and over SQLite, and the warm-started
  plan: views too, equal field by field to the in-memory (or cold)
  plan's answers;
* min-weight, projection and object-graph plans as the eager controls;
* lifetime: answers of an in-memory plan decode after ``engine.close()``
  / ``invalidate()`` / a relation append, and a held union answer after
  a relation's list is replaced; a warm-started plan extends with every
  SQLite statement failing, and its answers outlive their backend;
  held answers never pin the mapped ``.core``;
* cost, counted not timed: no dict and at most two tracked containers
  per memoized answer, reads retain nothing, the stream's memory
  estimate sizes what the memo holds, the encoder and the projection
  read each field once.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random
import sys
import threading
import types

import pytest

from repro.anyk.base import Enumerator, RankedResult, make_enumerator
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.flat import CompiledTDP
from repro.dp.graph import TDP, ChoiceSet, QueryResult, ResultAssembler
from repro.engine import Engine
from repro.engine.plan import MemberDecoder
from repro.query.builders import cycle_query
from repro.query.parser import parse_query
from repro.ranking.dioid import BOOLEAN, MAX_TIMES
from repro.serve import protocol
from repro.util import faults
from tests.test_lower_columns import DIOIDS, QUERIES, make_database

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
#: Chain kernels, tree kernels, and the multi-root ranked product.
SHAPES = {
    "path4": QUERIES["path4"],
    "star4": QUERIES["star4"],
    "product": parse_query("Q(a, b, c, d) :- R1(a, b), R2(c, d)"),
    "twocol": QUERIES["twocol"],
    "selfjoin_repeat": QUERIES["selfjoin_repeat"],
}
#: The lane dioids: with an inverse, and max-times without one.
VIEW_DIOIDS = {**DIOIDS, "max-times": MAX_TIMES}
#: storage -> (backend, prepare options).
STORAGES = {
    "memory": ("memory", {}),
    "sqlite_cold": ("sqlite", {}),
}
K = 300
PROJECTION = parse_query("Q(x1, x3) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)")


def snapshot(result) -> tuple:
    """All five public fields, in a form ``==`` cannot blur."""
    weight = result.weight
    return (
        weight.hex() if isinstance(weight, float) else repr(weight),
        repr(result.assignment),
        repr(result.witness_ids),
        repr(result.witness),
        repr(result.output_tuple),
    )


def open_engine(database, backend, tmp_path, **options) -> Engine:
    if backend == "memory":
        return Engine(database, **options)
    store = SQLiteBackend(str(tmp_path / "view.db"))
    for relation in database:
        store.ingest(relation)
    return Engine.from_backend(store, **options)


def stagewise_fields(tdp, query, head, states) -> tuple:
    """What a stage-by-stage dict fill leaves: the loop the assembler's
    straight-line functions replaced (last binding wins, first
    appearance orders).  A lowered core's rows are its stage's row
    store, read at the state's tuple id."""
    assignment: dict = {}
    by_atom: dict[int, tuple] = {}
    for stage, atom in enumerate(tdp.atom_of_stage):
        tuple_id = tdp.tuple_ids[stage][states[stage]]
        row = tdp.tuples[stage][tuple_id if tdp.rows_by_id else states[stage]]
        by_atom[atom] = (tuple_id, row)
        for var, value in zip(query.atoms[atom].variables, row):
            assignment[var] = value
    ordered = [by_atom[atom] for atom in sorted(by_atom)]
    return (
        repr(assignment),
        repr(tuple(tuple_id for tuple_id, _row in ordered)),
        repr(tuple(row for _tuple_id, row in ordered)),
        repr(tuple(assignment[var] for var in head)),
    )


# -- the view is the eager decode, everywhere ------------------------------------


@pytest.mark.parametrize("algorithm", ALL_VARIANTS)
@pytest.mark.parametrize("dioid", list(VIEW_DIOIDS))
@pytest.mark.parametrize("storage", list(STORAGES))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_view_fields_equal_the_eager_decode(
    tmp_path, shape, storage, dioid, algorithm
):
    query = SHAPES[shape]
    backend, options = STORAGES[storage]
    n = 40 if shape == "product" else 150
    database = make_database(query, n, "mixed", seed=7, mixed_keys=True)
    engine = open_engine(database, backend, tmp_path, core_cache="off")
    try:
        prepared = engine.prepare(
            query, dioid=VIEW_DIOIDS[dioid], algorithm=algorithm, **options
        )
        results = prepared.top(K)
        assert len(results) >= 50
        physical = prepared.bind()
        assert physical.eager is None
        assert "answers: decoded on read" in prepared.explain()
        assert prepared.stream().decode == "on_read"
        for result in results:
            assert type(result) is QueryResult
            assert type(result.decoder) is ResultAssembler
            eager = result.decoder.result(result.weight, result.states)
            assert eager.states is None
            assert snapshot(result) == snapshot(eager)
            assert repr(result.decoded()) == repr(eager.decoded())
            assert snapshot(result)[1:] == stagewise_fields(
                physical.tdp, query, query.head, result.states
            )
    finally:
        engine.close()


def test_projection_head_order_and_repeated_variable():
    """``output_tuple`` follows the head, not the body; a repeated
    variable reads its last binding, as the assignment does."""
    query = parse_query("Q(z, x, y) :- R1(x, y), R1(y, z), R1(z, z)")
    database = make_database(query, 150, "mixed", seed=3, mixed_keys=True)
    with Engine(database) as engine:
        results = engine.prepare(query).top(200)
        assert results and results[0].states is not None
        for result in results:
            assignment = result.assignment
            assert repr(result.output_tuple) == repr(
                tuple(assignment[var] for var in ("z", "x", "y"))
            )


def test_make_enumerator_keeps_ranked_results():
    """The any-k library's own result type and its method-style
    ``output_tuple()`` are what ``make_enumerator`` hands out."""
    query = SHAPES["path4"]
    database = make_database(query, 150, "floats", seed=7)
    with Engine(database) as engine:
        prepared = engine.prepare(query)
        tdp = prepared.bind().tdp
        ranked = make_enumerator(tdp, "take2").top(50)
        views = prepared.top(50)
    for r, view in zip(ranked, views):
        assert type(r) is RankedResult and r.decoder is tdp.assembler()
        assert (r.weight, r.key, r.states) == (view.weight, view.key, view.states)
        assert r.output_tuple() == view.output_tuple
        assert r.assignment == view.assignment
        assert r.witness_ids == view.witness_ids


# -- the eager controls ------------------------------------------------------------


def assert_finished(prepared, results, reason: str) -> None:
    assert results
    assert prepared.stream().decode == "at_extension"
    assert f"answers: decoded at extension ({reason}" in prepared.explain()
    for result in results:
        assert result.states is None
        assignment, head, witness_ids, witness = result.decoded()
        assert assignment is result.assignment
        assert witness_ids is result.witness_ids and witness is result.witness
        assert result.output_tuple == tuple(assignment[var] for var in head)


#: name -> (query, prepare options, why its answers are finished).
EAGER_PLANS = {
    "min_weight": (
        parse_query("Q(x1, x2) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"),
        {"projection": "min_weight"},
        "the plan's finisher",
    ),
    "boolean": (
        SHAPES["path4"], {"dioid": BOOLEAN}, "object-graph enumerators",
    ),
}


@pytest.mark.parametrize("algorithm", ["take2", "recursive", "batch"])
@pytest.mark.parametrize("plan", list(EAGER_PLANS))
def test_finishers_and_object_plans_hand_out_finished_answers(plan, algorithm):
    query, options, reason = EAGER_PLANS[plan]
    database = make_database(query, 60, "floats", seed=5)
    with Engine(database, core_cache="off") as engine:
        prepared = engine.prepare(query, algorithm=algorithm, **options)
        assert_finished(prepared, prepared.top(100), reason)


@pytest.mark.parametrize("dioid", list(DIOIDS))
def test_projection_is_the_projected_inner_answer(dioid):
    database = make_database(PROJECTION, 150, "mixed", seed=9, mixed_keys=True)
    full = parse_query(
        "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"
    )
    with Engine(database) as engine:
        prepared = engine.prepare(PROJECTION, dioid=DIOIDS[dioid])
        projected = prepared.top(K)
        inner = engine.prepare(full, dioid=DIOIDS[dioid]).top(K)
        assert_finished(prepared, projected, "the plan's finisher")
    assert len(projected) == len(inner) >= 50
    for got, source in zip(projected, inner):
        assignment = source.assignment
        assert snapshot(got) == (
            snapshot(source)[0],
            repr({var: assignment[var] for var in ("x1", "x3")}),
            repr(source.witness_ids),
            repr(source.witness),
            repr((assignment["x1"], assignment["x3"])),
        )


def test_projection_decodes_each_inner_view_once():
    database = make_database(PROJECTION, 150, "floats", seed=9)
    with Engine(database) as engine:
        prepared = engine.prepare(PROJECTION)
        inner = prepared.bind().inner
        assembler = inner.tdp.assembler(inner.logical.query.head)
        calls = dict.fromkeys(ResultAssembler.__slots__[1:], 0)

        def counting(name, decode):
            def counted(*args):
                calls[name] += 1
                return decode(*args)

            return counted

        for name in calls:
            setattr(assembler, name, counting(name, getattr(assembler, name)))
        assert len(prepared.top(60)) == 60
    assert calls.pop("fields") == 60
    assert set(calls.values()) == {0}, calls


def assert_views(prepared, results) -> None:
    assert results
    assert prepared.stream().decode == "on_read"
    assert "answers: decoded on read" in prepared.explain()
    assert all(result.states is not None for result in results)


@pytest.mark.parametrize("algorithm", ALL_VARIANTS)
@pytest.mark.parametrize("dioid", list(DIOIDS))
def test_warm_started_plan_hands_out_views_equal_to_the_cold_plans(
    tmp_path, dioid, algorithm
):
    """A ``.core`` holds its stages' rows: a warm plan's answers are
    views over the rows it mapped, equal to the cold plan's."""
    query = SHAPES["path4"]
    database = make_database(query, 150, "mixed", seed=7, mixed_keys=True)
    options = {"dioid": DIOIDS[dioid], "algorithm": algorithm}
    with open_engine(database, "sqlite", tmp_path) as cold:
        prepared = cold.prepare(query, **options)
        expected = [snapshot(result) for result in prepared.top(K)]
        assert prepared.stream().decode == "on_read"
    warm = Engine.from_backend(SQLiteBackend(str(tmp_path / "view.db")))
    try:
        prepared = warm.prepare(query, **options)
        results = prepared.top(K)
        assert warm.stats.core_hits == 1
        assert prepared.bind().tdp.mapped
        assert_views(prepared, results)
    finally:
        warm.close()
    # Read with the backend closed and the core unmapped.
    assert [snapshot(result) for result in results] == expected


# -- the cycle union: a view over its member ----------------------------------------


def skewed_cycle_database(seed: int, weights="floats"):
    """Hub values make heavy partitions non-empty: several members merge."""
    database = make_database(cycle_query(4), 80, weights, seed=seed)
    for relation in database:
        relation.tuples[::4] = [(1 + i % 2, b) for i, (_a, b) in enumerate(relation.tuples[::4])]
    return database


@pytest.mark.parametrize("algorithm", ALL_VARIANTS)
@pytest.mark.parametrize("dioid", ["tropical", "max-times"])
def test_union_answers_are_views_equal_to_the_finished_answers(
    tmp_path, dioid, algorithm
):
    """A union answer is its member's states, in memory and over SQLite,
    where its witnesses read the rows the bind read.  Same five fields."""
    query = cycle_query(4)
    weights = "floats" if dioid == "tropical" else "mixed"
    database = skewed_cycle_database(seed=29, weights=weights)
    if dioid == "max-times":
        for relation in database:
            relation.weights = [abs(w) + 0.25 for w in relation.weights]
    options = {"algorithm": algorithm}
    if dioid == "max-times":
        options["dioid"] = MAX_TIMES
    with Engine(database, core_cache="off") as engine:
        prepared = engine.prepare(query, **options)
        results = prepared.top(K)
        physical = prepared.bind()
        assert len(physical.tdps) > 1 and len(results) >= 50
        assert physical.eager is None
        assert "answers: decoded on read" in prepared.explain()
        assert prepared.stream().decode == "on_read"
        members = set()
        for result in results:
            assert type(result) is QueryResult and result.states is not None
            decoder = result.decoder
            assert type(decoder) is MemberDecoder
            members.add(id(decoder))
            assert type(result.weight) is not tuple, "the base value, not the pair"
            assert result.key[1].__class__ is int
            eager = QueryResult(result.weight, *decoder.fields(result.states))
            assert eager.states is None
            assert snapshot(result) == snapshot(eager)
            assert repr(result.decoded()) == repr(eager.decoded())
            assert protocol.encode(protocol.result_message(7, result)) == (
                protocol.encode(protocol.result_message(7, eager))
            )
        if algorithm != "batch_nosort":
            assert len(members) > 1, "answers of several members were merged"
    with open_engine(database, "sqlite", tmp_path, core_cache="off") as stored:
        prepared = stored.prepare(query, **options)
        stored_results = prepared.top(K)
        assert_views(prepared, stored_results)
    assert [snapshot(r) for r in results] == [snapshot(r) for r in stored_results]


def test_a_held_union_answer_reaches_no_tdp_connector_or_enumerator():
    database = skewed_cycle_database(seed=31)
    with Engine(database) as engine:
        results = engine.prepare(cycle_query(4)).top(40)
    assert results[0].states is not None
    for result in (results[0], results[-1]):
        # (> 100: it did walk the member's bag rows and lineage columns.)
        assert reachable_from(result, (TDP, CompiledTDP, ChoiceSet, Enumerator)) > 100
    # ... and reads after the engine is gone, like any view.
    expected = [snapshot(result) for result in results]
    for relation in database:
        relation.add((1, 1), -1000.0)
    assert [snapshot(result) for result in results] == expected


@pytest.mark.parametrize("clone", ["deepcopy", "copy", "pickle2", "pickle5"])
def test_a_union_view_pickles_and_copies_as_the_finished_answer(clone):
    database = skewed_cycle_database(seed=37)
    with Engine(database) as engine:
        results = engine.prepare(cycle_query(4), dioid=MAX_TIMES).top(25)
    for result in results:
        twin = CLONES[clone](result)
        assert type(twin) is QueryResult
        assert snapshot(twin) == snapshot(result)
        assert twin.states is None and not hasattr(twin, "decoder")


def test_unread_union_memo_holds_no_dict_and_no_witness():
    """An unread cyclic answer is one object over its member's states."""
    database = skewed_cycle_database(seed=41)
    variables = set(cycle_query(4).variables)
    with Engine(database) as engine:
        prepared = engine.prepare(cycle_query(4))
        prepared.top(10)  # warm caches, imports
        prepared.invalidate()
        prepared.bind()
        gc.collect()
        gc.disable()
        try:
            known = {id(o) for o in gc.get_objects()}
            known.add(id(known))
            results = prepared.top(500)
            fresh = [o for o in gc.get_objects() if id(o) not in known]
            assert sum(type(o) is QueryResult for o in fresh) == len(results) == 500
            assert not [o for o in fresh if type(o) is dict and variables <= set(o)]
            alive = len(gc.get_objects())
            read_every_field(results)
            assert len(gc.get_objects()) == alive, "a read retains nothing"
        finally:
            gc.enable()


# -- lifetime ------------------------------------------------------------------------


def four_cycle_pairs(seed: int, pairs: int, values: int):
    """``R1`` .. ``R4`` of ``pairs`` random pairs over ``values`` values."""
    rng = random.Random(seed)
    return Database([
        Relation(
            f"R{i}", 2,
            [(rng.randrange(values), rng.randrange(values)) for _ in range(pairs)],
            [rng.random() for _ in range(pairs)],
        )
        for i in range(1, 5)
    ])


#: A lifetime case -> (query, a new database of its relations).
LIFETIME_CASES = {
    "path4": (SHAPES["path4"], lambda: make_database(SHAPES["path4"], 150, "floats", seed=11)),
    "cycle4": (cycle_query(4), lambda: four_cycle_pairs(seed=3, pairs=60, values=6)),
}


@pytest.mark.parametrize("case", list(LIFETIME_CASES))
def test_held_views_outlive_their_engine_plan_and_later_appends(case):
    """Held answers are of their version: appending to a relation, or
    replacing its list, leaves them as they were — an acyclic view and a
    union answer alike read the rows their bind read, not the
    relation's current list."""
    query, make = LIFETIME_CASES[case]
    database = make()
    with Engine(make()) as other:
        expected = [snapshot(result) for result in other.prepare(query).top(K)]
    engine = Engine(database)
    prepared = engine.prepare(query)
    results = prepared.top(K)
    assert len(results) >= 20 and results[0].states is not None
    # An append rebinds the next request; held answers are of their version.
    for relation in database:
        relation.add((1, 1), -1000.0)
    assert [snapshot(result) for result in results] == expected
    assert snapshot(prepared.top(1)[0]) != expected[0]
    for relation in database:
        relation.tuples = list(reversed(relation.tuples))
    assert [snapshot(result) for result in results] == expected
    prepared.invalidate()
    assert [snapshot(result) for result in results] == expected
    engine.close()
    assert [snapshot(result) for result in results] == expected


def reachable_from(result, forbidden: tuple) -> int:
    """Walk everything ``result`` keeps alive; none may be ``forbidden``.

    Classes, modules and their globals (every function refers to its
    module's, and to the interpreter's builtins) are the process's, not
    the answer's.
    """
    seen: set[int] = {id(vars(module)) for module in list(sys.modules.values())}
    frontier = [result]
    while frontier:
        item = frontier.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen.add(id(item))
        assert not isinstance(item, forbidden), type(item)
        frontier.extend(gc.get_referents(item))
    return len(seen)


def test_a_view_reaches_no_tdp_and_no_compiled_core():
    query = SHAPES["star4"]
    database = make_database(query, 60, "floats", seed=2)
    with Engine(database) as engine:
        result = engine.prepare(query).top(3)[-1]
        # (> 100: it did walk the assembler's rows.)
        assert reachable_from(result, (TDP, CompiledTDP)) > 100


@pytest.mark.parametrize("algorithm", ALL_VARIANTS)
@pytest.mark.parametrize("dioid", list(DIOIDS))
def test_a_warm_started_plan_extends_with_no_sql(tmp_path, dioid, algorithm):
    """Every row a warm plan's answers read is in its ``.core``: with
    every SQLite statement failing, the stream still extends, and its
    answers — read after the engine, the backend and the mapping are
    gone — are the cold plan's, field by field."""
    query = SHAPES["path4"]
    database = make_database(query, 150, "mixed", seed=13, mixed_keys=True)
    options = {"dioid": DIOIDS[dioid], "algorithm": algorithm}
    with open_engine(database, "sqlite", tmp_path) as cold:  # writes the .core
        expected = [snapshot(result) for result in cold.prepare(query, **options).top(60)]
    engine = Engine.from_backend(SQLiteBackend(str(tmp_path / "view.db")))
    prepared = engine.prepare(query, **options)
    stream = prepared.stream()
    assert engine.stats.core_hits == 1 and engine.core_cache._maps
    with faults.injected("sqlite.execute=raise:1:0:busy"):
        assert stream.ensure(60) == 60
        results = stream.prefix(60)
    del stream  # the run behind it reads the mapped columns; answers do not
    engine.close()
    # Held answers pin neither the backend nor the mapped core file.
    assert not engine.core_cache._maps
    assert [snapshot(result) for result in results] == expected


# -- concurrency: a read retains nothing, so readers need no lock -----------------


def test_eight_threads_reading_the_same_views_agree():
    query = SHAPES["path4"]
    database = make_database(query, 150, "floats", seed=17)
    with Engine(database) as engine:
        results = engine.prepare(query).top(500)
        assert len(results) == 500 and results[0].states is not None
        expected = [snapshot(result) for result in results]
        seen: list = [None] * 8

        def reader(slot: int) -> None:
            seen[slot] = [snapshot(result) for result in results]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(slot,)) for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
    assert all(got == expected for got in seen)


# -- cost gates: count, do not time ------------------------------------------------


def read_every_field(results) -> None:
    for result in results:
        _ = (
            result.weight, result.assignment, result.witness_ids,
            result.witness, result.output_tuple, result.decoded(),
        )


def test_unread_memo_holds_two_containers_per_answer_and_reads_retain_nothing():
    """A 2 000-answer memo of the 4-path: no dict, and per answer at
    most the result and its states tuple tracked by the collector —
    before and after every field of every answer was read."""
    query = SHAPES["path4"]
    database = make_database(query, 700, "floats", seed=12)
    variables = set(query.variables)
    with Engine(database) as engine:
        prepared = engine.prepare(query)
        prepared.top(10)  # warm caches, imports
        prepared.invalidate()
        prepared.bind()
        gc.collect()
        gc.disable()
        try:
            known = {id(o) for o in gc.get_objects()}
            known.add(id(known))
            results = prepared.top(2000)
            assert len(results) == 2000
            fresh = [o for o in gc.get_objects() if id(o) not in known]
            assert sum(type(o) is QueryResult for o in fresh) == 2000
            assert not [
                o for o in fresh if type(o) is dict and variables <= set(o)
            ]

            def held(result) -> int:
                parts = [result.weight, result.key, result.states]
                return 1 + sum(gc.is_tracked(part) for part in parts)

            assert max(map(held, results)) <= 2
            alive = len(gc.get_objects())
            read_every_field(results)
            assert len(gc.get_objects()) == alive
            assert max(map(held, results)) <= 2
        finally:
            gc.enable()


def memo_bytes(stream) -> int:
    """The summed ``sys.getsizeof`` of what the memo really holds."""
    total = sys.getsizeof(stream._results)
    for result in stream._results:
        total += sys.getsizeof(result) + sys.getsizeof(result.states)
        total += sys.getsizeof(result.weight)
        wire = getattr(result, "_wire", None)
        if wire is not None:
            total += sys.getsizeof(wire) + sys.getsizeof(wire[1])
    return total


def test_memory_estimate_sizes_what_the_memo_holds():
    query = SHAPES["path4"]
    database = make_database(query, 700, "floats", seed=12)
    with Engine(database) as engine:
        prepared = engine.prepare(query)
        stream = prepared.stream()
        page = stream.prefix(2000)
        assert len(page) == 2000 and page[0].states is not None

        def close(estimate: int, actual: int) -> bool:
            return abs(estimate - actual) <= 0.15 * actual

        unserved = memo_bytes(stream)
        assert close(stream.memory_bytes(), unserved)
        assert stream.memory_bytes() / 2000 <= 200
        read_every_field(page)  # must not grow: nothing is retained
        assert memo_bytes(stream) == unserved
        assert close(stream.memory_bytes(), unserved)
        # Half served: every answer is charged a line (the safe side).
        protocol.result_lines(0, page[:1000])
        half = stream.memory_bytes()
        assert memo_bytes(stream) <= half
        protocol.result_lines(1000, page[1000:])
        served = memo_bytes(stream)
        assert stream.memory_bytes() == half and close(half, served)
        read_every_field(page)
        assert memo_bytes(stream) == served
        assert stream.stats()["memory_bytes"] == half


class CountingResult:
    """Counts reads of the fields the encoder may touch."""

    def __init__(self, result):
        self._result = result
        self.reads: dict[str, int] = {}

    def __getattr__(self, name):
        self.reads[name] = self.reads.get(name, 0) + 1
        return getattr(self._result, name)


def test_result_message_reads_each_field_once():
    query = SHAPES["path4"]
    database = make_database(query, 150, "floats", seed=19)
    with Engine(database) as engine:
        result = engine.prepare(query).top(1)[0]
        counted = CountingResult(result)
        message = protocol.result_message(3, counted)
        assert counted.reads == {"weight": 1, "assignment": 1, "witness_ids": 1}
        assert protocol.encode(message) == protocol.encode(
            protocol.result_message(3, result)
        )


# -- a view travels as the finished answer ------------------------------------------


CLONES = {
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
    **{
        f"pickle{p}": (lambda result, p=p: pickle.loads(pickle.dumps(result, p)))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


@pytest.mark.parametrize("clone", list(CLONES))
def test_a_view_pickles_and_copies_as_the_finished_answer(clone):
    query = SHAPES["star4"]
    database = make_database(query, 60, "mixed", seed=23, mixed_keys=True)
    finished = QueryResult(1.5, {"a": 1, "b": 1.0}, ("b", "a"), (3,), ((1, 1.0),))
    with Engine(database) as engine:
        results = engine.prepare(query).top(40)
        assert results and results[0].states is not None
        for result in [*results, finished]:
            twin = CLONES[clone](result)
            assert type(twin) is QueryResult
            assert snapshot(twin) == snapshot(result)
            # Finished: no states, no assembler, no plan rows behind it.
            assert twin.states is None and not hasattr(twin, "decoder")
