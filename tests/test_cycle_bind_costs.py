"""What a cyclic bind is allowed to cost, in counts a machine cannot blur.

The simple-cycle bind went from "about twelve containers and three
dioid merges per bag tuple" to one scan per cycle atom, one column
operation per stage and a tie-breaker that is one integer, numbered by
one sort per ranked variable per bind — of its distinct values, which a
table finds among dense codes — and merged by addition; members whose
base dioid keeps its lane contract are now lowered to a two-lane core —
no ``times`` or ``key`` call, no ``ChoiceSet``, one tuple per alive
state — whose keys are looked up by code: over dense codes no
``np.unique``, no ``searchsorted`` and one ``argsort`` per stage, the
placement's counting pass.  Wall clock cannot guard that on a shared CI
box; these counts can: a re-introduced rescan, a second product per
state, a shared minimum folded per state, a sort per member or per
probe, a scalar fallback on the tie path or an object built per state on
the lowered one changes an integer.

``CountingMaxTimes`` overrides ``times`` to count it, which costs it the
lane (:func:`repro.ranking.dioid.lane_of`): it drives the object path's
gates, and proves the override guard while doing so.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.cycle import decompose_cycle
from repro.dp.flat import CompiledTDP
from repro.dp.graph import ChoiceSet
from repro.dp.lower import ColumnRows, lower_member
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query
from repro.ranking.dioid import (
    MAX_PLUS,
    MAX_TIMES,
    TROPICAL,
    MaxTimesDioid,
    MaxPlusDioid,
    TieBreakingDioid,
    TropicalDioid,
)
from tests.reference.cycle_rows import LAYOUT, decompose_cycle_rows, use_cycle_rows

# ``repro.engine.plan`` the attribute is the ``plan()`` function.
plan_module = importlib.import_module("repro.engine.plan")
dioid_module = importlib.import_module("repro.ranking.dioid")
lower_module = importlib.import_module("repro.dp.lower")
builder_module = importlib.import_module("repro.dp.builder")


class CountingRelation(Relation):
    """A relation that counts how often it is read in full: its rows,
    its column image, or its lists (a read of ``weights``; the lists an
    image is made from are that image's one read)."""

    __slots__ = ("scans",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans = 0

    def rows(self):
        self.scans += 1
        return super().rows()

    @property
    def arrays(self):
        scans = self.scans = self.scans + 1
        image = super().arrays
        self.scans = scans
        return image

    def _counted_weights(self):
        self.scans += 1
        return Relation.weights.fget(self)

    weights = property(_counted_weights, Relation.weights.fset)


class CountingMaxTimes(MaxTimesDioid):
    """Counts scalar products: still the definition behind ``times_column``."""

    def __init__(self):
        self.times_calls = 0

    def times(self, a, b):
        self.times_calls += 1
        return super().times(a, b)


class CountingTie(TieBreakingDioid):
    """Counts column operations, and any scalar ``times`` / ``key`` at all."""

    instances: list["CountingTie"] = []

    def __init__(self, base, num_variables):
        super().__init__(base, num_variables)
        self.scalar_calls = 0
        self.times_columns = 0
        self.key_columns = 0
        CountingTie.instances.append(self)

    def times(self, a, b):
        self.scalar_calls += 1
        return super().times(a, b)

    def key(self, a):
        self.scalar_calls += 1
        return super().key(a)

    def times_column(self, a, b):
        self.times_columns += 1
        return super().times_column(a, b)

    def key_column(self, values):
        self.key_columns += 1
        return super().key_column(values)


def _skewed_cycle_database(
    relation_names: list[str], seed: int, value=None, weight=None
) -> Database:
    """Hub values make heavy partitions non-empty; the rest stays light.
    ``value`` / ``weight`` retype the values and weights drawn."""
    rng = random.Random(seed)
    relations = []
    for name in dict.fromkeys(relation_names):
        tuples = [
            (rng.randint(1, 2) if j % 4 == 0 else rng.randint(3, 14),
             rng.randint(1, 14))
            for j in range(80)
        ]
        weights = [round(rng.uniform(0.1, 1.0), 3) for _ in tuples]
        if value is not None:
            tuples = [tuple(map(value, row)) for row in tuples]
        if weight is not None:
            weights = list(map(weight, weights))
        relations.append(CountingRelation(name, 2, tuples, weights))
    return Database(relations)


@pytest.fixture
def counted(monkeypatch):
    """Route the union bind through the counting dioid and lift."""
    CountingTie.instances = []
    lifts = {"scalar": 0, "columns": 0, "rows": 0, "sorts": 0, "rankings": 0}
    real_make_tie_lift = plan_module.make_tie_lift
    real_rank_tie_domains = plan_module.rank_tie_domains

    def counting_make_tie_lift(tie, var_position, join_tree):
        lift = real_make_tie_lift(tie, var_position, join_tree)

        def counted_lift(atom, values, raw_weight):
            lifts["scalar"] += 1
            return lift(atom, values, raw_weight)

        def counted_column(atom, rows, weights):
            lifts["columns"] += 1
            lifts["rows"] += len(rows)
            return lift.column(atom, rows, weights)

        counted_lift.column = counted_column
        return counted_lift

    ranking = []

    def counting_rank_tie_domains(tie, members):
        lifts["rankings"] += 1
        ranking.append(True)
        try:
            return real_rank_tie_domains(tie, members)
        finally:
            ranking.pop()

    def counting_sorted(*args, **kwargs):
        # The decomposition orders its heavy values through the same
        # module (``ranking_order``): only the rank tables' sorts count.
        lifts["sorts"] += bool(ranking)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(plan_module, "TieBreakingDioid", CountingTie)
    monkeypatch.setattr(plan_module, "make_tie_lift", counting_make_tie_lift)
    monkeypatch.setattr(plan_module, "rank_tie_domains", counting_rank_tie_domains)
    # The module's ``sorted`` shadows the builtin for the rank tables only.
    monkeypatch.setattr(dioid_module, "sorted", counting_sorted, raising=False)
    return lifts


@pytest.mark.parametrize("self_join", [False, True])
def test_four_cycle_bind_op_counts(counted, self_join):
    """The bind in column operations, and in the scalar products behind them.

    * The domains are numbered once per bind, for all members together:
      one sort per ranked variable (the query's four), however many
      members and stages hold it.
    * ``lift`` columns == stages, their rows == alive states: a stage is
      lifted once, after its dead rows are gone, never row by row.
    * ``times_column`` calls == one per child branch and one for the
      entries per stage, plus one per root for the virtual start state;
      ``key_column`` calls == stages.  The tie dioid's scalar ``times``
      and ``key`` are never called: no fallback on the tie path.
    * The base dioid's scalar ``times`` — what the default
      ``times_column`` maps — is counted per element: one product per
      alive state (its entry), one per *distinct connector* a stage's
      first branch references (its minimum folded from ``one`` once,
      then handed to every state pointing at it), one per state for each
      further branch, one per root connector, plus the bag joins.  A
      second product per state or a per-state fold of a shared minimum
      changes it.
    """
    names = ["E"] * 4 if self_join else ["R1", "R2", "R3", "R4"]
    database = _skewed_cycle_database(names, seed=1501)
    query = cycle_query(4, relation="E" if self_join else None)
    base = CountingMaxTimes()

    physical = Engine(database).prepare(query, dioid=base).bind()
    assert not any(isinstance(tdp, CompiledTDP) for tdp in physical.tdps)
    assert physical.object_reason == "CountingMaxTimes overrides times"

    # One full read per distinct relation — the l+1 partitions, and
    # every atom of a self-join, share it.
    assert sum(relation.scans for relation in database) == (1 if self_join else 4)
    assert {relation.scans for relation in database} == {1}

    labels = [task.label for task in physical.tasks]
    assert "all-light" in labels and len(labels) > 1, labels
    (tie,) = CountingTie.instances
    bag_tuples = alive = stages = columns = products = join_products = 0
    shared_minima = 0
    for task, tdp in zip(physical.tasks, physical.tdps):
        for name, bag in task.database.relations.items():
            bag_tuples += len(bag)
            # A bag pinning p atoms folds p - 1 base products per tuple.
            join_products += len(bag) * (len(task.lineage[name].atoms) - 1)
        # The virtual start state: one product through each root connector.
        columns += len(tdp.root_conn)
        products += len(tdp.root_conn)
        for stage, children in enumerate(tdp.children_stages):
            states = len(tdp.tuples[stage])
            stages += 1
            alive += states
            columns += len(children) + 1
            products += states  # the entry: value (x) pi1
            if children:
                first_branch = {conns[0].uid for conns in tdp.child_conns[stage]}
                products += len(first_branch)
                products += states * (len(children) - 1)
                shared_minima += states - len(first_branch)
    assert alive > 0 and shared_minima > 0
    assert counted["rankings"] == 1, "numbered once, shared by every member"
    assert counted["sorts"] == len(query.variables) == 4
    assert all(len(ranks) > 1 for ranks in tie.ranks)
    assert counted["scalar"] == 0
    assert counted["columns"] == stages, "one lift column per member and stage"
    assert counted["rows"] == alive <= bag_tuples, "lifted once, when alive"
    assert tie.scalar_calls == 0, "no scalar fallback on the tie path"
    assert tie.times_columns == columns
    assert tie.key_columns == stages
    # The base dioid sees the column products plus the bag joins.
    assert base.times_calls == products + join_products


LANE_BASES = {
    "tropical": (TROPICAL, TropicalDioid),
    "max_plus": (MAX_PLUS, MaxPlusDioid),
    "max_times": (MAX_TIMES, MaxTimesDioid),
}


def _bag_join_products(physical) -> int:
    """Base products the decomposition makes: a bag pinning p atoms folds
    p - 1 per tuple."""
    return sum(
        len(bag) * (len(task.lineage[name].atoms) - 1)
        for task in physical.tasks
        for name, bag in task.database.relations.items()
    )


#: bags -> (value, weight) retyping of the drawn cycle, and the layout
#: of every member for the relation ``R1`` / ``E`` that holds them.
BAG_STORAGES = {
    "columns": (None, None, "bag columns"),
    # ``str`` ids are coded like any value: their bags are columns too.
    # ``int`` weights are stored as rows and fold as objects.
    "str_ids": (str, None, "bag columns"),
    "int_weights": (
        None, lambda w: round(w * 1000), "bag rows ({} holds a weight of type int)"
    ),
    "reference": (None, None, LAYOUT),
}


@pytest.mark.parametrize("bags", list(BAG_STORAGES))
@pytest.mark.parametrize("base_name", list(LANE_BASES))
@pytest.mark.parametrize("self_join", [False, True])
def test_lowered_four_cycle_bind_op_counts(
    counted, monkeypatch, self_join, base_name, bags
):
    """A base that keeps its lane: every member is lowered, and the bind
    makes no ``times`` / ``key`` call and no ``ChoiceSet``.

    * One scan per distinct relation and one sort per ranked variable,
      as on the object path.
    * No lift column, no column operation and no scalar call on the tie
      dioid: the ranks go straight into the rank lane.
    * The base dioid's scalar ``times`` — counted on the class that
      declares the lane, so the lane stands — runs exactly once per bag
      join product where the weights fold as objects (``int`` weights,
      and the row-at-a-time reference :mod:`tests.reference.cycle_rows`),
      and not at all where they fold as float64 (bag columns, ``str``
      ids included); never for the T-DP; ``key`` never.
    """
    value, weight, layout = BAG_STORAGES[bags]
    if bags == "reference":
        use_cycle_rows(monkeypatch)
    base, declaring = LANE_BASES[base_name]
    calls = {"times": 0, "key": 0, "choice_sets": 0}
    real_times, real_key, real_init = declaring.times, declaring.key, ChoiceSet.__init__

    def times(self, a, b):
        calls["times"] += 1
        return real_times(self, a, b)

    def key(self, a):
        calls["key"] += 1
        return real_key(self, a)

    def init(self, *args):
        calls["choice_sets"] += 1
        real_init(self, *args)

    monkeypatch.setattr(declaring, "times", times)
    monkeypatch.setattr(declaring, "key", key)
    monkeypatch.setattr(ChoiceSet, "__init__", init)
    names = ["E"] * 4 if self_join else ["R1", "R2", "R3", "R4"]
    database = _skewed_cycle_database(names, seed=1501, value=value, weight=weight)
    query = cycle_query(4, relation="E" if self_join else None)

    physical = Engine(database).prepare(query, dioid=base).bind()

    assert len(physical.tdps) > 1
    assert all(isinstance(tdp, CompiledTDP) for tdp in physical.tdps)
    assert sum(relation.scans for relation in database) == (1 if self_join else 4)
    assert {task.bag_layout for task in physical.tasks} == {layout.format(names[0])}
    (tie,) = CountingTie.instances
    assert counted["rankings"] == 1
    assert counted["sorts"] == len(query.variables) == 4
    assert counted["columns"] == counted["scalar"] == 0, "no lift: the rank lane"
    assert tie.scalar_calls == tie.times_columns == tie.key_columns == 0
    assert calls["choice_sets"] == 0
    assert calls["key"] == 0
    assert _bag_join_products(physical) > 0
    folds_objects = bags in ("int_weights", "reference")
    assert calls["times"] == (_bag_join_products(physical) if folds_objects else 0)
    # ... and enumerating them needs neither.
    before = dict(calls)
    assert len(physical.top(50)) == 50
    assert calls == before


@pytest.mark.parametrize("threshold", [None, 3])
@pytest.mark.parametrize("length", [3, 4, 5])
def test_an_object_weight_fold_makes_the_row_folds_times_calls(
    monkeypatch, length, threshold
):
    """``int`` weights under a lane fold through ``dioid.times`` on object
    columns: the calls and operands of the row-at-a-time reference (a
    column at a time, so in another order; the 3-cycle's fan folds only
    the rows its closing atom keeps)."""
    calls = []
    real_times = TropicalDioid.times

    def times(self, a, b):
        calls.append((a, b))
        return real_times(self, a, b)

    monkeypatch.setattr(TropicalDioid, "times", times)
    names = [f"R{i}" for i in range(1, length + 1)]
    database = _skewed_cycle_database(
        names, seed=1502, weight=lambda w: round(w * 1000)
    )
    query = cycle_query(length)

    tasks = decompose_cycle(database, query, dioid=TROPICAL, threshold=threshold)
    built, calls[:] = list(calls), []
    decompose_cycle_rows(database, query, dioid=TROPICAL, threshold=threshold)

    assert {task.bag_layout for task in tasks} == {
        "bag rows (R1 holds a weight of type int)"
    }
    assert all(
        type(w) is int for task in tasks for bag in task.database for w in bag.weights
    )
    assert built and Counter(built) == Counter(calls)


#: Containers a lowered member may hold beside its connectors' lists:
#: per stage its columns, per core the uid-indexed caches and the
#: shell's per-stage tables.  Measured 46 for two stages (CPython 3.11).
CONTAINERS_PER_STAGE = 16
CONTAINERS_PER_CORE = 24


@pytest.mark.parametrize("bags", ["rows", "columns"])
def test_a_lowered_state_keeps_no_tuple_beyond_its_row(monkeypatch, bags):
    """By census, with the collector off: a member's lowering keeps no
    tuple per alive state — its entries are the pool's key, rank and
    state columns — and at most one list per connector; no
    ``ChoiceSet``, no value pair, no dict or list per state.  Over bag
    rows — whose column images the first, warming call makes, so the
    counted one scans them as it scans bag columns, and whose row stores
    are the bags' own lists — and over bag columns, where the member
    holds no bag-row tuple at all: its rows are views over the columns,
    which never materialise."""
    if bags == "rows":
        use_cycle_rows(monkeypatch)
    database = _skewed_cycle_database(["R1", "R2", "R3", "R4"], seed=1503)
    query = cycle_query(4)
    physical = Engine(database).prepare(query, dioid=MAX_TIMES).bind()
    positions = {var: slot for slot, var in enumerate(query.variables)}
    assert len(physical.tdps) > 1
    for task, core in zip(physical.tasks, physical.tdps):
        tree = core.join_tree

        def lower():
            return lower_member(
                task.database, tree, physical.tie, positions, core.lane
            )

        lower()  # warm caches
        gc.collect()
        gc.disable()
        try:
            # Held, so no object freed meanwhile hands its id to a new one.
            baseline = gc.get_objects()
            known = {id(o) for o in baseline}
            known.update((id(known), id(baseline)))
            again = lower()
            fresh = [o for o in gc.get_objects() if id(o) not in known]
            del baseline
        finally:
            gc.enable()
        states = again.stats()["states"]
        slack = CONTAINERS_PER_CORE + CONTAINERS_PER_STAGE * again.num_stages
        assert states > slack
        assert sum(type(o) is tuple for o in fresh) <= slack
        assert sum(type(o) is list for o in fresh) <= again.num_connectors + slack
        assert sum(type(o) is dict for o in fresh) <= slack
        assert not any(type(o) is ChoiceSet for o in fresh)
        if bags == "rows":
            assert task.bag_layout == LAYOUT
            assert not any(type(rows) is ColumnRows for rows in again.tuples)
        else:
            assert task.bag_layout == "bag columns"
            assert not any(relation.is_materialized for relation in task.database)
            assert all(type(rows) is ColumnRows for rows in again.tuples)


@pytest.mark.parametrize("self_join", [False, True])
def test_sqlite_cycle_reads_each_atom_once_and_matches_memory(tmp_path, self_join):
    """One ``SELECT`` per stored relation: four for R1..R4, one for the
    self-join ``E⋈E⋈E⋈E`` — and no ``GROUP BY``: the heavy/light degrees
    are counted over the codes those reads hold."""
    names = ["E"] * 4 if self_join else ["R1", "R2", "R3", "R4"]
    database = _skewed_cycle_database(names, seed=1502)
    query = cycle_query(4, relation="E" if self_join else None)
    backend = SQLiteBackend(str(tmp_path / "cycle.db"))
    for relation in database:
        backend.ingest(relation)
    statements: list[str] = []
    backend.connection.set_trace_callback(statements.append)
    with Engine.from_backend(backend) as engine:  # closes the backend too
        prepared = engine.prepare(query)
        prepared.bind()
        row_scans = [
            sql for sql in statements
            if sql.startswith("SELECT * FROM") and "WHERE" not in sql
        ]
        assert sorted(row_scans) == [
            f'SELECT * FROM "{name}" ORDER BY rowid' for name in dict.fromkeys(names)
        ], row_scans
        assert not [sql for sql in statements if "GROUP BY" in sql.upper()]
        stored = list(itertools.islice(prepared.iter(), 300))
    memory = list(itertools.islice(Engine(database).prepare(query).iter(), 300))
    assert len(memory) == 300
    for got, expected in zip(stored, memory):
        assert repr(got.weight) == repr(expected.weight)
        assert got.assignment == expected.assignment
        assert got.witness_ids == expected.witness_ids
        assert got.witness == expected.witness


# -- key lookups by code ----------------------------------------------------------


def _in_the_lowering(frame) -> bool:
    """Whether ``frame`` or a caller of it runs ``dp/lower.py`` or
    ``rank_tie_domains``."""
    tie_domains = builder_module.rank_tie_domains.__code__
    while frame is not None:
        code = frame.f_code
        if code.co_filename == lower_module.__file__ or code is tie_domains:
            return True
        frame = frame.f_back
    return False


@contextmanager
def numpy_lookups():
    """Count, while the lowering runs (:func:`_in_the_lowering`), the
    calls of ``np.unique`` and of the ``argsort`` / ``searchsorted``
    methods — which ``np.argsort`` and ``np.searchsorted`` call too."""
    counts = Counter(unique=0, searchsorted=0, argsort=0)

    def profile(frame, event, arg):
        if event == "c_call":
            name = getattr(arg, "__name__", None)
            if name in ("argsort", "searchsorted") and _in_the_lowering(frame):
                counts[name] += 1
        elif event == "call":
            code = frame.f_code
            if (
                code.co_name == "unique" and "numpy" in code.co_filename
                and _in_the_lowering(frame.f_back)
            ):
                counts["unique"] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def _path_database(seed: int) -> Database:
    rng = random.Random(seed)
    return Database([
        Relation(
            f"R{i}", 2,
            [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(200)],
            [round(rng.uniform(0.1, 1.0), 3) for _ in range(200)],
        )
        for i in range(1, 5)
    ])


@pytest.mark.parametrize("shape", ["cycle", "path"])
def test_a_dense_code_bind_looks_its_keys_up_by_code(shape):
    """Over dense codes the lowering — the members of a 4-cycle with the
    domains the tie-breaker ranks, or a 4-path — makes no ``np.unique``
    and no ``searchsorted`` call, and exactly one ``argsort`` per stage
    with states: the placement's counting pass.  Connectors are numbered
    first-seen, probes find them and packed ranks are gathered through
    direct-address tables (:class:`~repro.util.vec.KeyIndex`)."""
    if shape == "cycle":
        database = _skewed_cycle_database(["R1", "R2", "R3", "R4"], seed=1504)
        query, dioid = cycle_query(4), MAX_TIMES
    else:
        database, query, dioid = _path_database(1505), path_query(4), TROPICAL
    prepared = Engine(database).prepare(query, dioid=dioid)
    with numpy_lookups() as counts:
        physical = prepared.bind()
    cores = physical.tdps if shape == "cycle" else [physical.tdp]
    assert all(isinstance(core, CompiledTDP) for core in cores)
    assert len(cores) == (1 if shape == "path" else len(physical.tasks)) >= 1
    placed = sum(len(ids) > 0 for core in cores for ids in core.tuple_ids)
    assert placed >= 4
    assert dict(counts) == {"unique": 0, "searchsorted": 0, "argsort": placed}
