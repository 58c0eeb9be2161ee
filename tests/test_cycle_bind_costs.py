"""What a cyclic bind is allowed to cost, in counts a machine cannot blur.

ISSUE 15 took the simple-cycle bind from "about twelve containers and
three dioid merges per bag tuple" to one scan per cycle atom, one lift
per alive state and one id-vector merge per child branch.  Wall clock
cannot guard that on a shared CI box; these counts can: a re-introduced
rescan, a second lift or a merge against ``one`` changes an integer.
"""

from __future__ import annotations

import importlib
import itertools
import random

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine
from repro.query.builders import cycle_query
from repro.ranking.dioid import MaxTimesDioid, TieBreakingDioid

# ``repro.engine.plan`` the attribute is the ``plan()`` function.
plan_module = importlib.import_module("repro.engine.plan")


class CountingRelation(Relation):
    """A relation that counts how often its rows are read in full."""

    __slots__ = ("scans",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scans = 0

    def rows(self):
        self.scans += 1
        return super().rows()


class CountingMaxTimes(MaxTimesDioid):
    def __init__(self):
        self.times_calls = 0

    def times(self, a, b):
        self.times_calls += 1
        return super().times(a, b)


class CountingTie(TieBreakingDioid):
    """Counts ``times`` calls, and those that had two id vectors to merge."""

    instances: list["CountingTie"] = []

    def __init__(self, base, num_variables):
        super().__init__(base, num_variables)
        self.times_calls = 0
        self.merges = 0
        CountingTie.instances.append(self)

    def times(self, a, b):
        self.times_calls += 1
        unbound = self.one[1]
        if a[1] != unbound and b[1] != unbound:
            self.merges += 1
        return super().times(a, b)


def _skewed_cycle_database(relation_names: list[str], seed: int) -> Database:
    """Hub values make heavy partitions non-empty; the rest stays light."""
    rng = random.Random(seed)
    relations = []
    for name in dict.fromkeys(relation_names):
        tuples = [
            (rng.randint(1, 2) if j % 4 == 0 else rng.randint(3, 14),
             rng.randint(1, 14))
            for j in range(80)
        ]
        weights = [round(rng.uniform(0.1, 1.0), 3) for _ in tuples]
        relations.append(CountingRelation(name, 2, tuples, weights))
    return Database(relations)


@pytest.fixture
def counted(monkeypatch):
    """Route the union bind through the counting dioid and lift."""
    CountingTie.instances = []
    lifts = {"calls": 0}
    real_make_tie_lift = plan_module.make_tie_lift

    def counting_make_tie_lift(tie, var_position):
        lift = real_make_tie_lift(tie, var_position)

        def counted_lift(atom, values, raw_weight):
            lifts["calls"] += 1
            return lift(atom, values, raw_weight)

        return counted_lift

    monkeypatch.setattr(plan_module, "TieBreakingDioid", CountingTie)
    monkeypatch.setattr(plan_module, "make_tie_lift", counting_make_tie_lift)
    return lifts


@pytest.mark.parametrize("self_join", [False, True])
def test_four_cycle_bind_op_counts(counted, self_join):
    names = ["E"] * 4 if self_join else ["R1", "R2", "R3", "R4"]
    database = _skewed_cycle_database(names, seed=1501)
    query = cycle_query(4, relation="E" if self_join else None)
    base = CountingMaxTimes()

    physical = Engine(database).prepare(query, dioid=base).bind()

    # One full read per cycle atom — the l+1 partitions share it.
    assert sum(relation.scans for relation in database) == 4
    assert {relation.scans for relation in database} == ({4} if self_join else {1})

    labels = [task.label for task in physical.tasks]
    assert "all-light" in labels and len(labels) > 1, labels
    (tie,) = CountingTie.instances
    bag_tuples = alive = calls = merges = join_products = 0
    for task, tdp in zip(physical.tasks, physical.tdps):
        for name, bag in task.database.relations.items():
            bag_tuples += len(bag)
            # A bag pinning p atoms folds p - 1 base products per tuple.
            join_products += len(bag) * (len(task.lineage[name].atoms) - 1)
        calls += len(tdp.root_stages)  # best weight through each root
        for stage, children in enumerate(tdp.children_stages):
            # With at most one child branch a dead state dies on its
            # first lookup, before any product: the counts below are exact.
            assert len(children) <= 1
            states = len(tdp.tuples[stage])
            alive += states
            # Per alive state: pi1 folds one product per child branch,
            # the connector entry one more ...
            calls += states * (len(children) + 1)
            # ... of which only the entry of a non-leaf state, and the
            # branches after the first, have two id vectors to merge.
            merges += states * len(children)
    assert alive > 0 and merges > 0
    assert counted["calls"] == alive <= bag_tuples, "one lift per alive state"
    assert tie.times_calls == calls
    assert tie.merges == merges
    # The base dioid sees the tie-breaking calls plus the bag joins.
    assert base.times_calls == calls + join_products


def test_sqlite_cycle_reads_each_atom_once_and_matches_memory(tmp_path):
    database = _skewed_cycle_database(["R1", "R2", "R3", "R4"], seed=1502)
    query = cycle_query(4)
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
            f'SELECT * FROM "R{i}" ORDER BY rowid' for i in range(1, 5)
        ], row_scans
        stored = list(itertools.islice(prepared.iter(), 300))
    memory = list(itertools.islice(Engine(database).prepare(query).iter(), 300))
    assert len(memory) == 300
    for got, expected in zip(stored, memory):
        assert repr(got.weight) == repr(expected.weight)
        assert got.assignment == expected.assignment
        assert got.witness_ids == expected.witness_ids
        assert got.witness == expected.witness
