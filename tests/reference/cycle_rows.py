"""The simple-cycle decomposition over bag rows: the oracle of the columns.

:func:`repro.decomposition.cycle.decompose_cycle` builds every bag from
int64 code columns.  This module is the same decomposition written with
Python tuples and dict joins: one tuple and one ``times`` call per bag
row, values compared by ``==``.  The column builder must equal it bag
for bag — values with their types, weights in bits, lineage — for any
relation contents (``tests/test_cycle_columns.py``).

:func:`decompose_cycle_rows` takes the arguments of ``decompose_cycle``;
:func:`use_cycle_rows` makes the engine bind cycles through it.
"""

from __future__ import annotations

import importlib
import math
from collections import Counter

from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.base import BagLineage, TreeTask
from repro.decomposition.cycle import (
    _restricted,
    cycle_relations,
    default_threshold,
    detect_simple_cycle,
)
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import TROPICAL, SelectiveDioid, ranking_order

#: Every member's ``bag_layout``.
LAYOUT = "bag rows (reference)"


class _CycleAtom:
    """One atom of the walk over its relation's one scan: rows
    ``(tuple_id, entry_value, exit_value, weight)``, split by degree."""

    def __init__(self, index: int, atom: Atom, entry_var: str, scan):
        self.index = index
        self.entry_var = entry_var
        self.entry_pos = entry_pos = atom.variables.index(entry_var)
        self.full = [
            (tuple_id, values[entry_pos], values[1 - entry_pos], weight)
            for tuple_id, (values, weight) in enumerate(scan)
        ]
        self.heavy: list = []
        self.light = self.full

    def split(self, threshold: int) -> None:
        counts = Counter(row[1] for row in self.full)
        heavy_values = {value for value, count in counts.items() if count >= threshold}
        if heavy_values:
            self.heavy = [row for row in self.full if row[1] in heavy_values]
            self.light = [row for row in self.full if row[1] not in heavy_values]


def _chain_join(members, times):
    """Join a chain of atoms on exit = next entry: bag tuples, the left
    fold of ``times`` along the chain, one tuple-id column per member, in
    nested-loop order (member 0 outermost, buckets in scan order)."""
    tuples = [(row[1], row[2]) for row in members[0]]
    weights = [row[3] for row in members[0]]
    id_columns = [[row[0] for row in members[0]]]
    for rows in members[1:]:
        by_entry: dict = {}
        for row in rows:
            by_entry.setdefault(row[1], []).append(row)
        extended, next_tuples, next_weights, next_ids = [], [], [], []
        for position, prefix in enumerate(tuples):
            for tuple_id, _entry, exit_value, row_weight in by_entry.get(prefix[-1], ()):
                extended.append(position)
                next_tuples.append(prefix + (exit_value,))
                next_weights.append(times(weights[position], row_weight))
                next_ids.append(tuple_id)
        id_columns = [[column[p] for p in extended] for column in id_columns]
        id_columns.append(next_ids)
        tuples, weights = next_tuples, next_weights
    return tuples, weights, id_columns


class _Bags:
    def __init__(self, rotated):
        self.rotated = rotated
        self.relations: list[Relation] = []
        self.atoms: list[Atom] = []
        self.lineage: dict[str, BagLineage] = {}

    def add(self, name, vars_, tuples, weights, pinned, id_columns, by_atom=True) -> bool:
        if not tuples:
            return False
        self.relations.append(Relation(name, len(vars_), tuples, weights))
        self.atoms.append(Atom(name, tuple(vars_)))
        pairs = list(zip([self.rotated[k].index for k in pinned], id_columns))
        if by_atom:
            pairs.sort(key=lambda pair: pair[0])
        self.lineage[name] = BagLineage(*zip(*pairs))
        return True

    def task(self, query, suffix: str, label: str) -> TreeTask:
        return TreeTask(
            database=Database(self.relations),
            query=ConjunctiveQuery(
                head=query.head, atoms=self.atoms, name=f"{query.name}_{suffix}"
            ),
            lineage=self.lineage,
            label=label,
            bag_layout=LAYOUT,
        )


def _heavy_partition(query, cycle_atoms, pivot: int, times) -> TreeTask | None:
    """Partition T_pivot: the fan broken at atom ``pivot``."""
    length = len(cycle_atoms)
    rotated, rows = _restricted(cycle_atoms, pivot)
    if any(not r for r in rows):
        return None
    heavy_values = ranking_order(row[1] for row in rows[0])
    heavy_set = set(heavy_values)
    variables = [ca.entry_var for ca in rotated]
    prefix = f"T{pivot}"
    bags = _Bags(rotated)
    q0_by_exit: dict = {}
    for tuple_id, entry, exit_value, weight in rows[0]:
        q0_by_exit.setdefault(exit_value, []).append((entry, tuple_id, weight))

    if length == 3:
        q2_pairs: dict = {}
        for tuple_id, entry, exit_value, weight in rows[2]:
            q2_pairs.setdefault((entry, exit_value), []).append((tuple_id, weight))
        tuples, weights, ids = [], [], ([], [], [])
        for tuple_id1, v1, v2, w1 in rows[1]:
            for v0, tuple_id0, w0 in q0_by_exit.get(v1, ()):
                for tuple_id2, w2 in q2_pairs.get((v2, v0), ()):
                    tuples.append((v0, v1, v2))
                    weights.append(times(times(w0, w1), w2))
                    for column, tuple_id in zip(ids, (tuple_id0, tuple_id1, tuple_id2)):
                        column.append(tuple_id)
        if not bags.add(f"{prefix}_B1", variables, tuples, weights, (0, 1, 2), ids):
            return None
        return bags.task(query, prefix, f"heavy@{variables[0]}")

    # B_1(a_0, a_1, a_2) = Q_0H joined with Q_1 on a_1.
    tuples, weights, ids = [], [], ([], [])
    for tuple_id1, v1, v2, w1 in rows[1]:
        for v0, tuple_id0, w0 in q0_by_exit.get(v1, ()):
            tuples.append((v0, v1, v2))
            weights.append(times(w0, w1))
            ids[0].append(tuple_id0)
            ids[1].append(tuple_id1)
    if not bags.add(f"{prefix}_B1", variables[:3], tuples, weights, (0, 1), ids):
        return None
    # Middle bags B_j(a_0, a_j, a_j+1) = heavy values x Q_j.
    for j in range(2, length - 2):
        product = [(row, v0) for row in rows[j] for v0 in heavy_values]
        if not bags.add(
            f"{prefix}_B{j}", (variables[0], variables[j], variables[j + 1]),
            [(v0, row[1], row[2]) for row, v0 in product],
            [row[3] for row, _v0 in product], (j,), ([row[0] for row, _v0 in product],),
        ):
            return None
    # Last bag: Q_(l-2) with the Q_(l-1) tuples closing on a heavy a_0.
    j = length - 2
    last_by_entry: dict = {}
    for tuple_id, entry, exit_value, weight in rows[length - 1]:
        if exit_value in heavy_set:
            last_by_entry.setdefault(entry, []).append((exit_value, tuple_id, weight))
    tuples, weights, ids = [], [], ([], [])
    for tuple_id_a, u, u2, w_a in rows[j]:
        for v0, tuple_id_b, w_b in last_by_entry.get(u2, ()):
            tuples.append((v0, u, u2))
            weights.append(times(w_a, w_b))
            ids[0].append(tuple_id_a)
            ids[1].append(tuple_id_b)
    if not bags.add(
        f"{prefix}_B{j}", (variables[0], variables[j], variables[j + 1]),
        tuples, weights, (j, length - 1), ids,
    ):
        return None
    return bags.task(query, prefix, f"heavy@{variables[0]}")


def _light_partition(query, cycle_atoms, times) -> TreeTask | None:
    """Partition T_(l+1): the two all-light chains (Fig 8c)."""
    length = len(cycle_atoms)
    split = math.ceil(length / 2)
    if any(not ca.light for ca in cycle_atoms):
        return None
    variables = [ca.entry_var for ca in cycle_atoms]
    bags = _Bags(cycle_atoms)
    chains = (
        ("TL_C1", range(split), variables[: split + 1]),
        ("TL_C2", range(split, length), variables[split:] + [variables[0]]),
    )
    for name, members, vars_ in chains:
        tuples, weights, id_columns = _chain_join(
            [cycle_atoms[k].light for k in members], times
        )
        if not bags.add(name, vars_, tuples, weights, members, id_columns, by_atom=False):
            return None
    return bags.task(query, "TL", "all-light")


def decompose_cycle_rows(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    threshold: int | None = None,
    walk=None,
) -> list[TreeTask]:
    """``decompose_cycle`` over bag rows: l heavy fans and the light chains."""
    if walk is None:
        walk = detect_simple_cycle(query)
    if walk is None:
        raise ValueError(f"{query!r} is not a simple cycle")
    scans = {
        name: list(database[name].rows()) for name in cycle_relations(query, walk)
    }
    cycle_atoms = [
        _CycleAtom(
            index, query.atoms[index], entry_var,
            scans[query.atoms[index].relation_name],
        )
        for index, entry_var in walk
    ]
    if threshold is None:
        threshold = default_threshold(max(len(ca.full) for ca in cycle_atoms), len(walk))
    for ca in cycle_atoms:
        ca.split(threshold)
    tasks = [
        _heavy_partition(query, cycle_atoms, pivot, dioid.times)
        for pivot in range(len(walk))
        if cycle_atoms[pivot].heavy
    ]
    tasks.append(_light_partition(query, cycle_atoms, dioid.times))
    return [task for task in tasks if task is not None]


def use_cycle_rows(patch) -> None:
    """Have the engine bind simple cycles through :func:`decompose_cycle_rows`
    (``patch`` is a ``pytest.MonkeyPatch``)."""
    patch.setattr(
        importlib.import_module("repro.engine.plan"), "decompose_cycle",
        decompose_cycle_rows,
    )
