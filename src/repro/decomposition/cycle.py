"""The simple-cycle decomposition (Section 5.3.1, Fig 8).

An l-cycle query is split into l+1 database partitions by heavy/light
tuple classification: a tuple of cycle atom ``i`` is *heavy* iff its
entry-attribute value occurs at least ``n^(1/ceil(l/2))`` times in that
column (the paper's ``n^(2/l)`` for even l, balanced for odd l).
Partition ``T_p`` takes atoms before ``p`` light, atom ``p`` heavy, and
the rest unrestricted; ``T_(l+1)`` takes everything light.  Each output
witness falls in exactly one partition (classified by its first heavy
atom), so the union is disjoint.

Heavy partitions use the "fan" tree that breaks the cycle at the heavy
attribute (Fig 8b): bags ``B_j(a_0, a_j, a_j+1)`` sharing the heavy
attribute ``a_0``; the light partition uses the two-bag chain split
(Fig 8c).  All bags materialise in O(n^(2-1/ceil(l/2))) and each
original atom's weight is pinned to exactly one bag.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.base import BagLineage, TreeTask
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import TROPICAL, SelectiveDioid


def detect_simple_cycle(query: ConjunctiveQuery) -> list[tuple[int, str]] | None:
    """Recognise a simple-cycle query, up to attribute orientation.

    Returns ``[(atom_index, entry_variable), ...]`` in cyclic order —
    atom ``i`` of the walk contains ``entry_i`` and ``entry_(i+1)`` —
    or ``None`` if the query is not a simple cycle of length >= 3.
    """
    atoms = query.atoms
    if len(atoms) < 3:
        return None
    var_atoms: dict[str, list[int]] = {}
    for index, atom in enumerate(atoms):
        if atom.arity != 2 or atom.has_repeated_variables():
            return None
        for var in atom.variables:
            var_atoms.setdefault(var, []).append(index)
    if len(var_atoms) != len(atoms):
        return None
    if any(len(holders) != 2 for holders in var_atoms.values()):
        return None
    # Walk the cycle starting from atom 0 entering through its first var.
    walk: list[tuple[int, str]] = []
    current = 0
    entry = atoms[0].variables[0]
    visited: set[int] = set()
    for _ in range(len(atoms)):
        walk.append((current, entry))
        visited.add(current)
        exit_var = next(v for v in atoms[current].variables if v != entry)
        holders = var_atoms[exit_var]
        nxt = holders[0] if holders[1] == current else holders[1]
        if nxt == current:
            return None
        current, entry = nxt, exit_var
    if current != 0 or entry != atoms[0].variables[0]:
        return None
    if len(visited) != len(atoms):
        return None
    return walk


def default_threshold(n: int, length: int) -> int:
    """Heavy/light occurrence threshold ``n^(1/ceil(l/2))`` (>= 2)."""
    return max(2, math.ceil(n ** (1.0 / math.ceil(length / 2))))


class _CycleAtom:
    """One atom of the cycle walk: orientation resolved, rows read once.

    ``full`` holds ``(tuple_id, entry_value, exit_value, weight)`` for
    every stored tuple, from the single scan of the relation that all
    l+1 partitions share — one snapshot of a backend-stored table, one
    statement.  :meth:`split` derives the ``heavy`` / ``light`` sublists
    (in scan order) once the threshold is known.
    """

    __slots__ = ("index", "relation", "entry_pos", "entry_var", "full", "heavy", "light")

    def __init__(self, index: int, relation: Relation, atom: Atom, entry_var: str):
        self.index = index
        self.relation = relation
        self.entry_var = entry_var
        self.entry_pos = entry_pos = atom.variables.index(entry_var)
        exit_pos = 1 - entry_pos
        self.full: list[tuple[int, Any, Any, Any]] = [
            (tuple_id, values[entry_pos], values[exit_pos], weight)
            for tuple_id, (values, weight) in enumerate(relation.rows())
        ]
        self.heavy: list[tuple] = []
        self.light = self.full

    def split(self, threshold: int, indexes=None) -> None:
        """Classify the scanned rows by their entry value's degree.

        With an :class:`~repro.data.index.IndexCache` the degree
        statistics come from :meth:`~repro.data.index.IndexCache.degrees`:
        one count over the entry column for in-memory relations, or a
        server-side ``GROUP BY`` for backend-stored ones, memoised — so
        repeated decompositions of the same database skip the counting
        pass.  Any classification yields a disjoint cover; the
        degrees only carry the size bound.
        """
        if indexes is not None:
            degrees = indexes.degrees(self.relation, (self.entry_pos,))
            heavy_values = {
                key[0] for key, count in degrees.items() if count >= threshold
            }
        else:
            counts = Counter(row[1] for row in self.full)
            heavy_values = {
                value for value, count in counts.items() if count >= threshold
            }
        if heavy_values:
            self.heavy = [row for row in self.full if row[1] in heavy_values]
            self.light = [row for row in self.full if row[1] not in heavy_values]


def _chain_join(
    members: Sequence[list[tuple]], dioid: SelectiveDioid
) -> tuple[list[tuple], list[Any], list[list[int]]]:
    """Join a chain of cycle atoms on exit = next entry.

    ``members[i]`` are ``(tuple_id, entry, exit, weight)`` rows.  Returns
    bag tuples ``(v_0, ..., v_m)``, their aggregated weights (a left
    fold of ``times`` along the chain) and one tuple-id column per
    member.  One hash join per level; the output order is that of the
    nested loops (member 0 outermost, index buckets in scan order).
    """
    times = dioid.times
    tuples = [(row[1], row[2]) for row in members[0]]
    weights = [row[3] for row in members[0]]
    id_columns = [[row[0] for row in members[0]]]
    for rows in members[1:]:
        by_entry: dict = {}
        for row in rows:
            by_entry.setdefault(row[1], []).append(row)
        extended: list[int] = []
        next_tuples: list[tuple] = []
        next_weights: list[Any] = []
        next_ids: list[int] = []
        for position, prefix in enumerate(tuples):
            matches = by_entry.get(prefix[-1])
            if matches is None:
                continue
            weight = weights[position]
            for tuple_id, _entry, exit_value, row_weight in matches:
                extended.append(position)
                next_tuples.append(prefix + (exit_value,))
                next_weights.append(times(weight, row_weight))
                next_ids.append(tuple_id)
        id_columns = [
            [column[position] for position in extended] for column in id_columns
        ]
        id_columns.append(next_ids)
        tuples, weights = next_tuples, next_weights
    return tuples, weights, id_columns


def decompose_cycle(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    threshold: int | None = None,
    indexes=None,
    walk: list[tuple[int, str]] | None = None,
) -> list[TreeTask]:
    """Decompose a simple-cycle query into l heavy trees + 1 light tree.

    Raises ``ValueError`` if the query is not a simple cycle.  Member
    outputs are disjoint; empty members are dropped.  ``indexes`` is an
    optional :class:`~repro.data.index.IndexCache` for the heavy/light
    degree statistics, and ``walk`` a precomputed
    :func:`detect_simple_cycle` result (the planning layer passes the
    one it stored on the logical plan, skipping re-detection on rebind).
    Every cycle atom's relation is read exactly once.
    """
    if walk is None:
        walk = detect_simple_cycle(query)
    if walk is None:
        raise ValueError(f"{query!r} is not a simple cycle")
    length = len(walk)
    cycle_atoms = [
        _CycleAtom(index, database[query.atoms[index].relation_name],
                   query.atoms[index], entry_var)
        for index, entry_var in walk
    ]
    if threshold is None:
        n = max(len(ca.full) for ca in cycle_atoms)
        threshold = default_threshold(n, length)
    for ca in cycle_atoms:
        ca.split(threshold, indexes)

    tasks: list[TreeTask] = []
    for pivot in range(length):
        # No heavy entry value at the pivot: T_pivot is empty.
        if cycle_atoms[pivot].heavy:
            task = _heavy_partition(query, cycle_atoms, pivot, dioid)
            if task is not None:
                tasks.append(task)
    light = _light_partition(query, cycle_atoms, dioid)
    if light is not None:
        tasks.append(light)
    return tasks


def _heavy_partition(
    query: ConjunctiveQuery,
    cycle_atoms: list[_CycleAtom],
    pivot: int,
    dioid: SelectiveDioid,
) -> TreeTask | None:
    """Partition T_pivot: the fan decomposition broken at atom ``pivot``."""
    length = len(cycle_atoms)
    times = dioid.times
    # Q_k = cycle atom at walk position (pivot + k) mod length, with its
    # restriction — light before the pivot, heavy at it, unrestricted
    # after; a_k = Q_k's entry variable.
    rotated: list[_CycleAtom] = []
    rows: list[list[tuple]] = []
    for k in range(length):
        position = (pivot + k) % length
        ca = cycle_atoms[position]
        rotated.append(ca)
        rows.append(
            ca.light if position < pivot
            else ca.heavy if position == pivot
            else ca.full
        )
    if any(not r for r in rows):
        return None
    heavy_entry_values = sorted({row[1] for row in rows[0]})
    heavy_entry_set = set(heavy_entry_values)
    variables = [ca.entry_var for ca in rotated]

    # Q_0H indexed by exit value: exit -> [(heavy entry, tuple_id, weight)].
    # Joining Q_1 against this index is output-driven and stays within
    # the paper's #heavy * n bound (a Q_1 tuple matches at most one Q_0H
    # tuple per distinct heavy value).
    q0_by_exit: dict = {}
    for tuple_id, entry, exit_value, weight in rows[0]:
        q0_by_exit.setdefault(exit_value, []).append((entry, tuple_id, weight))

    prefix = f"T{pivot}"
    bag_relations: list[Relation] = []
    bag_atoms: list[Atom] = []
    lineage: dict[str, BagLineage] = {}

    def add_bag(j: int, vars_: tuple[str, ...], tuples, weights, pinned, id_columns) -> bool:
        if not tuples:
            return False
        name = f"{prefix}_B{j}"
        bag_relations.append(Relation(name, len(vars_), tuples, weights))
        bag_atoms.append(Atom(name, vars_))
        # Per-tuple pairs are listed in atom order.
        by_atom = sorted(zip((rotated[k].index for k in pinned), id_columns))
        lineage[name] = BagLineage(*zip(*by_atom))
        return True

    empty: list = []
    if length == 3:
        q2_pairs: dict[tuple, list[tuple]] = {}
        for tuple_id, entry, exit_value, weight in rows[2]:
            q2_pairs.setdefault((entry, exit_value), []).append((tuple_id, weight))
        tuples, weights = [], []
        ids0, ids1, ids2 = [], [], []
        for tuple_id1, v1, v2, w1 in rows[1]:
            for v0, tuple_id0, w0 in q0_by_exit.get(v1, empty):
                for tuple_id2, w2 in q2_pairs.get((v2, v0), empty):
                    tuples.append((v0, v1, v2))
                    weights.append(times(times(w0, w1), w2))
                    ids0.append(tuple_id0)
                    ids1.append(tuple_id1)
                    ids2.append(tuple_id2)
        if not add_bag(1, (variables[0], variables[1], variables[2]),
                       tuples, weights, (0, 1, 2), (ids0, ids1, ids2)):
            return None
    else:
        # B_1(a_0, a_1, a_2) = Q_0H joined with Q_1 on a_1.
        tuples, weights = [], []
        ids0, ids1 = [], []
        for tuple_id1, v1, v2, w1 in rows[1]:
            for v0, tuple_id0, w0 in q0_by_exit.get(v1, empty):
                tuples.append((v0, v1, v2))
                weights.append(times(w0, w1))
                ids0.append(tuple_id0)
                ids1.append(tuple_id1)
        if not add_bag(1, (variables[0], variables[1], variables[2]),
                       tuples, weights, (0, 1), (ids0, ids1)):
            return None
        # Middle bags B_j(a_0, a_j, a_j+1) = heavy values x Q_j.
        for j in range(2, length - 2):
            tuples = [
                (v0, u, u2)
                for (_tid, u, u2, _w) in rows[j]
                for v0 in heavy_entry_values
            ]
            weights = [
                w for (_tid, _u, _u2, w) in rows[j] for _v0 in heavy_entry_values
            ]
            ids = [
                tid for (tid, _u, _u2, _w) in rows[j] for _v0 in heavy_entry_values
            ]
            if not add_bag(j, (variables[0], variables[j], variables[j + 1]),
                           tuples, weights, (j,), (ids,)):
                return None
        # Last bag B_(l-2)(a_0, a_(l-2), a_(l-1)) joins Q_(l-2) with the
        # Q_(l-1) tuples that close the cycle on a heavy a_0 value.
        j = length - 2
        qlast_by_entry: dict = {}
        for tuple_id, entry, exit_value, weight in rows[length - 1]:
            if exit_value in heavy_entry_set:
                qlast_by_entry.setdefault(entry, []).append(
                    (exit_value, tuple_id, weight)
                )
        tuples, weights = [], []
        ids_a, ids_b = [], []
        for tuple_id_a, u, u2, w_a in rows[j]:
            for v0, tuple_id_b, w_b in qlast_by_entry.get(u2, empty):
                tuples.append((v0, u, u2))
                weights.append(times(w_a, w_b))
                ids_a.append(tuple_id_a)
                ids_b.append(tuple_id_b)
        if not add_bag(j, (variables[0], variables[j], variables[(j + 1) % length]),
                       tuples, weights, (j, length - 1), (ids_a, ids_b)):
            return None

    bag_query = ConjunctiveQuery(
        head=query.head, atoms=bag_atoms, name=f"{query.name}_{prefix}"
    )
    return TreeTask(
        database=Database(bag_relations),
        query=bag_query,
        lineage=lineage,
        label=f"heavy@{variables[0]}",
    )


def _light_partition(
    query: ConjunctiveQuery,
    cycle_atoms: list[_CycleAtom],
    dioid: SelectiveDioid,
) -> TreeTask | None:
    """Partition T_(l+1): the two-chain all-light decomposition (Fig 8c)."""
    length = len(cycle_atoms)
    split = math.ceil(length / 2)
    if any(not ca.light for ca in cycle_atoms):
        return None
    variables = [ca.entry_var for ca in cycle_atoms]

    relations: list[Relation] = []
    atoms: list[Atom] = []
    lineage: dict[str, BagLineage] = {}
    chains = (
        ("TL_C1", cycle_atoms[:split], variables[: split + 1]),
        ("TL_C2", cycle_atoms[split:], variables[split:] + [variables[0]]),
    )
    for name, members, vars_ in chains:
        tuples, weights, id_columns = _chain_join(
            [ca.light for ca in members], dioid
        )
        if not tuples:
            return None
        relations.append(Relation(name, len(vars_), tuples, weights))
        atoms.append(Atom(name, vars_))
        # Pairs listed in walk order, as the chain visits the atoms.
        lineage[name] = BagLineage([ca.index for ca in members], id_columns)

    bag_query = ConjunctiveQuery(
        head=query.head, atoms=atoms, name=f"{query.name}_TL"
    )
    return TreeTask(
        database=Database(relations),
        query=bag_query,
        lineage=lineage,
        label="all-light",
    )
