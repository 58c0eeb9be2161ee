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

**One scan per relation, two ways to join it.**  Each distinct relation
of the cycle is read once (a self-join ``E⋈E⋈E⋈E`` reads ``E`` once;
stored in a backend, one ``SELECT``) and every atom orients that scan.
Where the dioid has a lane (:func:`~repro.ranking.dioid.lane_of`) and
the relations hold ``int`` values and ``float`` weights, the bags are
built as **columns**: each relation becomes an int64 value table and a
float64 weight column, heavy and light are split by one mask, and every
join — the light chains and the heavy fan's bags — is
one :func:`~repro.util.vec.gather` (sort, ``searchsorted``, ``repeat``)
whose weights are the lane's ``*`` or ``+`` of the same two floats in
the same order as ``times`` on the row path.  A bag is then a
column-backed :class:`~repro.data.relation.Relation` (its ``tuples``
made only if something reads them) with its lineage id columns, and
:mod:`repro.dp.lower` scans it as columns.  Everything else — a value
that is not an ``int``, a weight that is not a ``float``, a dioid
without a lane — builds **rows**: one Python tuple and one ``times`` per
bag row, the reference the columns equal tuple for tuple and bit for bit
(``tests/test_cycle_columns.py``).
Each task's ``bag_layout`` says which, and why not columns.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.base import BagLineage, TreeTask
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import TROPICAL, SelectiveDioid, lane_of, ranking_order
from repro.util import vec


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


class _Columns:
    """Rows of one cycle atom as aligned columns: tuple ids, entry and
    exit values (int64) and weights (float64)."""

    __slots__ = ("ids", "entry", "exit", "weight")

    def __init__(self, ids, entry, exit, weight):
        self.ids, self.entry, self.exit, self.weight = ids, entry, exit, weight

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, where) -> "_Columns":
        """The rows ``where`` (a mask or positions) selects, in scan order."""
        return _Columns(
            self.ids[where], self.entry[where], self.exit[where], self.weight[where]
        )


class _CycleAtom:
    """One atom of the cycle walk: orientation resolved over one scan.

    ``full`` holds every stored tuple of the atom's relation, read by
    the single scan that all l+1 partitions — and every other atom over
    the same relation — share: one snapshot of a backend-stored table,
    one statement (``scan``, from :func:`_read_scans`).  On the row path
    it is a list of ``(tuple_id, entry_value, exit_value, weight)``; on
    the column path a :class:`_Columns`.  :meth:`split` derives the
    ``heavy`` / ``light`` subsets (in scan order) once the threshold is
    known.
    """

    __slots__ = ("index", "relation", "entry_pos", "entry_var", "full", "heavy", "light")

    def __init__(
        self, index: int, relation: Relation, atom: Atom, entry_var: str, scan
    ):
        self.index = index
        self.relation = relation
        self.entry_var = entry_var
        self.entry_pos = entry_pos = atom.variables.index(entry_var)
        exit_pos = 1 - entry_pos
        if isinstance(scan, tuple):
            table, weights = scan
            self.full = _Columns(
                np.arange(len(weights)), table[:, entry_pos],
                table[:, exit_pos], weights,
            )
            self.heavy = self.full.take(slice(0, 0))
        else:
            self.full = [
                (tuple_id, values[entry_pos], values[exit_pos], weight)
                for tuple_id, (values, weight) in enumerate(
                    scan() if callable(scan) else scan
                )
            ]
            self.heavy = []
        self.light = self.full

    def split(self, threshold: int, indexes=None) -> None:
        """Classify the scanned rows by their entry value's degree.

        With an :class:`~repro.data.index.IndexCache` the degree
        statistics come from :meth:`~repro.data.index.IndexCache.degrees`:
        one count over the entry column for in-memory relations, or a
        server-side ``GROUP BY`` for backend-stored ones, memoised — so
        repeated decompositions of the same database skip the counting
        pass.  Any classification yields a disjoint cover; the
        degrees only carry the size bound.  Columns split by one mask.
        """
        columns = isinstance(self.full, _Columns)
        if indexes is not None:
            degrees = indexes.degrees(self.relation, (self.entry_pos,))
            heavy_values = [
                key[0] for key, count in degrees.items() if count >= threshold
            ]
        elif columns:
            values, counts = np.unique(self.full.entry, return_counts=True)
            heavy_values = values[counts >= threshold]
        else:
            counts = Counter(row[1] for row in self.full)
            heavy_values = [
                value for value, count in counts.items() if count >= threshold
            ]
        if not len(heavy_values):
            return
        if columns:
            heavy = np.isin(self.full.entry, heavy_values)
            self.heavy = self.full.take(heavy)
            self.light = self.full.take(~heavy)
        else:
            heavy_values = set(heavy_values)
            self.heavy = [row for row in self.full if row[1] in heavy_values]
            self.light = [row for row in self.full if row[1] not in heavy_values]


def _scan_columns(relation: Relation, scan: list) -> tuple | str:
    """``relation``'s one scan as an ``(n, 2)`` int64 value table and a
    float64 weight column, or why it stays rows (a value that is not an
    ``int``, a weight that is not a ``float``, a value past int64)."""
    values, weights = zip(*scan) if scan else ((), ())
    for kind, wanted, items in (
        ("value", int, chain.from_iterable(values)), ("weight", float, weights),
    ):
        other = next((t for t in set(map(type, items)) if t is not wanted), None)
        if other is not None:
            return f"{relation.name} holds a {kind} of type {other.__name__}"
    try:
        table = np.array(values, np.int64).reshape(len(values), 2)
    except OverflowError:
        return f"{relation.name} holds a value past int64"
    return table, np.array(weights, np.float64)


def cycle_relations(query: ConjunctiveQuery, walk) -> list[str]:
    """The distinct relations of a cycle walk, in walk order: what the
    decomposition scans, once each."""
    return list(dict.fromkeys(query.atoms[index].relation_name for index, _ in walk))


def _read_scans(
    database: Database, query: ConjunctiveQuery, walk, dioid: SelectiveDioid
) -> tuple[dict, str | None]:
    """One scan per distinct relation of the cycle, oriented later per atom.

    Returns ``(scans, why)``.  On the column path ``why`` is ``None`` and
    ``scans`` maps a relation name to its :func:`_scan_columns` pair.
    Else ``why`` is the reason the bags stay rows and a name maps to its
    ``(values, weight)`` rows: a list where several atoms share them, else
    the relation's ``rows`` method, which the one atom streams when it
    is built.  Without a lane the path is known before anything is read.
    """
    names = cycle_relations(query, walk)
    why = lane_of(dioid)[1] or None
    if why is not None:
        atoms = Counter(query.atoms[index].relation_name for index, _entry in walk)
        return {
            name: list(database[name].rows()) if atoms[name] > 1
            else database[name].rows
            for name in names
        }, why
    scans = {name: list(database[name].rows()) for name in names}
    columns = {}
    for name, scan in scans.items():
        read = _scan_columns(database[name], scan)
        if isinstance(read, str):
            return scans, read
        columns[name] = read
    return columns, None


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


def _chain_join_columns(members: Sequence[_Columns], multiply: bool):
    """:func:`_chain_join` on columns, one :func:`~repro.util.vec.gather`
    per level: the same rows in the same order, each weight the lane's
    ``*`` or ``+`` of the same two floats in the same order.  Returns
    ``(value_columns, weights, id_columns)``."""
    first = members[0]
    values = [first.entry, first.exit]
    weights = first.weight
    id_columns = [first.ids]
    for rows in members[1:]:
        left, right = vec.gather(values[-1], rows.entry)
        values = [column[left] for column in values]
        values.append(rows.exit[right])
        weights = _times(weights[left], rows.weight[right], multiply)
        id_columns = [column[left] for column in id_columns]
        id_columns.append(rows.ids[right])
    return values, weights, id_columns


def _times(a, b, multiply: bool):
    """The lane's ``times`` over two float64 columns (NaN and overflow
    arise silently, as they do on Python floats)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return a * b if multiply else a + b


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
    Every distinct relation of the cycle is read exactly once, however
    many atoms it serves.

    The bags are built as columns (column-backed relations) where
    ``dioid`` has a lane and the relations hold ``int`` values and
    ``float`` weights; else as rows.  Either way they hold
    the same tuples, weight bits and lineage; each task's
    ``bag_layout`` says which, and why not columns.
    """
    if walk is None:
        walk = detect_simple_cycle(query)
    if walk is None:
        raise ValueError(f"{query!r} is not a simple cycle")
    length = len(walk)
    scans, why = _read_scans(database, query, walk, dioid)
    cycle_atoms = [
        _CycleAtom(index, database[query.atoms[index].relation_name],
                   query.atoms[index], entry_var,
                   scans[query.atoms[index].relation_name])
        for index, entry_var in walk
    ]
    if threshold is None:
        n = max(len(ca.full) for ca in cycle_atoms)
        threshold = default_threshold(n, length)
    for ca in cycle_atoms:
        ca.split(threshold, indexes)

    if why is None:
        multiply = lane_of(dioid)[0].multiply
        heavy_partition = partial(_heavy_partition_columns, multiply=multiply)
        light_partition = partial(_light_partition_columns, multiply=multiply)
        layout = "bag columns"
    else:
        heavy_partition = partial(_heavy_partition, dioid=dioid)
        light_partition = partial(_light_partition, dioid=dioid)
        layout = f"bag rows ({why})"
    tasks: list[TreeTask] = []
    for pivot in range(length):
        # No heavy entry value at the pivot: T_pivot is empty.
        if cycle_atoms[pivot].heavy:
            task = heavy_partition(query, cycle_atoms, pivot)
            if task is not None:
                tasks.append(task)
    light = light_partition(query, cycle_atoms)
    if light is not None:
        tasks.append(light)
    for task in tasks:
        task.bag_layout = layout
    return tasks


def _restricted(cycle_atoms: list[_CycleAtom], pivot: int):
    """``(rotated, rows)`` of partition T_pivot.

    Q_k = cycle atom at walk position (pivot + k) mod length, with its
    restriction — light before the pivot, heavy at it, unrestricted
    after; a_k = Q_k's entry variable.
    """
    length = len(cycle_atoms)
    rotated: list[_CycleAtom] = []
    rows: list = []
    for k in range(length):
        position = (pivot + k) % length
        ca = cycle_atoms[position]
        rotated.append(ca)
        rows.append(
            ca.light if position < pivot
            else ca.heavy if position == pivot
            else ca.full
        )
    return rotated, rows


def _heavy_partition(
    query: ConjunctiveQuery,
    cycle_atoms: list[_CycleAtom],
    pivot: int,
    dioid: SelectiveDioid,
) -> TreeTask | None:
    """Partition T_pivot: the fan decomposition broken at atom ``pivot``."""
    length = len(cycle_atoms)
    times = dioid.times
    rotated, rows = _restricted(cycle_atoms, pivot)
    if any(not r for r in rows):
        return None
    heavy_entry_values = ranking_order(row[1] for row in rows[0])
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


# -- the column path -------------------------------------------------------------


class _ColumnBags:
    """The bags of one column-path member, filed as column-backed
    relations with their lineage id columns (int64 arrays)."""

    def __init__(self, rotated: list[_CycleAtom]):
        self.rotated = rotated
        self.relations: list[Relation] = []
        self.atoms: list[Atom] = []
        self.lineage: dict[str, BagLineage] = {}

    def add(
        self, name: str, vars_, values, weights, pinned, id_columns, by_atom=True
    ) -> bool:
        """File bag ``name``; ``False`` when it is empty (so is the member).
        ``pinned`` are the positions (into ``rotated``) of the atoms whose
        ids ``id_columns`` hold; lineage lists them in atom order, or as
        given (``by_atom=False``: a chain's walk order)."""
        if not len(weights):
            return False
        self.relations.append(Relation.from_columns(name, values, weights))
        self.atoms.append(Atom(name, tuple(vars_)))
        pairs = zip([self.rotated[k].index for k in pinned], id_columns)
        if by_atom:
            pairs = sorted(pairs, key=itemgetter(0))
        self.lineage[name] = BagLineage(*zip(*pairs))
        return True

    def task(self, query: ConjunctiveQuery, suffix: str, label: str) -> TreeTask:
        return TreeTask(
            database=Database(self.relations),
            query=ConjunctiveQuery(
                head=query.head, atoms=self.atoms, name=f"{query.name}_{suffix}"
            ),
            lineage=self.lineage,
            label=label,
        )


def _heavy_partition_columns(
    query: ConjunctiveQuery,
    cycle_atoms: list[_CycleAtom],
    pivot: int,
    multiply: bool,
) -> TreeTask | None:
    """:func:`_heavy_partition` on columns: the same bags, row for row.

    Every bag is a :func:`~repro.util.vec.gather` (probe rows in scan
    order, matches in scan order: the row path's loop nest) or, for the
    middle bags, a ``repeat`` / ``tile`` against the sorted heavy values.
    """
    length = len(cycle_atoms)
    rotated, rows = _restricted(cycle_atoms, pivot)
    if any(not len(r) for r in rows):
        return None
    heavy = np.unique(rows[0].entry)
    variables = [ca.entry_var for ca in rotated]
    prefix = f"T{pivot}"
    bags = _ColumnBags(rotated)
    q0, q1 = rows[0], rows[1]

    # B_1(a_0, a_1, a_2): Q_1 probing Q_0H by exit value.
    left, right = vec.gather(q1.entry, q0.exit)
    values = [q0.entry[right], q1.entry[left], q1.exit[left]]
    weights = _times(q0.weight[right], q1.weight[left], multiply)
    ids = [q0.ids[right], q1.ids[left]]
    if length == 3:
        # ... closed by the Q_2 tuples on (a_2, a_0).
        q2 = rows[2]
        probe, build = vec.key_codes((values[2], q2.entry), (values[0], q2.exit))
        outer, right = vec.gather(probe, build)
        values = [column[outer] for column in values]
        weights = _times(weights[outer], q2.weight[right], multiply)
        ids = [column[outer] for column in ids] + [q2.ids[right]]
        if not bags.add(f"{prefix}_B1", variables, values, weights, (0, 1, 2), ids):
            return None
        return bags.task(query, prefix, f"heavy@{variables[0]}")
    if not bags.add(f"{prefix}_B1", variables[:3], values, weights, (0, 1), ids):
        return None
    # Middle bags B_j(a_0, a_j, a_j+1) = heavy values x Q_j.
    for j in range(2, length - 2):
        q, width = rows[j], len(heavy)
        values = [
            np.tile(heavy, len(q)), np.repeat(q.entry, width), np.repeat(q.exit, width)
        ]
        if not bags.add(
            f"{prefix}_B{j}", (variables[0], variables[j], variables[j + 1]), values,
            np.repeat(q.weight, width), (j,), [np.repeat(q.ids, width)],
        ):
            return None
    # Last bag B_(l-2)(a_0, a_(l-2), a_(l-1)): Q_(l-2) probing the
    # Q_(l-1) tuples that close the cycle on a heavy a_0 value.
    j = length - 2
    q, last = rows[j], rows[length - 1]
    last = last.take(np.isin(last.exit, heavy))
    left, right = vec.gather(q.exit, last.entry)
    values = [last.exit[right], q.entry[left], q.exit[left]]
    weights = _times(q.weight[left], last.weight[right], multiply)
    if not bags.add(
        f"{prefix}_B{j}", (variables[0], variables[j], variables[j + 1]), values,
        weights, (j, length - 1), [q.ids[left], last.ids[right]],
    ):
        return None
    return bags.task(query, prefix, f"heavy@{variables[0]}")


def _light_partition_columns(
    query: ConjunctiveQuery, cycle_atoms: list[_CycleAtom], multiply: bool
) -> TreeTask | None:
    """:func:`_light_partition` on columns (:func:`_chain_join_columns`)."""
    length = len(cycle_atoms)
    split = math.ceil(length / 2)
    if any(not len(ca.light) for ca in cycle_atoms):
        return None
    variables = [ca.entry_var for ca in cycle_atoms]
    bags = _ColumnBags(cycle_atoms)
    chains = (
        ("TL_C1", range(split), variables[: split + 1]),
        ("TL_C2", range(split, length), variables[split:] + [variables[0]]),
    )
    for name, members, vars_ in chains:
        values, weights, id_columns = _chain_join_columns(
            [cycle_atoms[k].light for k in members], multiply
        )
        if not bags.add(
            name, vars_, values, weights, members, id_columns, by_atom=False
        ):
            return None
    return bags.task(query, "TL", "all-light")
