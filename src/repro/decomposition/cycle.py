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

**One scan per relation, one builder, two storages.**  Each distinct
relation of the cycle is read once — its column image
(:attr:`~repro.data.relation.Relation.arrays`; a self-join ``E⋈E⋈E⋈E``
reads ``E`` once) — and every atom orients it: an int64 *code* per value
and a weight column.  Once the cycle holds a value that is not an
``int`` within int64, the images are put over one numbering in
:func:`~repro.ranking.dioid.ranking_order`
(:func:`~repro.data.image.shared_codes`), values equal under ``==``
(``1``, ``1.0``, ``True``) sharing a code as a dict join matches them.
Weights are float64 where the dioid has a lane
(:func:`~repro.ranking.dioid.lane_of`) and every weight is a ``float``,
joined by the lane's ``*`` or ``+``; else an object column folded by
``np.frompyfunc(dioid.times)``, the calls of a join row by row.  A dioid
without a lane reads no image (its weights need not be numbers) and
codes the rows per bind.  Heavy and light are split by one mask, and
every join is one :func:`~repro.util.vec.gather` in nested-loop order.

A bag is a column-backed :class:`~repro.data.relation.Relation` — codes,
and where those are not the values the value objects the scan read
(``1.0`` stays ``1.0``) — or, where the dioid has no lane or a weight is
not a ``float``, a row relation of the values read.  Either way the bags
equal the row-at-a-time reference ``tests/reference/cycle_rows.py``
tuple for tuple and bit for bit (``tests/test_cycle_columns.py``); each
task's ``bag_layout`` says which storage, and why not columns.
"""

from __future__ import annotations

import math
from functools import partial
from operator import itemgetter
from typing import Sequence

import numpy as np

from repro.data.database import Database
from repro.data.image import ColumnImage, code_table, object_table, shared_codes
from repro.data.relation import Relation
from repro.decomposition.base import BagLineage, TreeTask
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import TROPICAL, SelectiveDioid, lane_of
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
    exit codes (int64) and weights (float64 or object)."""

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

    ``full`` holds every stored tuple of the atom's relation as
    :class:`_Columns`, read by the single scan that all l+1 partitions —
    and every other atom over the same relation — share: one snapshot of
    a backend-stored table, one statement (from :func:`_read_scans`).  A
    tuple's id is its position in that scan.  ``values`` holds the value
    objects read, ``(entry, exit)`` by tuple id, where the codes are not
    the values themselves (else ``None``).  :meth:`split` derives the
    ``heavy`` / ``light`` subsets (in scan order) once the threshold is
    known.
    """

    __slots__ = (
        "index", "entry_pos", "entry_var", "full", "heavy", "light", "values",
    )

    def __init__(self, index: int, atom: Atom, entry_var: str, scan):
        self.index = index
        self.entry_var = entry_var
        self.entry_pos = entry_pos = atom.variables.index(entry_var)
        exit_pos = 1 - entry_pos
        codes, values, weights = scan
        self.full = _Columns(
            np.arange(len(weights)), codes[entry_pos], codes[exit_pos], weights
        )
        self.values = (
            None if values is None else (values[entry_pos], values[exit_pos])
        )
        self.heavy = self.full.take(slice(0, 0))
        self.light = self.full

    def split(self, threshold: int) -> None:
        """Classify the scanned rows by their entry value's degree.

        The degrees are counted over the entry codes the scan already
        holds, so a backend-stored relation is not read again.  Any
        classification yields a disjoint cover; the degrees only carry
        the size bound.  The rows split by one mask.
        """
        values, counts = np.unique(self.full.entry, return_counts=True)
        heavy_values = values[counts >= threshold]
        if not len(heavy_values):
            return
        heavy = np.isin(self.full.entry, heavy_values)
        self.heavy = self.full.take(heavy)
        self.light = self.full.take(~heavy)

    def read(self, side: int, ids, objects: bool):
        """Side ``side`` (0 entry, 1 exit) of the tuples ``ids``: their
        codes, or with ``objects`` the values read where those differ."""
        if objects and self.values is not None:
            return self.values[side][ids]
        return (self.full.entry, self.full.exit)[side][ids]


def cycle_relations(query: ConjunctiveQuery, walk) -> list[str]:
    """The distinct relations of a cycle walk, in walk order: what the
    decomposition scans, once each."""
    return list(dict.fromkeys(query.atoms[index].relation_name for index, _ in walk))


def _read_scans(
    database: Database, query: ConjunctiveQuery, walk, dioid: SelectiveDioid
) -> tuple[dict, dict | None, object, str | None]:
    """One scan per distinct relation of the cycle, as columns, oriented
    later per atom.

    Returns ``(scans, code, times, why)``.  ``scans`` maps a relation name
    to ``(codes, values, weights)``: per attribute the int64 codes over
    the cycle's one code space and the values read (``None`` where every
    value is an ``int`` within int64, its own code), and the weight
    column.  ``code`` maps a value to its code (``None`` likewise).
    ``times`` joins two weight columns: the lane's ``*`` or ``+`` over
    float64 where the dioid has a lane and every weight is a ``float``,
    else ``dioid.times`` element by element over object columns.  ``why``
    is ``None`` when the bags can be columns, else why not: the dioid has
    no lane, or the first relation in walk order holds a weight that is
    not a ``float``.
    """
    lane, why = lane_of(dioid)
    why = why or None
    names = cycle_relations(query, walk)
    reads = []
    for name in names:
        relation = database[name]
        if lane is None:  # the weights need not be numbers: no image
            # The lists, which the union's witnesses then read too.
            tuples, weights = relation.tuples, relation.weights
            codes, values, code = code_table(object_table(tuples, 2))
            weights = np.fromiter(weights, object, len(weights))
        else:
            image = relation.arrays
            codes, values, code = image.codes, image.values, image.code
            weights = image.weights
            if image.weight_type is not None:
                why = why or f"{name} holds a weight of type {image.weight_type}"
                weights = np.fromiter(image.objects, object, len(image))
        reads.append((codes, values, code, weights))
    shared, code = shared_codes([(codes, code) for codes, _values, code, _w in reads])
    scans = {}
    for name, columns, (codes, values, _code, weights) in zip(names, shared, reads):
        if why is not None:
            weights = weights.astype(object)
        if code is not None and values is None:  # an int is its own value
            values = codes
        scans[name] = (columns, values, weights)
    if why is None:
        times = partial(_times, multiply=lane.multiply)
    else:
        times = np.frompyfunc(dioid.times, 2, 1)
    return scans, code, times, why


def _chain_join_columns(members: Sequence[_Columns], times):
    """Join a chain of cycle atoms on exit = next entry, one
    :func:`~repro.util.vec.gather` per level, in nested-loop order
    (member 0 outermost, matches in scan order).  Returns the weights (a
    left fold of ``times`` along the chain) and one tuple-id column per
    member."""
    first = members[0]
    exit, weights, id_columns = first.exit, first.weight, [first.ids]
    for rows in members[1:]:
        left, right = vec.gather([exit], [rows.entry])
        exit = rows.exit[right]
        weights = times(weights[left], rows.weight[right])
        id_columns = [column[left] for column in id_columns] + [rows.ids[right]]
    return weights, id_columns


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
    walk: list[tuple[int, str]] | None = None,
) -> list[TreeTask]:
    """Decompose a simple-cycle query into l heavy trees + 1 light tree.

    Raises ``ValueError`` if the query is not a simple cycle.  Member
    outputs are disjoint; empty members are dropped.  ``walk`` is a
    precomputed :func:`detect_simple_cycle` result (the planning layer
    passes the one it stored on the logical plan, skipping re-detection
    on rebind).  Every distinct relation of the cycle is read exactly
    once, however many atoms it serves, and the heavy/light degrees are
    counted over what that read holds.

    Every bag is built by the one column join.  It is stored as columns
    (a column-backed relation) where ``dioid`` has a lane and the
    relations hold ``float`` weights, else as rows made from the
    columns; each task's ``bag_layout`` says which, and why not columns.
    """
    if walk is None:
        walk = detect_simple_cycle(query)
    if walk is None:
        raise ValueError(f"{query!r} is not a simple cycle")
    length = len(walk)
    scans, code, times, why = _read_scans(database, query, walk, dioid)
    cycle_atoms = [
        _CycleAtom(index, query.atoms[index], entry_var,
                   scans[query.atoms[index].relation_name])
        for index, entry_var in walk
    ]
    if threshold is None:
        n = max(len(ca.full) for ca in cycle_atoms)
        threshold = default_threshold(n, length)
    for ca in cycle_atoms:
        ca.split(threshold)

    tasks: list[TreeTask] = []
    for pivot in range(length):
        # No heavy entry value at the pivot: T_pivot is empty.
        if cycle_atoms[pivot].heavy:
            task = _heavy_partition_columns(query, cycle_atoms, pivot, times, why, code)
            if task is not None:
                tasks.append(task)
    light = _light_partition_columns(query, cycle_atoms, times, why, code)
    if light is not None:
        tasks.append(light)
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


class _Bags:
    """The bags of one member, filed as relations with their lineage;
    ``why`` is ``None`` where they are stored as columns, else why not,
    and ``code`` the cycle's numbering (from :func:`_read_scans`)."""

    def __init__(self, rotated: list[_CycleAtom], why: str | None, code: dict | None):
        self.rotated = rotated
        self.why = why
        self.code = code
        self.relations: list[Relation] = []
        self.atoms: list[Atom] = []
        self.lineage: dict[str, BagLineage] = {}

    def add(
        self, name: str, vars_, sources, weights, pinned, id_columns, by_atom=True
    ) -> bool:
        """File bag ``name``; ``False`` when it is empty (so is the member).

        Value column ``c`` is ``rotated[k]``'s side ``side`` of the tuples
        ``ids``, ``(k, side, ids) = sources[c]``.  ``pinned`` are the
        positions (into ``rotated``) of the atoms whose ids
        ``id_columns`` hold; lineage lists them in atom order, or as
        given (``by_atom=False``: a chain's walk order).  Stored as
        columns, a bag is a column-backed relation — its codes, and the
        values read where those differ — with int64 lineage columns; as
        rows, a row relation of the values read, with ``int`` lineage
        lists.
        """
        if not len(weights):
            return False
        values = None
        if self.code is not None or self.why is not None:
            values = [self.rotated[k].read(side, ids, True) for k, side, ids in sources]
        if self.why is not None:
            tuples = list(zip(*[column.tolist() for column in values]))
            relation = Relation(name, len(values), tuples, weights.tolist())
            id_columns = [column.tolist() for column in id_columns]
        else:
            codes = [self.rotated[k].read(side, ids, False) for k, side, ids in sources]
            image = ColumnImage(codes, weights, values, self.code)
            relation = Relation.from_columns(name, image)
        self.relations.append(relation)
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
            bag_layout="bag columns" if self.why is None else f"bag rows ({self.why})",
        )


def _heavy_partition_columns(
    query: ConjunctiveQuery, cycle_atoms: list[_CycleAtom], pivot: int, times,
    why: str | None, code: dict | None,
) -> TreeTask | None:
    """Partition T_pivot: the fan decomposition broken at atom ``pivot``.

    Every bag is a :func:`~repro.util.vec.gather` (probe rows in scan
    order, matches in scan order: a hash join's loop nest) or, for the
    middle bags, a ``repeat`` / ``tile`` against the heavy values in
    code order.
    """
    length = len(cycle_atoms)
    rotated, rows = _restricted(cycle_atoms, pivot)
    if any(not len(r) for r in rows):
        return None
    variables = [ca.entry_var for ca in rotated]
    prefix = f"T{pivot}"
    bags = _Bags(rotated, why, code)
    q0, q1 = rows[0], rows[1]

    # B_1(a_0, a_1, a_2): Q_1 probing Q_0H by exit value ...
    left, right = vec.gather([q1.entry], [q0.exit])
    if length == 3:
        # ... closed by the Q_2 tuples on (a_2, a_0).
        q2 = rows[2]
        outer, closing = vec.gather(
            [q1.exit[left], q0.entry[right]], [q2.entry, q2.exit]
        )
        left, right = left[outer], right[outer]
    ids = [q0.ids[right], q1.ids[left]]
    weights = times(q0.weight[right], q1.weight[left])
    sources = [(0, 0, ids[0]), (1, 0, ids[1]), (1, 1, ids[1])]
    if length == 3:
        ids.append(q2.ids[closing])
        weights = times(weights, q2.weight[closing])
        if not bags.add(f"{prefix}_B1", variables, sources, weights, (0, 1, 2), ids):
            return None
        return bags.task(query, prefix, f"heavy@{variables[0]}")
    if not bags.add(f"{prefix}_B1", variables[:3], sources, weights, (0, 1), ids):
        return None
    # Middle bags B_j(a_0, a_j, a_j+1) = heavy values x Q_j; a heavy
    # value reads as its first Q_0H tuple holds it.
    heavy, first = np.unique(q0.entry, return_index=True)
    for j in range(2, length - 2):
        q, width = rows[j], len(heavy)
        ids = np.repeat(q.ids, width)
        sources = [(0, 0, np.tile(q0.ids[first], len(q))), (j, 0, ids), (j, 1, ids)]
        if not bags.add(
            f"{prefix}_B{j}", (variables[0], variables[j], variables[j + 1]), sources,
            np.repeat(q.weight, width), (j,), [ids],
        ):
            return None
    # Last bag B_(l-2)(a_0, a_(l-2), a_(l-1)): Q_(l-2) probing the
    # Q_(l-1) tuples that close the cycle on a heavy a_0 value.
    j = length - 2
    q, last = rows[j], rows[length - 1]
    last = last.take(np.isin(last.exit, heavy))
    left, right = vec.gather([q.exit], [last.entry])
    ids = [q.ids[left], last.ids[right]]
    sources = [(length - 1, 1, ids[1]), (j, 0, ids[0]), (j, 1, ids[0])]
    if not bags.add(
        f"{prefix}_B{j}", (variables[0], variables[j], variables[j + 1]), sources,
        times(q.weight[left], last.weight[right]), (j, length - 1), ids,
    ):
        return None
    return bags.task(query, prefix, f"heavy@{variables[0]}")


def _light_partition_columns(
    query: ConjunctiveQuery, cycle_atoms: list[_CycleAtom], times, why: str | None,
    code: dict | None,
) -> TreeTask | None:
    """Partition T_(l+1): the two-chain all-light decomposition (Fig 8c)."""
    length = len(cycle_atoms)
    split = math.ceil(length / 2)
    if any(not len(ca.light) for ca in cycle_atoms):
        return None
    variables = [ca.entry_var for ca in cycle_atoms]
    bags = _Bags(cycle_atoms, why, code)
    chains = (
        ("TL_C1", range(split), variables[: split + 1]),
        ("TL_C2", range(split, length), variables[split:] + [variables[0]]),
    )
    for name, members, vars_ in chains:
        weights, ids = _chain_join_columns(
            [cycle_atoms[k].light for k in members], times
        )
        sources = [(members[0], 0, ids[0])] + [
            (k, 1, column) for k, column in zip(members, ids)
        ]
        if not bags.add(name, vars_, sources, weights, members, ids, by_atom=False):
            return None
    return bags.task(query, "TL", "all-light")
