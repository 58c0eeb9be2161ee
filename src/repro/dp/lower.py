"""The bottom-up pass, lowered straight to a compiled core's columns.

The paper's preprocessing for an acyclic query is one linear sweep over
the join tree (Section 4; Eq. 2 / Eq. 7).  This module is that sweep —
the only lowering, for acyclic plans and union members alike — for
every dioid with a lane
(:func:`~repro.ranking.dioid.lane_of`): each stage is lowered *directly*
into the columns of a :class:`~repro.dp.flat.CompiledTDP`, without the
object graph of :mod:`repro.dp.builder`.  It runs in value space — the
lane's operator folded from ``one``, one operation per ``times`` the
object builder makes, same operands, same order, same row order and
alive filter — and keys the entries afterwards (``-v`` where the lane
negates), so every column is ``build_tdp``'s in bits and type
(``tests/test_lower_columns.py``, ``tests/test_lane_conformance.py``).
A tie-broken member (:func:`lower_member`) adds the packed-rank column
of the Section 6.3 tie-breaker and never calls ``times`` or ``key``.

**Columns the collector never walks.**  Every per-state and
per-connector number column of a core — tuple ids, ``pi1``, child
uids, the pool and its offsets, ``conn_stage``, least entries, and
the entry values and ranks of a core without an inverse — is a typed
array (``array('q')`` / ``array('d')``), filled by one buffer copy
from the numpy kernel that computed it (:func:`_column`,
:func:`_extend`).  A bound core then holds a few references per stage
for a collection to traverse, not several per state, so the young
collections that follow a bind cost little: 1.7–1.8 ms against
11.8–15.3 ms with lists, on the ``cold_bind`` benchmark's 20 k-tuple
4-path (gen 0 + gen 1, median of 10, 2-vCPU host).  The state values
stay the stored weight objects (an ``int`` weight stays an ``int``),
and a rank column whose ranks pass int64 stays a list of Python ints.

**Scan, then placement.**  The scan drops dead rows and emits one column
per output (state values, ``pi1`` values, child connector uids, entry
values ``v ⊗ pi1``).  The alive states are then *placed* into connectors
by the uid of their join key, never by weight — "nothing is sorted
during preprocessing" holds: a stage's join keys are numbered
first-seen by a :class:`~repro.util.vec.KeyIndex`, a direct-address
table over their codes (one sort only where the codes span too wide a
range for one), and the placement is a counting sort on connector ids,
extending the pool's columns in uid order (the core's ``entry_key`` /
``entry_state`` / ``entry_rank`` and ``conn_offsets``), stage 0's root
connector last.  No entry becomes a tuple; only a
connector's first touch reads the pool.  Take2's
heaps are the paper's linear pass: ranked here, every connector at
once (:func:`~repro.dp.flat.heap_layout`, a ``heapify`` per connector,
not a sort), as arrays of the entries' states, keys and ranks in heap
layout that a first touch cuts a connector's lists from; Eager's orders
are sorted on first touch.  Measured: ranked on first touch, from the
columns, a connector cost pages 2-3x what slicing a pool of entry
tuples did.

**One stage scan, one placement.**  Every stage reads its relation's
column image (:attr:`~repro.data.relation.Relation.arrays`: int64 codes,
float64 weights, made once per relation version), the images of one
bind put over one code space (:func:`~repro.data.image.shared_codes`).
:func:`_scan_column_stage` drops the rows whose repeated variables'
codes differ, probes each child's :class:`_KeyTable` with the stage's
key codes — looked up by code in the table the child's placement built,
no sort per probe — and folds ``pi`` and the entry values as float64
kernels; :func:`_place_columns` numbers the connectors first-seen, as
``dict.fromkeys`` does.  A tie-broken member's packed ranks are gathered
by code (:func:`_rank_columns`).  A stage's row store,
read by tuple id when an answer is read, is :func:`row_store`'s: the
relation's own ``tuples`` list, else a :class:`ColumnRows` view over its
image.  A
connector's least entry is ``min()``'s (:func:`_least_entries`), a NaN
entry value and a rank past int64 included.

The sweep runs the stages in reverse serialised order, children before
parents, so stage 0 — the first root, which the object builder also
processes last — is placed last and its root connector takes the last
uid.  :func:`lower_query` and :func:`lower_member` are its two entry
points.

UCQ members and the free region of a min-weight projection lower here
too.  Dioids without a lane (and members over them), the free-connex
cut of a min-weight projection and ``DPProblem`` keep the object builder
(:mod:`repro.dp.builder`), which reads the rows.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Sequence

import numpy as np

from repro.data.database import Database
from repro.data.image import ColumnImage, shared_codes
from repro.dp.flat import CompiledTDP, LaneCore, heap_layout
from repro.dp.graph import stage_tree
from repro.obs.trace import NULL_SPAN
from repro.query.jointree import JoinTree
from repro.ranking.dioid import FloatLane, SelectiveDioid, TieBreakingDioid, lane_of
from repro.util import vec


def stage_layout(
    join_tree: JoinTree,
) -> tuple[list[int], list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``(parent_stage, own_key_positions, parent_key_positions)``.

    Stages are the tree's serialised order; ``-1`` parents hang off the
    virtual start state.  Per stage, the join-key columns within its own
    atom (which group its states into connectors) and within its
    parent's atom (which look the connector up from a parent state).
    """
    query = join_tree.query
    order = join_tree.order
    stage_of_atom = {atom_idx: s for s, atom_idx in enumerate(order)}
    parent_stage = [
        -1 if join_tree.parent[atom_idx] == -1 else stage_of_atom[join_tree.parent[atom_idx]]
        for atom_idx in order
    ]
    own_key_positions: list[tuple[int, ...]] = []
    parent_key_positions: list[tuple[int, ...]] = []
    for stage, atom_idx in enumerate(order):
        shared = join_tree.shared_variables(atom_idx)
        own_key_positions.append(query.atoms[atom_idx].positions_of(shared))
        if parent_stage[stage] == -1:
            parent_key_positions.append(())
        else:
            parent_atom = query.atoms[join_tree.parent[atom_idx]]
            parent_key_positions.append(parent_atom.positions_of(shared))
    return parent_stage, own_key_positions, parent_key_positions


# -- the packed-rank column of a tie-broken member -----------------------------


def owned_columns(
    join_tree: JoinTree, var_position: dict[str, int]
) -> dict[int, tuple[tuple[int, int], ...]]:
    """Per atom, ``(column, slot)`` of each ranked variable its stage *owns*.

    A variable is owned by the first stage in serialised order whose
    atom contains it — by the running intersection property the top of
    the subtree that holds it — and read from its first column there.
    Variables absent from ``var_position`` are not ranked.
    """
    atoms = join_tree.query.atoms
    owned: dict[int, tuple[tuple[int, int], ...]] = {}
    seen: set[str] = set()
    for atom_idx in join_tree.order:
        template = []
        for column, var in enumerate(atoms[atom_idx].variables):
            if var not in seen:
                seen.add(var)
                if var in var_position:
                    template.append((column, var_position[var]))
        owned[atom_idx] = tuple(template)
    return owned


def member_lane(tie: SelectiveDioid) -> tuple[FloatLane | None, str]:
    """``(lane, "")`` when members ranked under ``tie`` lower, else ``(None, why)``.

    The lane is the base dioid's (:func:`~repro.ranking.dioid.lane_of`);
    the tie-breaker rides along as the packed-rank column.
    """
    if not isinstance(tie, TieBreakingDioid):
        return None, f"{type(tie).__name__} is not the packed-rank tie-breaker"
    return lane_of(tie.base)


# -- the sweep's state ----------------------------------------------------------


class Lowering:
    """The columns of one core while the sweep lowers it, stage by stage.

    Connector uids are assigned ``0 .. num_conns-1`` in placement order,
    stage 0's root connector last (:func:`_lower`).
    """

    __slots__ = (
        "query", "tree", "dioid", "lane", "one", "zero", "inverse",
        "templates", "order", "num_stages", "parent_stage",
        "children_stages", "tuples", "tuple_ids",
        "val_base", "pi1", "child_uids", "val_rank", "ent_base",
        "ent_rank", "entry_key", "entry_state", "entry_rank",
        "conn_offsets", "conn_stage", "conn_min",
        "conn_rank", "tables", "root_uid",
        "own_key_positions", "parent_key_positions", "rows",
        "rank_type", "code", "packed",
    )

    def __init__(
        self, query, tree: JoinTree, dioid: SelectiveDioid,
        lane: FloatLane | None = None, templates: dict | None = None,
    ):
        self.query = query
        self.tree = tree
        self.dioid = dioid
        if lane is None:
            lane, why = lane_of(dioid)
            if lane is None:
                raise ValueError(why)
        self.lane = lane
        #: Per atom, the ranked columns its stage owns (:func:`owned_columns`)
        #: of a tie-broken member, whose values are ``(base, rank)``; else
        #: ``None``.
        self.templates = templates
        #: A rank column's dtype: int64, or ``object`` (Python ints) where
        #: a tie-breaker's packed ranks can pass int64.
        self.rank_type = np.int64
        if templates is not None:
            top = sum(next(reversed(ranks.values()), 0) for ranks in dioid.ranks)
            self.rank_type = object if top >= 1 << 63 else np.int64
        #: The bind's numbering (value -> code) where the codes are not
        #: the values, and a tie-breaker's packed ranks per slot
        #: (:func:`_packed_ranks`); both set by :func:`_lower`.
        self.code: dict | None = None
        self.packed: list = []
        base = dioid if templates is None else dioid.base
        self.one = base.one
        self.zero = base.zero
        self.inverse = dioid.has_inverse
        self.order = list(tree.order)
        self.num_stages = len(self.order)
        self.parent_stage, self.own_key_positions, self.parent_key_positions = (
            stage_layout(tree)
        )
        self.children_stages = stage_tree(self.parent_stage)[0]

        # Per-stage columns.  Every number column is a typed array
        # (:func:`_column`), which the collector never walks; ``tuples``
        # holds each stage's row store, read by tuple id, and
        # ``val_base`` the stored weight objects.
        self.tuples: list = [[] for _ in self.order]
        self.tuple_ids: list = [array("q") for _ in self.order]
        self.val_base: list[list] = [[] for _ in self.order]
        self.pi1: list = [array("d") for _ in self.order]
        #: Flattened child connector uids per stage (branch-major).
        self.child_uids: list = [array("q") for _ in self.order]
        #: The entry pool's columns in uid order (``entry_rank`` only
        #: without an inverse, set below).
        self.entry_key = array("d")
        self.entry_state = array("q")
        self.conn_offsets = array("q", [0])
        self.conn_stage = array("q")
        #: uid -> the value of its least entry.
        self.conn_min = array("d")
        # Without an inverse: per stage the rank and entry-value columns,
        # per connector the least entry's rank, per entry its rank (a
        # rank column is a list of Python ints once a rank passes int64).
        self.val_rank = self.ent_base = self.ent_rank = self.conn_rank = None
        self.entry_rank = None
        if not self.inverse:
            self.val_rank = [array("q") for _ in self.order]
            self.ent_base = [array("d") for _ in self.order]
            self.ent_rank = [array("q") for _ in self.order]
            self.conn_rank = array("q")
            self.entry_rank = array("q")
        #: Per stage its connectors by join key (:class:`_KeyTable`; a
        #: parent stage's scan probes its child branches against these).
        self.tables: list = [None] * self.num_stages
        #: Root stage -> its root connector's uid (absent: no state).
        self.root_uid: dict[int, int] = {}
        #: Input rows scanned.
        self.rows = 0



def _rank_columns(low: Lowering, stage: int, codes: list, states: int, child_uids):
    """``(val_rank, ent_rank)`` of one stage of a core without an inverse:
    zeros without a tie-breaker, else the packed ranks of the variables
    the stage owns, gathered by code (:func:`_packed_ranks`), plus, for
    the entry, the child connectors' least ranks.  Arrays
    (:func:`_fitted`; one array where a leaf's two are one).
    """
    if low.templates is None:
        zeros = np.zeros(states, np.int64)
        return zeros, zeros
    val_rank = np.zeros(states, low.rank_type)
    for column, slot in low.templates[low.order[stage]]:
        index, packed = low.packed[slot]
        at = codes[column] if index is None else index.find([codes[column]], states)
        val_rank = val_rank + packed[at]
    branches = len(low.children_stages[stage])
    if not branches:  # a leaf
        val_rank = _fitted(val_rank)
        return val_rank, val_rank
    conn_rank = np.array(low.conn_rank, low.rank_type)
    uids = np.array(child_uids, np.int64).reshape(states, branches)
    return _fitted(val_rank), _fitted(val_rank + conn_rank[uids].sum(axis=1))


def _packed_ranks(ranks: dict, code: dict | None, dtype) -> tuple:
    """``(index, packed)`` of one tie-breaker slot's ``ranks`` (value ->
    packed rank): where the codes are the values, a
    :class:`~repro.util.vec.KeyIndex` of the ranked ``int`` values, which
    numbers them in ``ranks``' order, and their ranks; else ``index``
    ``None`` and ``packed`` indexed by code (``code``'s values, in code
    order)."""
    if code is None:
        values = np.fromiter(ranks, np.int64, len(ranks))
        index = vec.KeyIndex([values], len(values))
        return index, np.array(list(ranks.values()), dtype)
    return None, np.array([ranks.get(value, 0) for value in code], dtype)


def _fitted(ranks):
    """A rank array as int64 where its ranks fit, else as Python ints."""
    return ranks if ranks.dtype != object else _rank_array(ranks.tolist())


def _rank_array(ranks: list):
    """A rank column as int64, or as an object array of its Python ints
    where a rank passes int64 (the tie-breaker numbers more than 2**63
    assignments)."""
    try:
        return np.array(ranks, np.int64)
    except OverflowError:
        return np.array(ranks, object)


def _rank_pair(val_rank, ent_rank) -> tuple:
    """:func:`_rank_columns`' two columns as core columns (:func:`_column`),
    one column where a leaf's two are one."""
    val_column = _column(val_rank, "q")
    return val_column, val_column if ent_rank is val_rank else _column(ent_rank, "q")


def _column(values, typecode: str):
    """The array ``values`` as a core column: a typed array of
    ``typecode``, filled by one buffer copy — or, for a rank column past
    int64 (an object array), a list of its Python ints."""
    if values.dtype == object:
        return values.tolist()
    column = array(typecode)
    _extend(column, values)
    return column


def _grown(column, values):
    """Rank ``column`` extended by the array ``values``: in place while
    both fit int64, else as a new list of Python ints."""
    if isinstance(column, list):
        column += values.tolist()
    elif values.dtype == object:
        column = [*column, *values.tolist()]
    else:
        _extend(column, values)
    return column


# -- one stage's connectors ----------------------------------------------------


def _least_entries(keys, ranks, starts, sizes):
    """Per connector, the position of its least entry in the sorted columns.

    ``keys`` (and ``ranks``) are in connector order, each connector the
    range ``starts[i] .. starts[i] + sizes[i]`` in state order.  The
    position is ``min()``'s over the entry tuples: the least key
    (``0.0 == -0.0``), among those the least rank, among those the first
    state — so a zero minimum has the sign of the entry it came from.
    ``min()`` never replaces a leading NaN key and never takes a later
    one: a NaN is never the least key (``fmin``) unless it comes first.
    Ranks past int64 (an object array) compare by their dense codes.
    """
    n = len(keys)
    at_min = keys == np.repeat(np.fmin.reduceat(keys, starts), sizes)
    if ranks is not None:
        if ranks.dtype == object:
            ranks = np.unique(ranks, return_inverse=True)[1].reshape(-1)
        ranked = np.where(at_min, ranks, np.iinfo(np.int64).max)
        at_min &= ranks == np.repeat(np.minimum.reduceat(ranked, starts), sizes)
    least = np.minimum.reduceat(np.where(at_min, np.arange(n), n), starts)
    leading_nan = np.isnan(keys[starts])
    least[leading_nan] = np.asarray(starts)[leading_nan]
    return least


def _place_local(
    low: Lowering, stage: int, local, conns: int, entry_values, entry_ranks
) -> None:
    """Place a stage's states by ``local``, each state's connector as
    numbered ``0 .. conns-1`` in first-seen order: one stable integer
    argsort (:func:`~repro.util.vec.grouped`, a counting sort up to 2**16
    connectors) moves every state into its connector's range,
    :func:`_least_entries` picks each range's least entry, and each pool
    and connector column grows by one copy of its array (:func:`_grown`
    for a rank column).  A stage without states places nothing.
    """
    if not conns:
        return
    order = vec.grouped(local, conns)
    sizes = np.bincount(local, minlength=conns)
    ends = sizes.cumsum()
    starts = ends - sizes
    keys = (-entry_values if low.lane.negate else entry_values)[order]
    ranks = None if entry_ranks is None else entry_ranks[order]
    least = _least_entries(keys, ranks, starts, sizes)
    _extend(low.conn_offsets, ends + len(low.entry_key))
    _extend(low.entry_key, keys)
    _extend(low.entry_state, order)
    if ranks is not None:
        low.entry_rank = _grown(low.entry_rank, ranks)
        low.conn_rank = _grown(low.conn_rank, ranks[least])
    low.conn_stage.extend(repeat(stage, conns))
    _extend(low.conn_min, entry_values[order[least]])


def _extend(column: array, values) -> None:
    """Append the array ``values`` to the typed pool ``column``, one copy."""
    column.frombytes(np.ascontiguousarray(values, column.typecode).data.cast("B"))


def _heap_columns(keys, ranks, states, offsets) -> tuple | None:
    """Take2's heap of every connector ``offsets`` delimits, as the
    ``(states, keys, ranks)`` arrays in heap layout (``ranks`` ``None``
    where the core has an inverse), or ``None`` where
    :func:`~repro.dp.flat.heap_layout` cannot rank them.  Copies, so
    the core holds no view of the pool's typed arrays."""
    heap = heap_layout(keys, ranks, offsets)
    if heap is None:
        return None
    return states[heap], keys[heap], None if ranks is None else ranks[heap]


# -- one stage's scan ----------------------------------------------------------


class ColumnRows:
    """A stage's row store where its relation keeps no list — a backend
    view, a column-backed bag: a view over the image's value columns (its
    codes where those are the values), read by tuple id; a mapped
    ``.core``'s rows, read by state.  A row is made only when read, so
    result assembly pays for the answers someone reads and the bind for
    none."""

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, position: int) -> tuple:
        return tuple([column.item(position) for column in self.columns])


def row_store(relation) -> Sequence[tuple]:
    """What a bind reads ``relation``'s rows through, by tuple id: its
    own ``tuples`` list where it holds one, else a :class:`ColumnRows`
    over its column image.  Captured at bind, so a held answer reads the
    rows of its version, and never a backend."""
    if relation.is_materialized:
        return relation.tuples
    image = relation.arrays
    return ColumnRows(image.codes if image.values is None else image.values)


class _KeyTable:
    """A stage's connectors by join key: the distinct keys as code
    columns, in uid (first-seen) order from ``first_uid`` on, ``size``
    of them, and the :class:`~repro.util.vec.KeyIndex` that numbered
    them — built once, at placement, with the stage's radix.  A keyless
    stage's (a root's) has no column and at most one connector, which
    every probe finds."""

    __slots__ = ("columns", "first_uid", "size", "index")

    def __init__(self, keys: list, first_uid: int, index: vec.KeyIndex):
        self.columns = [key[index.first] for key in keys]
        self.first_uid = first_uid
        self.size = index.size
        self.index = index

    def probe(self, key_columns: list, rows: int):
        """Per row of ``key_columns`` its connector's uid, ``-1`` for none:
        the keys encoded with the table's radix, one out of its range a
        miss, and the uids gathered by code — no sort per probe."""
        local = self.index.find(key_columns, rows)
        return np.where(local >= 0, local + self.first_uid, -1)


def _repeats_hold(atom, codes, code: dict | None) -> np.ndarray:
    """Per row, whether each repeated variable's values are equal, as
    ``!=`` says: their codes agree, and no value is unequal to itself (a
    NaN, which shares its code with itself as a dict key does)."""
    unequal = [c for value, c in (code or {}).items() if value != value]
    first: dict = {}
    hold = np.ones(len(codes[0]), bool)
    for position, var in enumerate(atom.variables):
        at = first.setdefault(var, position)
        if at != position:
            hold &= codes[at] == codes[position]
            if unequal:
                hold &= ~np.isin(codes[position], unequal)
    return hold


def _scan_column_stage(low: Lowering, stage: int, image: ColumnImage, codes: tuple):
    """The sweep's one per-row pass over a stage's ``image`` (``codes``:
    its codes in the bind's code space): drop rows violating a repeated
    variable or lacking a partner in some child branch, fold ``pi1``
    and multiply the weight by it.  Returns ``(entry_values, codes_out,
    ids_out, vk_out, pk_out, cu_out)``, one element per alive state; the
    alive rows' ``codes_out`` serve the placement and ranks, and the state
    values are the stored weights (an ``int`` weight stays an ``int``).
    """
    atom = low.query.atoms[low.order[stage]]
    ids = None
    weights = image.weights
    if atom.has_repeated_variables():
        ids = np.flatnonzero(_repeats_hold(atom, codes, low.code))
        codes = [column[ids] for column in codes]
        weights = weights[ids]
    probes = [
        low.tables[child].probe(
            [codes[p] for p in low.parent_key_positions[child]], len(weights)
        )
        for child in low.children_stages[stage]
    ]
    # Rows without a partner in some branch die; ``pi`` folds the
    # connector minima from ``one`` in branch order, like the object
    # builder (a single branch's ``pi`` is its connector minimum in bits:
    # ``1.0 * m`` is ``m``, and so is ``0.0 + m``, a minimum under ``+``
    # never being -0.0, itself a sum that began at +0.0), and the entry
    # value is ``w ⊗ pi``: ``times``'s IEEE operations in its order.
    # inf + -inf and 0 * inf are NaN here as there, without the warning.
    if probes:
        alive = np.flatnonzero(np.minimum.reduce(probes) >= 0)
        if len(alive) < len(weights):
            probes = [probe[alive] for probe in probes]
            weights = weights[alive]
            codes = [column[alive] for column in codes]
            ids = alive if ids is None else ids[alive]
    multiply = low.lane.multiply
    conn_min = np.asarray(low.conn_min, dtype=np.float64)
    pi = np.full(len(weights), low.one)
    with np.errstate(invalid="ignore"):
        for probe in probes:
            pi = pi * conn_min[probe] if multiply else pi + conn_min[probe]
        entry_values = weights * pi if multiply else weights + pi
    cu_out = array("q")
    if probes:
        _extend(cu_out, np.stack(probes, axis=1).ravel())
    tuple_ids = np.arange(len(image)) if ids is None else ids
    return (
        entry_values, codes, _column(tuple_ids, "q"), image.weight_list(ids),
        _column(pi, "d"), cu_out,
    )


def _place_columns(
    low: Lowering, stage: int, keys: list, entry_values, entry_ranks
) -> None:
    """Place one stage's states into connectors by ``keys``, their join
    key's code columns: a connector per distinct key in first-seen order,
    as ``dict.fromkeys`` numbers them — by the stage's one
    :class:`~repro.util.vec.KeyIndex`, kept in its :class:`_KeyTable` for
    the parent's probes — its entries placed by :func:`_place_local`.
    Nothing is ordered by weight.  A keyless stage (a root: every state
    joins key ``()``) has one connector, none without states."""
    index = vec.KeyIndex(keys, len(entry_values))
    low.tables[stage] = _KeyTable(keys, len(low.conn_stage), index)
    _place_local(low, stage, index.local, index.size, entry_values, entry_ranks)


# -- the sweep -------------------------------------------------------------------


def _lower(
    database: Database, query, tree: JoinTree, dioid: SelectiveDioid,
    lane: FloatLane | None = None, templates: dict | None = None, span=NULL_SPAN,
) -> CompiledTDP:
    """The bottom-up pass over every stage of ``tree``, to one core.

    Mirrors :func:`repro.dp.builder.build_tdp` stage by stage — same row
    order, same alive filter, same fold from ``one`` — in value space,
    so the columns are the object builder's values and the entry keys
    their ``key`` images, in bits.  Each stage is one
    :func:`_scan_column_stage` over its relation's column image, then its
    alive states are placed into connectors by their join key with the
    parent (first-seen order, like the object builder's).  ``lane``
    defaults to ``lane_of(dioid)``; ``templates`` (:func:`owned_columns`)
    asks for the packed-rank column of a tie-broken ``dioid``
    (:func:`lower_member`).  Take2's heaps are ranked once,
    over the whole pool (:func:`_heap_columns`), and the root's is cut
    at bind: every Take2 run reads it before its first answer.  ``span``
    is told how many input rows the pass scanned over how many stages.
    """
    low = Lowering(query, tree, dioid, lane, templates)
    relations = [database[query.atoms[atom].relation_name] for atom in low.order]
    images = [relation.arrays for relation in relations]
    codes, low.code = shared_codes([(image.codes, image.code) for image in images])
    if templates is not None:
        low.packed = [
            _packed_ranks(ranks, low.code, low.rank_type) for ranks in dioid.ranks
        ]
    for stage in reversed(range(low.num_stages)):
        relation, image = relations[stage], images[stage]
        low.rows += len(image)
        entry_values, kept, ids_out, vk_out, pk_out, cu_out = _scan_column_stage(
            low, stage, image, codes[stage]
        )
        low.tuples[stage] = row_store(relation)
        low.tuple_ids[stage] = ids_out
        low.val_base[stage] = vk_out
        low.pi1[stage] = pk_out
        low.child_uids[stage] = cu_out
        entry_ranks = None
        if not low.inverse:
            val_rank, entry_ranks = _rank_columns(
                low, stage, kept, len(entry_values), cu_out
            )
            low.val_rank[stage], low.ent_rank[stage] = _rank_pair(val_rank, entry_ranks)
            low.ent_base[stage] = _column(entry_values, "d")

        keys = [kept[p] for p in low.own_key_positions[stage]]
        _place_columns(low, stage, keys, entry_values, entry_ranks)
        if low.parent_stage[stage] == -1 and low.tables[stage].size:
            low.root_uid[stage] = low.tables[stage].first_uid

    roots = [stage for stage, parent in enumerate(low.parent_stage) if parent == -1]
    empty = len(low.root_uid) < len(roots)
    if 0 not in low.root_uid:  # stage 0 has no state: its root is empty
        low.root_uid[0] = len(low.conn_stage)
        low.conn_offsets.append(len(low.entry_key))
        low.conn_stage.append(0)
        low.conn_min.append(low.zero)
        if not low.inverse:
            low.conn_rank = _grown(low.conn_rank, np.zeros(1, np.int64))
    if empty:
        best = (low.zero, 0)
    else:
        # The virtual start state: one branch per root stage, folded
        # from ``one`` in stage order exactly as ``build_tdp`` folds
        # ``best_weight``.
        multiply = low.lane.multiply
        total, rank = low.one, 0
        for stage in roots:
            root = low.root_uid[stage]
            value = low.conn_min[root]
            total = total * value if multiply else total + value
            if not low.inverse:
                rank += low.conn_rank[root]
        best = (total, rank)

    heap_columns = None
    if low.entry_key:
        heap_columns = _heap_columns(
            np.frombuffer(low.entry_key),
            None if low.inverse else _rank_array(low.entry_rank),
            np.frombuffer(low.entry_state, np.int64),
            np.array(low.conn_offsets),
        )
    without_inverse: dict = {}
    if not low.inverse:
        without_inverse = dict(
            val_rank=low.val_rank,
            ent_base=low.ent_base,
            ent_rank=low.ent_rank,
            min_base=low.conn_min,
            min_rank=low.conn_rank,
            entry_rank=low.entry_rank,
        )
    core_class = CompiledTDP if low.templates is None else LaneCore
    core = core_class.assemble(
        dioid=low.dioid,
        query=low.query,
        join_tree=low.tree,
        atom_of_stage=low.order,
        parent_stage=low.parent_stage,
        tuples=low.tuples,
        tuple_ids=low.tuple_ids,
        lane=low.lane,
        one=low.one,
        val_base=low.val_base,
        pi1=low.pi1,
        child_uids=low.child_uids,
        conn_stage=low.conn_stage,
        root_uid=low.root_uid,
        best=best,
        empty=empty,
        conn_offsets=low.conn_offsets,
        entry_key=low.entry_key,
        entry_state=low.entry_state,
        heap_columns=heap_columns,
        **without_inverse,
    )
    if not empty and heap_columns is not None:
        core.take2_heap(low.root_uid[0])
    span.set(rows=low.rows, stages=low.num_stages)
    return core


def lower_query(
    database: Database, tree: JoinTree, dioid: SelectiveDioid, span=NULL_SPAN
) -> CompiledTDP:
    """The whole bottom-up pass over ``tree``, as a compiled core.

    The core is the one ``compile_tdp(build_tdp(database, tree, dioid))``
    would produce, without the object graph in between; it holds the
    rows result assembly reads.  ``span``
    (the caller's ``tdp.build``) is told how many input rows the pass
    scanned over how many stages.
    """
    return _lower(database, tree.query, tree, dioid, span=span)


def lower_member(
    database: Database,
    join_tree: JoinTree,
    tie: TieBreakingDioid,
    var_position: dict[str, int],
    lane: FloatLane,
) -> LaneCore:
    """Lower one union member to a :class:`~repro.dp.flat.LaneCore`.

    The same sweep as :func:`lower_query`, ranked under ``tie`` — which
    must have numbered its domains
    (:func:`~repro.dp.builder.rank_tie_domains`) — with the packed-rank
    column of the variables each stage owns; ``lane`` is
    :func:`member_lane`'s.  Its columns and ranks are ``build_tdp``'s
    under ``tie`` and its lift, with no ``times`` or ``key`` call.
    """
    return _lower(
        database, join_tree.query, join_tree, tie, lane,
        owned_columns(join_tree, var_position),
    )
