"""The bottom-up pass, lowered straight to a compiled core's columns.

The paper's preprocessing for an acyclic query is one linear sweep over
the join tree (Section 4; Eq. 2 / Eq. 7).  This module is that sweep —
the only lowering, for acyclic plans, shard fragments and union members
alike — for every dioid with a lane
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

**One stage-input shape.**  Every caller hands a stage to
:func:`scan_stage` as two parallel sequences, rows (at atom arity) and
weights (:func:`stage_columns`): the two lists an in-memory relation
stores (slices for a fragment), or a backend's one bulk ``fetch_rows``
split once.  No per-row container carries a weight next to its row.
The rows sequence is also the stage's **row store**: the core keeps it
as it came and result assembly reads it at a state's tuple id, so no
stage keeps a list of its alive rows.

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
during preprocessing" holds: the placement is a counting sort on
connector ids, extending the pool's columns in uid order (the core's
``entry_key`` / ``entry_state`` / ``entry_rank`` and ``conn_offsets``),
a fragment's root connector last.  No entry becomes a tuple; only a
connector's first touch reads the pool.  Take2's
heaps are the paper's linear pass: ranked here, every connector at
once (:func:`~repro.dp.flat.heap_layout`, a ``heapify`` per connector,
not a sort), as arrays of the entries' states, keys and ranks in heap
layout that a first touch cuts a connector's lists from; Eager's orders
are sorted on first touch.  Measured: ranked on first touch, from the
columns, a connector cost pages 2-3x what slicing a pool of entry
tuples did.

**One row scan, one placement.**  Every stage runs on numpy kernels.  A
stage over rows takes :func:`scan_stage` — join-key dict probes as one
C-level ``map`` per child branch, the alive mask, the ``pi`` fold and
the entry values as float64 kernels; an atom with a repeated variable
first drops the rows that violate it, the one Python loop over a
stage's rows — then :func:`_place_by_connector`, for a core with an
inverse and for one without (tie-broken union members, acyclic
max-times) with its rank column (:func:`_rank_columns`).  The fragment
root's least entry comes from the same arrays.  A union member whose
bags are columns (a cycle decomposition's,
:meth:`~repro.data.relation.Relation.from_columns`) takes the **column
stage scan** on every stage (:func:`member_columns`): join keys become
int64 codes, connectors numbered first-seen as ``dict.fromkeys`` numbers
them (:func:`_place_columns`), a parent probes the child's codes
(:class:`_KeyTable`), packed ranks come from the slot ordinals by
``searchsorted`` (:func:`_rank_columns_of`), placement is
:func:`_place_by_connector`'s (:func:`_place_local`), and the stage's
row store is a :class:`ColumnRows` view over the bag's columns that
result assembly indexes only for answers someone reads — no row tuple,
no join-key tuple, no ``times`` per bag row.  A connector's least entry is
``min()``'s over its entries (:func:`_least_entries`), a NaN entry
value and a rank past int64 (the tie-breaker numbering more than 2**63
assignments) included.

The sweep is split at one **anchor** stage, a root of its join-tree
component; no non-anchor stage depends on which anchor rows are present:

* **phase A** (:func:`build_shared_lower`, once): all non-anchor stages
  — state columns, the connector entry pool and its Take2 heaps,
  join-key maps;
* **phase B** (:func:`build_fragment`, per fragment): scan one slice of
  the anchor relation against phase A's join-key maps, emit that
  fragment's root connector and its Take2 heap, and assemble its core
  over the shared columns (its anchor rows a :class:`ShiftedRows` store
  where the slice starts past id 0).

:func:`lower_query` and :func:`lower_member` are phase A plus one
fragment spanning the anchor relation (stage 0).  The parallel layer
(:mod:`repro.parallel.build`) runs phase B once per shard fragment;
the fragment cores alias phase A's columns, entry pool (each fragment
appends its root) and heap layout, and one set of ranking caches (Take2
heaps, and Eager's sorted orders once it sorts), built once per
version.

Dioids without a lane (and members over them), the ``canonical``
tie-break, the UCQ pipeline, the min-weight projection and ``DPProblem``
keep the object builder, which reads the same stage-input shape
(:func:`stage_columns`, :func:`join_key_column`).
"""

from __future__ import annotations

import time
from array import array
from itertools import compress, count, repeat
from numbers import Real
from operator import add, itemgetter
from typing import Iterable, Sequence

import numpy as np

from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.flat import CompiledTDP, LaneCore, heap_layout
from repro.dp.graph import stage_tree
from repro.obs.trace import NULL_SPAN
from repro.query.jointree import JoinTree
from repro.ranking.dioid import FloatLane, SelectiveDioid, TieBreakingDioid, lane_of
from repro.util import vec


def stage_columns(
    relation: Relation, lo: int | None = None, hi: int | None = None
) -> tuple[Sequence[tuple], Sequence]:
    """One stage's input: ``(rows, weights)``, parallel and order-stable.

    Rows are at atom arity.  An in-memory relation hands over the two
    lists it stores (slices for ``lo .. hi``); a backend-stored,
    unmaterialised one splits its bulk ``fetch_rows`` result (a single
    rowid-range ``fetchall`` for SQLite) once.
    """
    backend = relation.backend
    if backend is not None and not relation.is_materialized:
        fetched = backend.fetch_rows(relation.table, lo, hi)
        return [row[:-1] for row in fetched], [row[-1] for row in fetched]
    rows = relation.tuples
    weights = relation.weights
    if lo is not None or hi is not None:
        rows = rows[lo:hi]
        weights = weights[lo:hi]
    return rows, weights


def join_key_column(rows: Sequence[tuple], positions: tuple[int, ...]):
    """Iterate the join keys of ``rows``: bare values for one column, else tuples."""
    if not positions:
        return repeat((), len(rows))
    return map(itemgetter(*positions), rows)


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


def packed_ranks(ranks: Sequence[dict], template, rows) -> Iterable[int] | None:
    """Each row's packed rank over the owned ``template``, or ``None``.

    ``ranks`` is :attr:`TieBreakingDioid.ranks`; one table lookup pass
    per owned column, summed lazily (``None``: the stage owns nothing).
    """
    packed = None
    for column, slot in template:
        lane = map(ranks[slot].__getitem__, map(itemgetter(column), rows))
        packed = lane if packed is None else map(add, packed, lane)
    return packed


def member_lane(tie: SelectiveDioid) -> tuple[FloatLane | None, str]:
    """``(lane, "")`` when members ranked under ``tie`` lower, else ``(None, why)``.

    The lane is the base dioid's (:func:`~repro.ranking.dioid.lane_of`);
    the tie-breaker rides along as the packed-rank column.
    """
    if not isinstance(tie, TieBreakingDioid):
        return None, f"{type(tie).__name__} is not the packed-rank tie-breaker"
    return lane_of(tie.base)


# -- the shared lower stages (phase A) -----------------------------------------


class SharedLower:
    """Phase A output: every fragment-independent stage, lowered flat.

    All structures are read-only once built.  Connector uids are
    assigned ``0 .. num_conns-1`` here; fragment root connectors extend
    the uid space from ``num_conns`` upward (one per fragment).
    """

    __slots__ = (
        "query", "tree", "dioid", "lane", "one", "zero", "inverse",
        "templates", "order", "num_stages", "parent_stage",
        "children_stages", "anchor_stage", "tuples", "tuple_ids",
        "val_base", "pi1", "child_uids", "val_rank", "ent_base",
        "ent_rank", "entry_key", "entry_state", "entry_rank",
        "conn_offsets", "conn_stage", "conn_min",
        "conn_rank", "conn_maps", "root_uid", "num_conns", "complete",
        "own_key_positions", "parent_key_positions", "seconds", "rows",
        "rank_tables", "heap_columns",
    )

    def __init__(
        self, query, tree: JoinTree, dioid: SelectiveDioid, anchor_stage: int,
        lane: FloatLane | None = None, templates: dict | None = None,
        rank_tables: list | None = None,
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
        #: A tie-broken member's packed ranks as arrays (:func:`rank_tables`)
        #: when its stages take the column stage scan, else ``None``.
        self.rank_tables = rank_tables
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
        self.anchor_stage = anchor_stage
        if self.parent_stage[anchor_stage] != -1:
            raise ValueError("the anchor stage must be a component root")

        # Per-stage columns; the anchor's slots stay empty (each
        # fragment layers its own over a copy of these lists).  Every
        # number column is a typed array (:func:`_column`), which the
        # collector never walks; ``tuples`` holds each stage's row store,
        # read by tuple id, and ``val_base`` the stored weight objects.
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
        #: Take2's heap of every connector phase A places, as
        #: ``CompiledTDP.heap_columns``.
        self.heap_columns = None
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
        #: Per stage: join key -> connector uid (phase B resolves the
        #: anchor's child branches against the anchor-children's maps).
        self.conn_maps: list[dict] = [dict() for _ in range(self.num_stages)]
        #: Root connector uids of *non-anchor* root stages.
        self.root_uid: dict[int, int] = {}
        self.num_conns = 0
        #: False when some non-anchor component is empty (then every
        #: fragment is empty regardless of its anchor rows).
        self.complete = True
        self.seconds = 0.0
        #: Input rows scanned.
        self.rows = 0

    def child_lookups(self, stage: int):
        """Per child branch: (single_column, positions, conn_map)."""
        return [
            (
                self.parent_key_positions[c][0]
                if len(self.parent_key_positions[c]) == 1
                else None,
                self.parent_key_positions[c],
                self.conn_maps[c],
            )
            for c in self.children_stages[stage]
        ]


def build_shared_lower(
    database: Database, query, tree: JoinTree, dioid: SelectiveDioid,
    anchor_stage: int, lane: FloatLane | None = None, templates: dict | None = None,
    rank_tables: list | None = None,
) -> SharedLower:
    """Phase A: lower every non-anchor stage to flat columns.

    Mirrors :func:`repro.dp.builder.build_tdp` stage by stage — same row
    order, same alive filter, same fold from ``one`` — in value space,
    so the columns are the object builder's values and the entry keys
    their ``key`` images, in bits.  Each stage is one :func:`scan_stage`
    over its relation, then its alive states are placed into connectors
    by their join key with the parent (first-seen order, like the
    object builder's).  ``lane`` defaults to ``lane_of(dioid)``;
    ``templates`` (:func:`owned_columns`) asks for the packed-rank
    column of a tie-broken ``dioid``, and ``rank_tables`` the column
    stage scan (:func:`lower_member`).
    """
    start = time.perf_counter()
    shared = SharedLower(query, tree, dioid, anchor_stage, lane, templates, rank_tables)

    for stage in reversed(range(shared.num_stages)):
        if stage == anchor_stage:
            continue
        relation = database[query.atoms[shared.order[stage]].relation_name]
        store, (entry_values, kept, ids_out, vk_out, pk_out, cu_out) = (
            _scan_relation(shared, stage, relation)
        )
        shared.tuples[stage] = store
        shared.tuple_ids[stage] = ids_out
        shared.val_base[stage] = vk_out
        shared.pi1[stage] = pk_out
        shared.child_uids[stage] = cu_out
        entry_ranks = None
        if not shared.inverse:
            val_rank, entry_ranks = _rank_columns(shared, stage, kept, cu_out)
            shared.val_rank[stage], shared.ent_rank[stage] = _rank_pair(
                val_rank, entry_ranks
            )
            shared.ent_base[stage] = _column(entry_values, "d")

        if isinstance(kept, ColumnRows):
            _place_columns(shared, stage, kept, entry_values, entry_ranks)
        else:
            join_keys = list(join_key_column(kept, shared.own_key_positions[stage]))
            _place_by_connector(shared, stage, join_keys, entry_values, entry_ranks)
        shared.num_conns = len(shared.conn_stage)

        if shared.parent_stage[stage] == -1:
            root = shared.conn_maps[stage].get(())
            if root is None:
                shared.complete = False
            else:
                shared.root_uid[stage] = root

    if shared.entry_key:
        shared.heap_columns = _heap_columns(
            np.frombuffer(shared.entry_key),
            None if shared.inverse else _rank_array(shared.entry_rank),
            np.frombuffer(shared.entry_state, np.int64),
            np.array(shared.conn_offsets),
        )
    shared.seconds = time.perf_counter() - start
    return shared


def _rank_columns(
    shared: SharedLower, stage: int, rows: Sequence[tuple], child_uids: list[int]
) -> tuple:
    """``(val_rank, ent_rank)`` of one stage of a core without an inverse:
    zeros without a tie-breaker, else the packed ranks of the variables
    the stage owns plus, for the entry, the child connectors' least ranks.
    Arrays (:func:`_rank_array`; one array where a leaf's two are one).
    """
    if shared.templates is None:
        zeros = np.zeros(len(rows), np.int64)
        return zeros, zeros
    if isinstance(rows, ColumnRows):
        return _rank_columns_of(shared, stage, rows, child_uids)
    packed = packed_ranks(
        shared.dioid.ranks, shared.templates[shared.order[stage]], rows
    )
    val_rank = [0] * len(rows) if packed is None else list(packed)
    branches = len(shared.children_stages[stage])
    conn_rank = shared.conn_rank
    pi_rank = None
    for branch in range(branches):
        uids = child_uids if branches == 1 else child_uids[branch::branches]
        ranks = map(conn_rank.__getitem__, uids)
        pi_rank = list(ranks) if pi_rank is None else list(map(add, pi_rank, ranks))
    val_array = _rank_array(val_rank)
    if pi_rank is None:  # a leaf
        return val_array, val_array
    return val_array, _rank_array(list(map(add, val_rank, pi_rank)))


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


def _place_by_connector(
    shared: SharedLower, stage: int, join_keys: list, entry_values, entry_ranks=None
) -> None:
    """Key one stage's entry values and place its states into connectors.

    A connector per distinct join key in first-seen order, its entries
    (key and state, and the rank with ``entry_ranks``) appended to the
    pool's columns in state order, its minimum the value of ``min()``
    over them.  Nothing is ordered by weight: first-seen uids
    come from ``dict.fromkeys``, then :func:`_place_local` moves every
    state into its connector's range.
    """
    first_uid = len(shared.conn_stage)
    cmap_out = shared.conn_maps[stage]
    cmap_out.update(zip(dict.fromkeys(join_keys), count(first_uid)))
    local = np.fromiter(
        map(cmap_out.__getitem__, join_keys), np.int64, len(entry_values)
    )
    local -= first_uid
    _place_local(shared, stage, local, len(cmap_out), entry_values, entry_ranks)


def _place_local(
    shared: SharedLower, stage: int, local, conns: int, entry_values, entry_ranks
) -> None:
    """Place a stage's states by ``local``, each state's connector as
    numbered ``0 .. conns-1`` in first-seen order: one stable integer
    argsort (a counting sort up to 2**16 connectors) moves every state
    into its connector's range, :func:`_least_entries` picks each range's
    least entry, and each pool and connector column grows by one copy of
    its array (:func:`_grown` for a rank column).  A stage without states
    places nothing.
    """
    if not conns:
        return
    if conns <= 1 << 16:
        local = local.astype(np.uint16)
    order = local.argsort(kind="stable")
    sizes = np.bincount(local, minlength=conns)
    ends = sizes.cumsum()
    starts = ends - sizes
    keys = (-entry_values if shared.lane.negate else entry_values)[order]
    ranks = None if entry_ranks is None else entry_ranks[order]
    least = _least_entries(keys, ranks, starts, sizes)
    _extend(shared.conn_offsets, ends + len(shared.entry_key))
    _extend(shared.entry_key, keys)
    _extend(shared.entry_state, order)
    if ranks is not None:
        shared.entry_rank = _grown(shared.entry_rank, ranks)
        shared.conn_rank = _grown(shared.conn_rank, ranks[least])
    shared.conn_stage.extend(repeat(stage, conns))
    _extend(shared.conn_min, entry_values[order[least]])


def _extend(column: array, values) -> None:
    """Append the array ``values`` to the typed pool ``column``, one copy."""
    column.frombytes(np.ascontiguousarray(values, column.typecode).data.cast("B"))


def _heap_columns(keys, ranks, states, offsets) -> tuple | None:
    """Take2's heap of every connector ``offsets`` delimits, as the
    ``(states, keys, ranks)`` arrays in heap layout (``ranks`` ``None``
    where the core has an inverse), or ``None`` where
    :func:`~repro.dp.flat.heap_layout` cannot rank them.  Copies: the
    pool's columns may be views of its typed arrays, which must not be
    held (a held view stops them growing)."""
    heap = heap_layout(keys, ranks, offsets)
    if heap is None:
        return None
    return states[heap], keys[heap], None if ranks is None else ranks[heap]


# -- one stage's scan ----------------------------------------------------------


class StageScan:
    """One stage scan's inputs, read off a :class:`SharedLower` once
    (:func:`stage_scan_of`)."""

    __slots__ = (
        "relation", "check_repeats", "satisfies", "lookups", "lane", "one", "conn_min",
    )

    def __init__(self, atom, lookups, lane: FloatLane, one, conn_min):
        self.relation = atom.relation_name
        self.check_repeats = atom.has_repeated_variables()
        self.satisfies = atom.satisfies_repeats
        self.lookups = lookups
        self.lane = lane
        self.one = one
        self.conn_min = conn_min


def stage_scan_of(shared: SharedLower, stage: int) -> StageScan:
    atom = shared.query.atoms[shared.order[stage]]
    return StageScan(
        atom, shared.child_lookups(stage), shared.lane, shared.one, shared.conn_min
    )


def _fold_branches(scan: StageScan, probes: list, w):
    """The kernels' shared middle: ``(alive, probes, w, pi, entry_values)``.

    ``probes`` hold each child branch's connector uid per row (``-1``:
    no partner), ``w`` the float64 weights.  Rows without a partner in
    some branch are dropped (``alive`` their positions, ``None`` when
    every row lives), then ``pi`` folds the connector minima from
    ``one`` and ``entry_values`` is ``w ⊗ pi`` — the same IEEE
    operations in the same order as ``build_tdp``'s ``times``, so the
    arrays are bit-identical to its values.
    """
    alive = None
    if probes:
        mask = np.minimum.reduce(probes) >= 0
        if not mask.all():
            alive = np.flatnonzero(mask)
            probes = [probe[alive] for probe in probes]
            w = w[alive]
    multiply = scan.lane.multiply
    conn_min = np.asarray(scan.conn_min, dtype=np.float64)
    # Folded from ``one`` in branch order, like the object builder (a
    # single branch's ``pi`` is its connector minimum in bits: ``1.0 * m``
    # is ``m``, and so is ``0.0 + m``, a minimum under ``+`` never being
    # -0.0, itself a sum that began at +0.0).  inf + -inf and 0 * inf
    # are NaN here as there, without the warning.
    pi = np.full(len(w), scan.one)
    with np.errstate(invalid="ignore"):
        for probe in probes:
            pi = pi * conn_min[probe] if multiply else pi + conn_min[probe]
        entry_values = w * pi if multiply else w + pi
    return alive, probes, w, pi, entry_values


def _branch_columns(probes: list, pi):
    """``(cu_out, pk_out)`` of a kernel scan as typed columns: the child
    connector uids branch-major per state, and the ``pi1`` fold (a
    leaf's ``one``, a single branch's connector minima in bits, see
    :func:`_fold_branches`)."""
    cu_out = array("q")
    if probes:
        _extend(cu_out, np.stack(probes, axis=1).ravel())
    return cu_out, _column(pi, "d")


def scan_stage(
    scan: StageScan,
    rows: Sequence[tuple],
    weights: Sequence,
    base: int,
):
    """Lower one stage's ``rows`` and parallel ``weights`` to flat columns.

    The one per-row pass of the bottom-up sweep: drop rows violating a
    repeated variable or lacking a join partner in some child branch,
    fold the child connectors' minima into ``pi1`` from ``one``, and
    multiply the weight by it.  Insertion positions (tuple ids) are
    ``base + local``.  Returns
    ``(entry_values, rows_out, ids_out, vk_out, pk_out, cu_out)``,
    one element per alive state: states are sequential (``0 ..
    alive-1``), so ``entry_values[s]`` is state ``s``'s ``v ⊗ pi``.

    The join-key dict probes stay hash probes (hash tables do not
    vectorize) but run as one C-level ``map`` per child branch; the
    alive mask, the ``pi`` fold and the ``v ⊗ pi`` entry values run as
    numpy float64 kernels (:func:`_fold_branches`).  The tuple ids,
    ``pi1`` values and child uids are typed arrays, each one buffer copy
    of its kernel's array (:func:`_column`); the state values are the
    stored weight objects themselves.  ``rows_out`` (the alive rows:
    ``rows`` itself when every row lives) and the entry values serve the
    stage's placement and ranks only: a core reads its rows from the
    input ``rows`` by tuple id.  A weight that is not a real number is a
    ``TypeError``, as ``times`` on it would be.
    """
    for kind in set(map(type, weights)):
        if not issubclass(kind, Real):
            raise TypeError(f"{scan.relation} holds a weight of type {kind.__name__}")
    ids = np.arange(base, base + len(rows))
    if scan.check_repeats:
        kept = list(compress(count(), map(scan.satisfies, rows)))
        rows = [rows[i] for i in kept]
        weights = [weights[i] for i in kept]
        ids = ids[kept]
    n = len(rows)
    probes = [
        np.fromiter(
            map(cmap.get, join_key_column(rows, positions), repeat(-1)), np.int64, n
        )
        for _single, positions, cmap in scan.lookups
    ]
    alive, probes, _w, pi, entry_values = _fold_branches(
        scan, probes, np.array(weights, np.float64)
    )
    if alive is not None:
        alive_list = alive.tolist()
        rows = [rows[i] for i in alive_list]
        weights = [weights[i] for i in alive_list]
        ids = ids[alive]
    # State values are the stored weights (an ``int`` weight stays one),
    # not a second float per state.
    cu_out, pk_out = _branch_columns(probes, pi)
    return entry_values, rows, _column(ids, "q"), list(weights), pk_out, cu_out


# -- the column stage scan ------------------------------------------------------


class ColumnRows:
    """A column stage's row store, as a view over its bag's columns.

    What the core holds for that stage's rows (``tuples``), read by tuple
    id — a row's position in the bag — as a relation's own list is.  A
    row is made — a tuple of native ``int`` — only when it is read, so
    result assembly pays for the answers someone reads and the bind for
    none.  For the stage's lowering it also stands for the alive rows:
    ``alive`` their positions (``None``: every row), :meth:`column`
    their attributes, its length their number.
    """

    __slots__ = ("arrays", "alive")

    def __init__(self, arrays: Sequence, alive):
        self.arrays = arrays
        self.alive = alive

    def __len__(self) -> int:
        return len(self.arrays[0] if self.alive is None else self.alive)

    def __getitem__(self, position: int) -> tuple:
        return tuple([column.item(position) for column in self.arrays])

    def column(self, position: int):
        """Attribute ``position`` of the alive rows, as an int64 array."""
        values = self.arrays[position]
        return values if self.alive is None else values[self.alive]


class ShiftedRows:
    """A fragment's anchor rows, read by tuple id: ``rows`` is the slice
    of its relation that starts at id ``base``."""

    __slots__ = ("rows", "base")

    def __init__(self, rows: Sequence[tuple], base: int):
        self.rows = rows
        self.base = base

    def __getitem__(self, tuple_id: int) -> tuple:
        return self.rows[tuple_id - self.base]


class _KeyTable:
    """A column stage's connectors by join key: the distinct keys as
    columns, in uid (first-seen) order from ``first_uid`` on — the
    column form of a row stage's join-key dict."""

    __slots__ = ("columns", "first_uid")

    def __init__(self, columns: list, first_uid: int):
        self.columns = columns
        self.first_uid = first_uid

    def probe(self, key_columns: list):
        """Per row of ``key_columns`` its connector's uid, ``-1`` for none."""
        if not len(self.columns[0]):
            return np.full(len(key_columns[0]), -1, np.int64)
        if len(self.columns) == 1:
            keys, probes = self.columns[0], key_columns[0]
        else:
            keys, probes = vec.key_codes(*zip(self.columns, key_columns))
        order = keys.argsort()
        ordered = keys[order]
        at = ordered.searchsorted(probes)
        at[at == len(ordered)] = 0
        return np.where(ordered[at] == probes, order[at] + self.first_uid, -1)


def _scan_relation(shared: SharedLower, stage: int, relation: Relation):
    """``(store, scan_out)`` of one stage over ``relation``: the column
    stage scan where the member takes it, else the rows
    (:func:`stage_columns`) through :func:`scan_stage`, whose input list
    is the stage's row store."""
    if shared.rank_tables is not None:
        shared.rows += len(relation)
        scan_out = _scan_column_stage(shared, stage, relation.arrays)
        return scan_out[1], scan_out
    rows, weights = stage_columns(relation)
    shared.rows += len(rows)
    return rows, scan_stage(stage_scan_of(shared, stage), rows, weights, 0)


def _scan_column_stage(shared: SharedLower, stage: int, arrays: tuple):
    """:func:`scan_stage` over a column-backed relation's ``arrays``.

    Each child branch is probed with the parent's key columns against
    the child's :class:`_KeyTable`; the fold is :func:`_fold_branches`.
    The rows come back as a :class:`ColumnRows` view, the stage's row
    store; the state values as the weight column's native floats.
    """
    columns, weights = arrays
    scan = stage_scan_of(shared, stage)
    probes = [
        cmap.probe([columns[p] for p in positions])
        for _single, positions, cmap in scan.lookups
    ]
    alive, probes, w, pi, entry_values = _fold_branches(scan, probes, weights)
    ids = np.arange(len(weights)) if alive is None else alive
    rows = ColumnRows(columns, alive)
    cu_out, pk_out = _branch_columns(probes, pi)
    return entry_values, rows, _column(ids, "q"), w.tolist(), pk_out, cu_out


def _place_columns(
    shared: SharedLower, stage: int, rows: ColumnRows, entry_values, entry_ranks
) -> None:
    """:func:`_place_by_connector` for a column stage: its join keys as
    int64 codes, numbered in first-seen order as ``dict.fromkeys``
    numbers them, kept as the stage's :class:`_KeyTable`."""
    positions = shared.own_key_positions[stage]
    if not positions:  # a root: one connector
        join_keys = list(join_key_column(rows, positions))
        _place_by_connector(shared, stage, join_keys, entry_values, entry_ranks)
        return
    keys = [rows.column(p) for p in positions]
    codes = keys[0] if len(keys) == 1 else vec.key_codes(*[(k, k[:0]) for k in keys])[0]
    _distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    seen = first.argsort()
    number = np.empty(len(first), np.int64)
    number[seen] = np.arange(len(first))
    local = number[inverse.reshape(-1)]
    table = _KeyTable([key[first[seen]] for key in keys], len(shared.conn_stage))
    _place_local(shared, stage, local, len(first), entry_values, entry_ranks)
    shared.conn_maps[stage] = table


def _rank_columns_of(
    shared: SharedLower, stage: int, rows: ColumnRows, child_uids: list[int]
) -> tuple:
    """:func:`_rank_columns` of a column stage, as int64 arrays: each
    owned column's packed ranks gathered from
    :attr:`SharedLower.rank_tables` by ``searchsorted``, whose lists
    (``tolist``) equal :func:`packed_ranks`' in value and type."""
    val_rank = np.zeros(len(rows), np.int64)
    for column, slot in shared.templates[shared.order[stage]]:
        domain, packed = shared.rank_tables[slot]
        val_rank += packed[domain.searchsorted(rows.column(column))]
    branches = len(shared.children_stages[stage])
    if not branches:  # a leaf
        return val_rank, val_rank
    conn_rank = np.array(shared.conn_rank, np.int64)
    uids = np.array(child_uids, np.int64).reshape(len(rows), branches)
    return val_rank, val_rank + conn_rank[uids].sum(axis=1)


def rank_tables(tie: TieBreakingDioid) -> list | None:
    """Per slot of ``tie``, ``(domain, packed)``: its numbered values,
    ascending, and their packed ranks, as int64 arrays — or ``None``
    where a column stage cannot rank: a value that is not an ``int``, or
    ranks past int64."""
    top = sum(next(reversed(ranks.values()), 0) for ranks in tie.ranks)
    if top >= 1 << 63 or any(set(map(type, ranks)) - {int} for ranks in tie.ranks):
        return None
    return [
        (np.fromiter(ranks, np.int64, len(ranks)),
         np.fromiter(ranks.values(), np.int64, len(ranks)))
        for ranks in tie.ranks
    ]


# -- phase B: assemble one fragment's core -------------------------------------


def shared_lists(shared: SharedLower, num_fragments: int) -> dict:
    """The uid-indexed columns every fragment core of one plan aliases.

    Pre-sized to the common uid space (shared connectors first, then one
    root connector per fragment, all at the anchor stage): fragment
    slots are assigned by index, so no phase-B build resizes a shared
    column.  ``caches`` is the cores' ranking caches (Take2's heaps,
    one slot per uid; Eager's, made on its first sort).  A core without
    an inverse adds its least entries' values and ranks, an empty
    fragment's the dioid's zero and rank 0.
    """
    total = shared.num_conns + num_fragments
    lists = {
        "conn_stage": shared.conn_stage + array("q", [shared.anchor_stage]) * num_fragments,
        "caches": [[None] * total, None],
    }
    if not shared.inverse:
        lists["min_base"] = shared.conn_min + array("d", [shared.zero]) * num_fragments
        lists["min_rank"] = _grown(shared.conn_rank[:], np.zeros(num_fragments, np.int64))
    return lists


def build_fragment(
    shared: SharedLower,
    rows: Sequence[tuple],
    weights: Sequence,
    base: int,
    index: int,
    lists: dict,
) -> CompiledTDP:
    """Phase B: lower one anchor fragment and assemble its compiled core.

    ``rows`` / ``weights`` are the fragment's slice of the anchor
    relation (:func:`stage_columns`), starting at insertion position
    ``base``.  ``index`` is the fragment's slot in ``lists`` (see
    :func:`shared_lists`); fragments are built in index order, each
    once (:func:`assemble_fragment`).
    """
    scan_out = scan_stage(
        stage_scan_of(shared, shared.anchor_stage), rows, weights, base
    )
    store = rows if not base else ShiftedRows(rows, base)
    return assemble_fragment(shared, scan_out, store, index, lists)


def assemble_fragment(
    shared: SharedLower, scan_out: tuple, store, index: int, lists: dict
) -> CompiledTDP:
    """One fragment's core from its scan output over the shared columns.

    ``scan_out`` is :func:`scan_stage`'s tuple, ``store`` the anchor
    stage's rows by tuple id.  Scan states are
    sequential, so the fragment's root connector is the keys over states
    ``0 .. alive-1``, appended to the shared pool: the fragments of one
    plan come in index order, so the roots land in uid order.  Its Take2
    heap is ranked here (:func:`~repro.dp.flat.heap_layout`), as phase A
    ranks the shared connectors': every Take2 run reads it before its
    first answer.
    """
    entry_values, rows, ids_out, vk_out, pk_out, cu_out = scan_out
    multiply, negate = shared.lane
    anchor = shared.anchor_stage
    uid = shared.num_conns + index
    if len(shared.conn_offsets) != uid + 1:
        raise ValueError(f"fragment {index} assembled out of index order")

    def per_fragment(columns: list, column: list) -> list:
        """The shared per-stage ``columns`` with this fragment's anchor ``column``."""
        columns = list(columns)
        columns[anchor] = column
        return columns

    key_array = -entry_values if negate else entry_values
    val_rank = ent_rank = None
    if not shared.inverse:
        val_rank, ent_rank = _rank_columns(shared, anchor, rows, cu_out)
    empty = not len(key_array) or not shared.complete
    states = np.arange(len(key_array), dtype=np.int64)  # the root's: its positions
    if not empty:
        # The root connector's least entry, as the placement picks it.
        least = int(_least_entries(key_array, ent_rank, [0], [len(key_array)])[0])
        root = _heap_columns(
            key_array, ent_rank, states, np.array([0, len(key_array)])
        )
        if root is not None:
            lists["caches"][0][uid] = [
                None if column is None else column.tolist() for column in root
            ]
    _extend(shared.entry_key, key_array)
    _extend(shared.entry_state, states)
    shared.conn_offsets.append(len(shared.entry_key))
    if not shared.inverse:
        shared.entry_rank = _grown(shared.entry_rank, ent_rank)

    if empty:
        best = (shared.zero, 0)
    else:
        frag_min = entry_values[least].item()
        frag_rank = 0 if shared.inverse else int(ent_rank[least])
        if not shared.inverse:
            lists["min_base"][uid] = frag_min
            if frag_rank >= 1 << 63:  # past int64: ranks as Python ints
                lists["min_rank"] = list(lists["min_rank"])
            lists["min_rank"][uid] = frag_rank
        # The virtual start state: one branch per root stage, folded
        # from ``one`` in stage order exactly as ``build_tdp`` folds
        # ``best_weight``.
        total, rank = shared.one, 0
        for stage, parent in enumerate(shared.parent_stage):
            if parent != -1:
                continue
            if stage == anchor:
                value, value_rank = frag_min, frag_rank
            else:
                root = shared.root_uid[stage]
                value = shared.conn_min[root]
                value_rank = 0 if shared.inverse else shared.conn_rank[root]
            total = total * value if multiply else total + value
            rank += value_rank
        best = (total, rank)

    without_inverse: dict = {}
    if not shared.inverse:
        val_rank, ent_rank = _rank_pair(val_rank, ent_rank)
        without_inverse = dict(
            val_rank=per_fragment(shared.val_rank, val_rank),
            ent_base=per_fragment(shared.ent_base, _column(entry_values, "d")),
            ent_rank=per_fragment(shared.ent_rank, ent_rank),
            min_base=lists["min_base"],
            min_rank=lists["min_rank"],
            entry_rank=shared.entry_rank,
        )
    root_uid = dict(shared.root_uid)
    root_uid[anchor] = uid
    core_class = CompiledTDP if shared.templates is None else LaneCore
    return core_class.assemble(
        dioid=shared.dioid,
        query=shared.query,
        join_tree=shared.tree,
        atom_of_stage=shared.order,
        parent_stage=shared.parent_stage,
        tuples=per_fragment(shared.tuples, store),
        tuple_ids=per_fragment(shared.tuple_ids, ids_out),
        lane=shared.lane,
        one=shared.one,
        val_base=per_fragment(shared.val_base, vk_out),
        pi1=per_fragment(shared.pi1, pk_out),
        child_uids=per_fragment(shared.child_uids, cu_out),
        conn_stage=lists["conn_stage"],
        root_uid=root_uid,
        best=best,
        empty=empty,
        conn_offsets=shared.conn_offsets,
        entry_key=shared.entry_key,
        entry_state=shared.entry_state,
        caches=lists["caches"],
        heap_columns=shared.heap_columns,
        **without_inverse,
    )


def _lower_whole(database: Database, shared: SharedLower) -> CompiledTDP:
    """Phase B over the whole anchor relation (stage 0): one fragment.
    ``shared.rows`` then counts every stage."""
    relation = database[shared.query.atoms[shared.order[0]].relation_name]
    store, scan_out = _scan_relation(shared, 0, relation)
    return assemble_fragment(shared, scan_out, store, 0, shared_lists(shared, 1))


def lower_query(
    database: Database, tree: JoinTree, dioid: SelectiveDioid, span=NULL_SPAN
) -> CompiledTDP:
    """The whole bottom-up pass: phase A, then one all-spanning fragment.

    The anchor is stage 0 of ``tree`` — the first root, which the object
    builder also processes last — so the core is the one
    ``compile_tdp(build_tdp(database, tree, dioid))`` would produce,
    without the object graph in between; the core holds the rows result
    assembly reads.  ``span``
    (the caller's ``tdp.build``) is told how many input rows the pass
    scanned over how many stages.
    """
    shared = build_shared_lower(database, tree.query, tree, dioid, anchor_stage=0)
    core = _lower_whole(database, shared)
    span.set(rows=shared.rows, stages=shared.num_stages)
    return core


def lower_member(
    database: Database,
    join_tree: JoinTree,
    tie: TieBreakingDioid,
    var_position: dict[str, int],
    lane: FloatLane,
    tables: list | None,
) -> LaneCore:
    """Lower one union member to a :class:`~repro.dp.flat.LaneCore`.

    The same sweep as :func:`lower_query`, ranked under ``tie`` — which
    must have numbered its domains
    (:func:`~repro.dp.builder.rank_tie_domains`) — with the packed-rank
    column of the variables each stage owns; ``lane`` is
    :func:`member_lane`'s and ``tables`` ``tie``'s :func:`rank_tables`,
    made once for all the members.  Its columns and ranks are
    ``build_tdp``'s under ``tie`` and its lift, with no ``times`` or
    ``key`` call.
    """
    shared = build_shared_lower(
        database, join_tree.query, join_tree, tie, 0, lane,
        owned_columns(join_tree, var_position),
        tables if member_columns(database, join_tree) else None,
    )
    return _lower_whole(database, shared)


def member_columns(database: Database, join_tree: JoinTree) -> bool:
    """Whether every stage of the member takes the column stage scan:
    each relation holds columns (a cycle decomposition's bags,
    :meth:`~repro.data.relation.Relation.from_columns`) and no atom
    repeats a variable.  The stages still lower from their rows where
    :func:`rank_tables` could not rank."""
    return all(
        database[atom.relation_name].arrays is not None
        and not atom.has_repeated_variables()
        for atom in join_tree.query.atoms
    )
