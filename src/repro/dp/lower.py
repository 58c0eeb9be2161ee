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

**One stage-input shape.**  Every caller hands a stage to
:func:`scan_stage` as two parallel sequences, rows (at atom arity) and
weights (:func:`stage_columns`): the two lists an in-memory relation
stores, or a backend's one bulk ``fetch_rows`` split once.  No per-row
container carries a weight next to its row.  The rows sequence is
also the stage's **row store**: the core keeps it as it came and result
assembly reads it at a state's tuple id, so no stage keeps a list of
its alive rows.

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
stage 0's root connector last.  No entry becomes a tuple; only a
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
max-times) with its rank column (:func:`_rank_columns`).  A union
member whose bags are columns (a cycle decomposition's,
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

The sweep runs the stages in reverse serialised order, children before
parents, so stage 0 — the first root, which the object builder also
processes last — is placed last and its root connector takes the last
uid.  :func:`lower_query` and :func:`lower_member` are its two entry
points.

Dioids without a lane (and members over them), the UCQ pipeline, the
min-weight projection and ``DPProblem`` keep the object builder, which
reads the same stage-input shape (:func:`stage_columns`,
:func:`join_key_column`).
"""

from __future__ import annotations

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


def stage_columns(relation: Relation) -> tuple[Sequence[tuple], Sequence]:
    """One stage's input: ``(rows, weights)``, parallel and order-stable.

    Rows are at atom arity.  An in-memory relation hands over the two
    lists it stores; a backend-stored, unmaterialised one splits its
    bulk ``fetch_rows`` result (a single ``fetchall`` for SQLite) once.
    """
    backend = relation.backend
    if backend is not None and not relation.is_materialized:
        fetched = backend.fetch_rows(relation.table)
        return [row[:-1] for row in fetched], [row[-1] for row in fetched]
    return relation.tuples, relation.weights


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
        "conn_rank", "conn_maps", "root_uid",
        "own_key_positions", "parent_key_positions", "rows",
        "rank_tables",
    )

    def __init__(
        self, query, tree: JoinTree, dioid: SelectiveDioid,
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
        #: Per stage: join key -> connector uid (a parent stage's scan
        #: resolves its child branches against these).
        self.conn_maps: list[dict] = [dict() for _ in range(self.num_stages)]
        #: Root stage -> its root connector's uid (absent: no state).
        self.root_uid: dict[int, int] = {}
        #: Input rows scanned.
        self.rows = 0

    def child_lookups(self, stage: int):
        """Per child branch: ``(positions, conn_map)``, the join-key
        columns in this stage's atom and the child's connectors by key."""
        return [
            (self.parent_key_positions[c], self.conn_maps[c])
            for c in self.children_stages[stage]
        ]


def _rank_columns(
    low: Lowering, stage: int, rows: Sequence[tuple], child_uids: list[int]
) -> tuple:
    """``(val_rank, ent_rank)`` of one stage of a core without an inverse:
    zeros without a tie-breaker, else the packed ranks of the variables
    the stage owns plus, for the entry, the child connectors' least ranks.
    Arrays (:func:`_rank_array`; one array where a leaf's two are one).
    """
    if low.templates is None:
        zeros = np.zeros(len(rows), np.int64)
        return zeros, zeros
    if isinstance(rows, ColumnRows):
        return _rank_columns_of(low, stage, rows, child_uids)
    packed = packed_ranks(
        low.dioid.ranks, low.templates[low.order[stage]], rows
    )
    val_rank = [0] * len(rows) if packed is None else list(packed)
    branches = len(low.children_stages[stage])
    conn_rank = low.conn_rank
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
    low: Lowering, stage: int, join_keys: list, entry_values, entry_ranks=None
) -> None:
    """Key one stage's entry values and place its states into connectors.

    A connector per distinct join key in first-seen order, its entries
    (key and state, and the rank with ``entry_ranks``) appended to the
    pool's columns in state order, its minimum the value of ``min()``
    over them.  Nothing is ordered by weight: first-seen uids
    come from ``dict.fromkeys``, then :func:`_place_local` moves every
    state into its connector's range.
    """
    first_uid = len(low.conn_stage)
    cmap_out = low.conn_maps[stage]
    cmap_out.update(zip(dict.fromkeys(join_keys), count(first_uid)))
    local = np.fromiter(
        map(cmap_out.__getitem__, join_keys), np.int64, len(entry_values)
    )
    local -= first_uid
    _place_local(low, stage, local, len(cmap_out), entry_values, entry_ranks)


def _place_keyless(low: Lowering, stage: int, entry_values, entry_ranks) -> None:
    """:func:`_place_by_connector` for a stage that shares no variable
    with a parent — a root: every state joins key ``()``, so the stage
    has one connector (none without states) and no key is built or
    probed per state."""
    if len(entry_values):
        low.conn_maps[stage][()] = len(low.conn_stage)
    local = np.zeros(len(entry_values), np.int64)
    conns = len(low.conn_maps[stage])
    _place_local(low, stage, local, conns, entry_values, entry_ranks)


def _place_local(
    low: Lowering, stage: int, local, conns: int, entry_values, entry_ranks
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


class StageScan:
    """One stage scan's inputs, read off a :class:`Lowering` once
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


def stage_scan_of(low: Lowering, stage: int) -> StageScan:
    atom = low.query.atoms[low.order[stage]]
    return StageScan(
        atom, low.child_lookups(stage), low.lane, low.one, low.conn_min
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


def scan_stage(scan: StageScan, rows: Sequence[tuple], weights: Sequence):
    """Lower one stage's ``rows`` and parallel ``weights`` to flat columns.

    The one per-row pass of the bottom-up sweep: drop rows violating a
    repeated variable or lacking a join partner in some child branch,
    fold the child connectors' minima into ``pi1`` from ``one``, and
    multiply the weight by it.  A state's tuple id is its row's position
    in ``rows``.  Returns
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
    ids = np.arange(len(rows))
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
        for positions, cmap in scan.lookups
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


def _scan_relation(low: Lowering, stage: int, relation: Relation):
    """``(store, scan_out)`` of one stage over ``relation``: the column
    stage scan where the member takes it, else the rows
    (:func:`stage_columns`) through :func:`scan_stage`, whose input list
    is the stage's row store."""
    if low.rank_tables is not None:
        low.rows += len(relation)
        scan_out = _scan_column_stage(low, stage, relation.arrays)
        return scan_out[1], scan_out
    rows, weights = stage_columns(relation)
    low.rows += len(rows)
    return rows, scan_stage(stage_scan_of(low, stage), rows, weights)


def _scan_column_stage(low: Lowering, stage: int, arrays: tuple):
    """:func:`scan_stage` over a column-backed relation's ``arrays``.

    Each child branch is probed with the parent's key columns against
    the child's :class:`_KeyTable`; the fold is :func:`_fold_branches`.
    The rows come back as a :class:`ColumnRows` view, the stage's row
    store; the state values as the weight column's native floats.
    """
    columns, weights = arrays
    scan = stage_scan_of(low, stage)
    probes = [
        cmap.probe([columns[p] for p in positions])
        for positions, cmap in scan.lookups
    ]
    alive, probes, w, pi, entry_values = _fold_branches(scan, probes, weights)
    ids = np.arange(len(weights)) if alive is None else alive
    rows = ColumnRows(columns, alive)
    cu_out, pk_out = _branch_columns(probes, pi)
    return entry_values, rows, _column(ids, "q"), w.tolist(), pk_out, cu_out


def _place_columns(
    low: Lowering, stage: int, rows: ColumnRows, entry_values, entry_ranks
) -> None:
    """:func:`_place_by_connector` for a column stage: its join keys as
    int64 codes, numbered in first-seen order as ``dict.fromkeys``
    numbers them, kept as the stage's :class:`_KeyTable`."""
    keys = [rows.column(p) for p in low.own_key_positions[stage]]
    codes = keys[0] if len(keys) == 1 else vec.key_codes(*[(k, k[:0]) for k in keys])[0]
    _distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    seen = first.argsort()
    number = np.empty(len(first), np.int64)
    number[seen] = np.arange(len(first))
    local = number[inverse.reshape(-1)]
    table = _KeyTable([key[first[seen]] for key in keys], len(low.conn_stage))
    _place_local(low, stage, local, len(first), entry_values, entry_ranks)
    low.conn_maps[stage] = table


def _rank_columns_of(
    low: Lowering, stage: int, rows: ColumnRows, child_uids: list[int]
) -> tuple:
    """:func:`_rank_columns` of a column stage, as int64 arrays: each
    owned column's packed ranks gathered from
    :attr:`Lowering.rank_tables` by ``searchsorted``, whose lists
    (``tolist``) equal :func:`packed_ranks`' in value and type."""
    val_rank = np.zeros(len(rows), np.int64)
    for column, slot in low.templates[low.order[stage]]:
        domain, packed = low.rank_tables[slot]
        val_rank += packed[domain.searchsorted(rows.column(column))]
    branches = len(low.children_stages[stage])
    if not branches:  # a leaf
        return val_rank, val_rank
    conn_rank = np.array(low.conn_rank, np.int64)
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


# -- the sweep -------------------------------------------------------------------


def _lower(
    database: Database, query, tree: JoinTree, dioid: SelectiveDioid,
    lane: FloatLane | None = None, templates: dict | None = None,
    rank_tables: list | None = None, span=NULL_SPAN,
) -> CompiledTDP:
    """The bottom-up pass over every stage of ``tree``, to one core.

    Mirrors :func:`repro.dp.builder.build_tdp` stage by stage — same row
    order, same alive filter, same fold from ``one`` — in value space,
    so the columns are the object builder's values and the entry keys
    their ``key`` images, in bits.  Each stage is one :func:`scan_stage`
    over its relation, then its alive states are placed into connectors
    by their join key with the parent (first-seen order, like the
    object builder's).  ``lane`` defaults to ``lane_of(dioid)``;
    ``templates`` (:func:`owned_columns`) asks for the packed-rank
    column of a tie-broken ``dioid``, and ``rank_tables`` the column
    stage scan (:func:`lower_member`).  Take2's heaps are ranked once,
    over the whole pool (:func:`_heap_columns`), and the root's is cut
    at bind: every Take2 run reads it before its first answer.  ``span``
    is told how many input rows the pass scanned over how many stages.
    """
    low = Lowering(query, tree, dioid, lane, templates, rank_tables)
    for stage in reversed(range(low.num_stages)):
        relation = database[query.atoms[low.order[stage]].relation_name]
        store, (entry_values, kept, ids_out, vk_out, pk_out, cu_out) = (
            _scan_relation(low, stage, relation)
        )
        low.tuples[stage] = store
        low.tuple_ids[stage] = ids_out
        low.val_base[stage] = vk_out
        low.pi1[stage] = pk_out
        low.child_uids[stage] = cu_out
        entry_ranks = None
        if not low.inverse:
            val_rank, entry_ranks = _rank_columns(low, stage, kept, cu_out)
            low.val_rank[stage], low.ent_rank[stage] = _rank_pair(val_rank, entry_ranks)
            low.ent_base[stage] = _column(entry_values, "d")

        if not low.own_key_positions[stage]:
            _place_keyless(low, stage, entry_values, entry_ranks)
        elif isinstance(kept, ColumnRows):
            _place_columns(low, stage, kept, entry_values, entry_ranks)
        else:
            join_keys = list(join_key_column(kept, low.own_key_positions[stage]))
            _place_by_connector(low, stage, join_keys, entry_values, entry_ranks)
        if low.parent_stage[stage] == -1 and () in low.conn_maps[stage]:
            low.root_uid[stage] = low.conn_maps[stage][()]

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
    return _lower(
        database, join_tree.query, join_tree, tie, lane,
        owned_columns(join_tree, var_position),
        tables if member_columns(database, join_tree) else None,
    )


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
