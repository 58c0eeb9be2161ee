"""Compiled flat enumeration core: the T-DP as parallel arrays.

Enumerating over the object-graph :class:`~repro.dp.graph.TDP` walks
:class:`~repro.dp.graph.ChoiceSet` objects holding boxed ``(key, state,
value)`` triples and dispatches every weight combination through
``SelectiveDioid.times``/``key``.  A :class:`CompiledTDP` is the same
state space as flat, cache-friendly parallel structures, plus the rows
result assembly reads (``tuples`` / ``tuple_ids``, the query): a core is
a whole T-DP on its own, with no object graph behind it.

Every number column is a typed array (``array.array``) in a lowered
core and a typed view (``memoryview.cast``) in a mapped ``.core``
file's, so a bound core gives the cycle collector a few references per
stage to walk, not several per state; a :func:`compile_tdp` core keeps
its object graph's lists.  Reading an element boxes a native ``int`` /
``float``, which measured no slower than a list in the kernels: 20 000
Take2 answers over the ``enum_extend`` benchmark's 4-path core took
111 ms reading ``conn_of`` typed and 128 ms reading it as lists (min of
15, 2-vCPU host).

* ``val_base`` / ``pi1`` — per-stage state values (the stored weight
  objects, a list per stage) and their ``pi1`` values;
* ``tuples`` / ``tuple_ids`` — per stage a row store read by tuple id
  (:func:`~repro.dp.lower.row_store`: a relation's own list or a
  :class:`~repro.dp.lower.ColumnRows` over its image), or, in a mapped
  ``.core``, a :class:`~repro.dp.lower.ColumnRows` of the rows read
  state by state; and each state's tuple id;
* ``child_uids`` — the ``child_conns`` adjacency flattened to one
  integer array per stage (``state * num_branches + branch`` indexing),
  plus ``root_uid`` for the virtual start state's branches;
* connector entries as one CSR pool of columns: connector ``uid`` owns
  positions ``conn_offsets[uid] .. conn_offsets[uid + 1]`` of
  ``entry_key`` and ``entry_state`` (and ``entry_rank`` in a core
  without an inverse; a list where a rank passes int64).  A lowered
  core pools each connector's entries by state, one compiled from an
  object ``TDP`` in its builder's order (the order its object path
  heapifies); ties break by state either way.  No entry is a
  tuple: Take2's static heap and Eager's sorted order are the entries'
  states, keys and ranks as lists in that order
  (:meth:`CompiledTDP.take2_heap`, :meth:`CompiledTDP.sorted_order`).
  A lowered core ranks Take2's heaps at bind, the paper's linear pass
  (:func:`heap_layout`), and a first touch cuts a connector's lists from
  the result; Eager sorts on first touch, into a cache made on its
  first sort.

Every core is run by its dioid's lane (:func:`~repro.ranking.dioid.
lane_of`): ``times`` as native ``+`` or ``*`` folded from ``one``, the
key the value or its negation; the columns hold values and only the
entries are keyed.  Section 6.2's two ways to get a sibling's weight
are the slot ``inverse``, the dioid's ``has_inverse``: with one
(tropical, max-plus) the key is ``total − entry + succ``; without
(max-times, a tie-broken union member) the total is recomputed from the
prefix, so the core also holds entry values (``ent_base``), least
entries (``min_base``) and a rank lane (``val_rank`` / ``ent_rank`` /
``min_rank`` and the pool's ``entry_rank``, zeros without a
tie-breaker).  A tie-broken member's core is a :class:`LaneCore`, whose
answers are ``(base, rank)`` pairs.

:mod:`repro.dp.lower` builds a core straight from the relations and
:mod:`repro.dp.corebuf` maps one from a ``.core`` file, both through
:meth:`CompiledTDP.assemble`.  :func:`compile_tdp` lowers an object
``TDP`` handed to :func:`~repro.anyk.base.make_enumerator` (``DPProblem``,
tests and benchmarks comparing the two enumerator families) to the same
arrays, sharing its row lists, and returns ``None`` for a dioid without
a lane; that core is memoized on the ``TDP`` (``TDP._compiled``), and
points nowhere back.  Physical plans hold cores themselves, one shared
by every algorithm variant and serving session of a database version; a
tropical or max-plus core is also persistable (the dioid travelling by
``NAMED_DIOIDS`` name).
"""

from __future__ import annotations

import sys
from array import array
from heapq import heapify as _heapify
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Any, Callable

import numpy as np

from repro.dp.graph import TDP, ResultAssembler, stage_tree
from repro.ranking.dioid import lane_of

#: Connector size from which :func:`_sorted_positions` prefers a numpy
#: ``lexsort`` of the pool columns over ``sorted`` on tuples.
_VEC_SORT_MIN = 64

_position = itemgetter(-1)


def _keyed(key, rank, state, lo: int, hi: int) -> list[tuple]:
    """Temporary ``(key[, rank], state, position)`` tuples of pool
    positions ``lo .. hi``, in pool order.

    A connector's states are distinct, so these compare as its
    ``(key[, rank], state)`` entries do — ties, ±0.0 and NaN keys (each
    its own object, as in the pool) included — and the position only
    travels along.
    """
    if rank is None:
        return list(zip(key[lo:hi], state[lo:hi], range(lo, hi)))
    return list(zip(key[lo:hi], rank[lo:hi], state[lo:hi], range(lo, hi)))


def _heap_positions(key, rank, state, lo: int, hi: int) -> list[int]:
    """Pool positions ``lo .. hi`` in ``heapify``'s layout of the entries,
    by heapifying temporary :func:`_keyed` tuples: a connector no
    :func:`heap_layout` covers (NaN keys, ranks past int64, a core that
    was not lowered)."""
    keyed = _keyed(key, rank, state, lo, hi)
    _heapify(keyed)
    return list(map(_position, keyed))


def _sorted_positions(key, rank, state, lo: int, hi: int) -> list[int]:
    """Pool positions ``lo .. hi`` in ``sorted``'s order of the entries.

    From :data:`_VEC_SORT_MIN` entries a ``lexsort`` of the key column
    (float64), the rank column and the state column (int64) gives the
    same order; a rank too wide for int64 keeps ``sorted``, and so does
    a NaN key (``lexsort`` puts it last, ``sorted`` where it meets it).
    """
    if hi - lo < 2:
        return list(range(lo, hi))
    if hi - lo >= _VEC_SORT_MIN:
        keys = np.asarray(key[lo:hi], np.float64)
        if not np.isnan(keys).any():
            try:
                columns = [np.asarray(state[lo:hi], np.int64), keys]
                if rank is not None:
                    columns.insert(1, np.array(rank[lo:hi], np.int64))
            except OverflowError:
                pass
            else:
                return (np.lexsort(columns) + lo).tolist()
    return list(map(_position, sorted(_keyed(key, rank, state, lo, hi))))


def heap_layout(keys, ranks, offsets):
    """Every connector's ``heapify`` layout, with no tuple: an array of
    positions into ``keys``, connector ``c``'s at ``offsets[c] ..
    offsets[c + 1]``; ``None`` for a NaN key or ranks that are not int64.

    ``keys`` (float64) and ``ranks`` (int64, or ``None``) are pool
    columns as arrays, in pool order, a connector's entries by state (a
    lowered core's), so they compare as their tuples ``(key[, rank],
    state)`` do when ``(key[, rank], position)`` do: the key (``0.0 ==
    -0.0``), on a tie the rank, then the position.  CPython's
    ``heapify`` sifts each node once its children are heaps: ``siftup``
    walks the lesser child up to a leaf, ``siftdown`` climbs back while
    less than the parent.  The sifts of one tree level touch disjoint
    subtrees, in one connector and across connectors, so each level runs
    as one vector step per depth — in any order, to the same layout.  A
    NaN compares as no Python object does twice, so it is left to the
    tuples (:func:`_heap_positions`).
    """
    if np.isnan(keys).any() or (ranks is not None and ranks.dtype != np.int64):
        return None
    heap = np.arange(len(keys))
    held = keys.copy()  # the keys, in heap layout
    base = offsets[:-1]
    sizes = offsets[1:] - base
    half = sizes >> 1  # per connector, its first slot without a child

    def less(i, j):
        key_i, key_j = held[i], held[j]
        below = key_i < key_j
        tie = key_i == key_j
        if tie.any():
            at_i, at_j = heap[i], heap[j]
            first = at_i < at_j
            if ranks is not None:
                rank_i, rank_j = ranks[at_i], ranks[at_j]
                first = (rank_i < rank_j) | ((rank_i == rank_j) & first)
            below |= tie & first
        return below

    def swap(i, j):
        heap[i], heap[j] = heap[j], heap[i]
        held[i], held[j] = held[j], held[i]

    for level in reversed(range(int(half.max(initial=0)).bit_length())):
        first = (1 << level) - 1
        conns = np.flatnonzero(half > first)
        counts = np.minimum(half[conns], 2 * first + 1) - first
        owner = np.repeat(conns, counts)
        lo = base[owner]
        nth = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        start = lo + first + nth
        slot = start.copy()
        moving = np.arange(len(owner))
        at, low, end, limit = slot, lo, lo + sizes[owner], lo + half[owner]
        while len(moving):  # siftup: the lesser child up, down to a leaf
            child = 2 * at - low + 1
            child += (child + 1 < end) & ~less(child, np.minimum(child + 1, end - 1))
            swap(at, child)
            slot[moving] = child
            deeper = child < limit
            moving, at = moving[deeper], child[deeper]
            low, end, limit = low[deeper], end[deeper], limit[deeper]
        moving = np.flatnonzero(slot > start)
        while len(moving):  # siftdown: back up while less than the parent
            at = slot[moving]
            low = lo[moving]
            parent = ((at - low - 1) >> 1) + low
            up = less(at, parent)
            moving, at, parent = moving[up], at[up], parent[up]
            swap(at, parent)
            slot[moving] = parent
            moving = moving[parent > start[moving]]
    return heap


def _seq_bytes(seq: Any, seen: set[int]) -> int:
    """Heap-byte estimate of one compiled-core column.

    ``memoryview`` columns are mmap-backed and count zero; a typed
    array (``array.array``, ``numpy``) counts its own size.  Lists of
    scalars/tuples are estimated from their first element (columns are
    homogeneous), so the walk is O(nesting).  ``seen``
    holds the ``id`` of every container already counted, so a column
    two cores hold is counted once.
    """
    if isinstance(seq, memoryview) or seq is None or id(seq) in seen:
        return 0
    seen.add(id(seq))
    if isinstance(seq, (list, tuple)):
        total = sys.getsizeof(seq)
        sample = next((item for item in seq if item is not None), None)
        if sample is None:
            return total
        if isinstance(sample, (list, memoryview, np.ndarray, array)):
            for item in seq:  # ragged columns (per-stage / per-connector)
                total += _seq_bytes(item, seen)
        elif isinstance(sample, tuple):
            total += _seq_bytes(sample, set()) * len(seq)  # homogeneous rows
        else:
            total += sys.getsizeof(sample) * len(seq)
        return total
    return sys.getsizeof(seq)


class CompiledTDP:
    """A T-DP as flat arrays, run by its dioid's lane.

    Read-only after construction; every per-run mutable structure (heap
    orders, sorted prefixes, memoized solution lists) lives in the
    enumerators of :mod:`repro.anyk.flat`.  Owns what result assembly
    reads — ``query``, ``join_tree``, ``atom_of_stage``, per-stage row
    stores (``tuples``, read by tuple id; an object graph's rows state
    by state in a :func:`compile_tdp` core) and ``tuple_ids`` — and
    memoizes one
    :class:`~repro.dp.graph.ResultAssembler` per head (:meth:`assembler`):
    witness tuples and variable assignments are materialised from the
    states when an answer is read, never carried through candidate
    queues.

    The lane slots say which arithmetic the kernels run (see the module
    docstring): ``lane``, ``one``, ``inverse``, and — ``None`` where the
    core has an inverse — ``ent_base`` / ``ent_rank`` / ``val_rank`` per
    stage and ``min_base`` / ``min_rank`` per connector.  ``best`` is
    ``(total, rank)`` of the best answer (the zero when there is none),
    ``best_key`` its key; a total is its key, or the key negated,
    exactly, so the kernels carry keys only.

    ``CompiledTDP(tdp)`` lowers an object graph, taking its rows by
    reference; :meth:`assemble` wraps columns that were produced without
    one (:mod:`repro.dp.lower`, :mod:`repro.dp.corebuf`).
    """

    __slots__ = (
        "dioid", "query", "join_tree", "atom_of_stage", "tuples",
        "tuple_ids", "_assemblers", "num_stages", "num_connectors",
        "parent_stage", "children_stages", "branch_index", "num_branches",
        "val_base", "pi1", "conn_offsets", "entry_key", "entry_state",
        "entry_rank", "conn_stage", "child_uids", "conn_of", "stage_meta",
        "root_stages", "root_uid", "best_key", "empty", "is_chain",
        "_take2_heaps", "_caches", "heap_columns", "lane", "one",
        "inverse", "val_rank", "ent_base", "ent_rank", "min_base", "min_rank",
        "best", "rows_by_id",
    )

    def __init__(self, tdp: TDP):
        dioid = tdp.dioid
        lane, why = lane_of(dioid)
        if lane is None:
            raise ValueError(why)

        # Collect every reachable connector by uid.  (The builder also
        # creates join-key groups no parent references; their uids get
        # empty CSR slices and are never touched.)
        conns: list = [None] * tdp.num_connectors
        for stage_conns in tdp.child_conns:
            for state_conns in stage_conns:
                for conn in state_conns:
                    conns[conn.uid] = conn
        for conn in tdp.root_conn.values():
            conns[conn.uid] = conn

        # The CSR entry pool, roots included, in uid order; a connector's
        # entries in its own order, which the object path heapifies too
        # (``DPProblem``'s come from a set, not by state).
        entry_key: list = []
        entry_state: list = []
        conn_stage = [-1] * tdp.num_connectors
        offsets = [0]
        for uid, conn in enumerate(conns):
            if conn is not None:
                conn_stage[uid] = conn.stage
                entry_key += map(itemgetter(0), conn.entries)
                entry_state += map(itemgetter(1), conn.entries)
            offsets.append(len(entry_key))

        child_uids = [
            [conn.uid for state_conns in tdp.child_conns[stage] for conn in state_conns]
            for stage in range(tdp.num_stages)
        ]
        # The value columns are the object graph's own; only a core
        # without an inverse needs its entry values, least entries and
        # (zero) ranks besides.
        without_inverse: dict = {}
        if not dioid.has_inverse:
            times = mul if lane.multiply else add
            zeros = [[0] * len(values) for values in tdp.values]
            without_inverse = dict(
                val_rank=zeros,
                ent_base=[list(map(times, v, p)) for v, p in zip(tdp.values, tdp.pi1)],
                ent_rank=zeros,
                min_base=[None if conn is None else conn.min_value for conn in conns],
                min_rank=[0] * tdp.num_connectors,
                entry_rank=[0] * len(entry_key),
            )
        self._fill(
            dioid=dioid,
            query=tdp.query,
            join_tree=tdp.join_tree,
            atom_of_stage=tdp.atom_of_stage,
            parent_stage=tdp.parent_stage,
            tuples=tdp.tuples,
            tuple_ids=tdp.tuple_ids,
            lane=lane,
            one=dioid.one,
            val_base=tdp.values,
            pi1=tdp.pi1,
            child_uids=child_uids,
            conn_stage=conn_stage,
            root_uid={stage: conn.uid for stage, conn in tdp.root_conn.items()},
            best=(tdp.best_weight, 0),
            empty=tdp.is_empty(),
            conn_offsets=offsets,
            entry_key=entry_key,
            entry_state=entry_state,
            rows_by_id=False,
            **without_inverse,
        )

    @classmethod
    def assemble(cls, **columns) -> "CompiledTDP":
        """A core over ready-made ``columns`` (see :meth:`_fill`)."""
        self = cls.__new__(cls)
        self._fill(**columns)
        return self

    def _fill(
        self, *, dioid, query, join_tree, atom_of_stage, parent_stage,
        tuples, tuple_ids, lane, one, val_base, pi1, child_uids,
        conn_stage, root_uid, best, empty, conn_offsets, entry_key,
        entry_state, heap_columns=None, val_rank=None,
        ent_base=None, ent_rank=None, min_base=None, min_rank=None,
        entry_rank=None, rows_by_id=True,
    ) -> None:
        """Set every slot from the stored columns plus derived layout.

        ``atom_of_stage`` / ``parent_stage`` are the stage layout
        (children, roots and branch positions derive from it), ``tuples``
        / ``tuple_ids`` the rows result assembly reads: per stage a row
        store read by tuple id (``rows_by_id``), or, in a
        :func:`compile_tdp` core, the object graph's rows state by state.

        ``_caches`` is ``[take2_heaps, sorted_orders]`` (Take2's
        uid-indexed heaps, and Eager's, ``None`` until its first sort),
        made here; ``heap_columns`` holds Take2's heaps
        of the connectors ranked at bind (:func:`heap_layout`).  A
        ranking structure is built once and reused by every algorithm
        and serving session.  The entry-value, least-entry and rank
        columns are those of a core without an inverse (the dioid's
        ``has_inverse``).
        """
        self.dioid = dioid
        self.query = query
        self.join_tree = join_tree
        self.atom_of_stage = atom_of_stage
        self.tuples = tuples
        self.tuple_ids = tuple_ids
        #: Whether ``tuples[s]`` is read at ``tuple_ids[s][state]`` (a
        #: row store) or at ``state`` (an object graph's rows).
        self.rows_by_id = rows_by_id
        #: head -> :class:`~repro.dp.graph.ResultAssembler` (:meth:`assembler`).
        self._assemblers = {}
        num_stages = self.num_stages = len(parent_stage)
        uid_space = self.num_connectors = len(conn_stage)
        self.parent_stage = parent_stage
        children_stages, root_stages, branch_index = stage_tree(parent_stage)
        self.children_stages = children_stages
        self.root_stages = root_stages
        self.branch_index = branch_index
        #: Branch fan-out per stage (row width of ``child_uids``).
        num_branches = self.num_branches = list(map(len, children_stages))
        #: Per-stage state values (the stored weight objects where
        #: lowered, so an ``int`` weight stays one) and pi1 values, a
        #: typed array where lowered: no loop reads ``pi1`` (a ``.core``
        #: export copies it), and a typed column costs the collector no
        #: walk per state where a list costs one; a kernel read boxes a
        #: number, measured no slower (module docstring).
        self.val_base = val_base
        self.pi1 = pi1
        #: The CSR entry pool: connector ``uid`` owns positions
        #: ``conn_offsets[uid] .. conn_offsets[uid + 1]`` of the columns.
        self.conn_offsets = conn_offsets
        self.entry_key = entry_key
        self.entry_state = entry_state
        #: Per entry its rank; ``None`` where the core has an inverse.
        self.entry_rank = entry_rank
        #: Connector uid -> owning stage (-1: never referenced).
        self.conn_stage = conn_stage
        #: Flattened adjacency: ``child_uids[s][state * num_branches[s]
        #: + b]`` is the connector uid governing branch ``b`` of that
        #: state (empty for leaf stages).
        self.child_uids = child_uids
        #: Per *non-root* stage ``s``: the connector uid governing ``s``
        #: indexed directly by the parent's state —
        #: ``conn_of[s][parent_state]`` replaces the
        #: ``child_uids[parent][state * fanout + branch]`` multiply-add
        #: on the enumeration hot path (``None`` for root stages, whose
        #: single connector is in :attr:`root_uid`).  The parent's own
        #: column where it has one branch, else a strided copy.
        self.conn_of = [
            None if parent == -1
            else child_uids[parent] if num_branches[parent] == 1
            else child_uids[parent][branch_index[stage]::num_branches[parent]]
            for stage, parent in enumerate(parent_stage)
        ]
        self.lane = lane
        self.one = one
        #: Whether ``lane`` has an inverse: a sibling's key is then derived by
        #: subtraction (``total − entry + succ``), not from its prefix.
        self.inverse = dioid.has_inverse
        self.val_rank = val_rank
        self.ent_base = ent_base
        self.ent_rank = ent_rank
        self.min_base = min_base
        self.min_rank = min_rank
        self.best = best
        self.best_key = -best[0] if lane.negate else best[0]
        #: Per-stage hot metadata ``(branch_count, own_values, own_ranks,
        #: child_uid_row, stage)``, read through ``conn_stage`` — one
        #: index + unpack replaces five attribute/index chains in
        #: Recursive's ``ensure``.
        self.stage_meta = [
            (
                num_branches[s], val_base[s],
                None if val_rank is None else val_rank[s], child_uids[s], s,
            )
            for s in range(num_stages)
        ]
        self.root_uid = root_uid
        #: Serpentine/path shape: every stage's parent is the previous
        #: stage (single root, no branching).  The enumerators install
        #: chain-specialised loops for this, the most common join-tree
        #: layout (path queries, cycle-decomposition members).
        self.is_chain = all(
            parent_stage[j] == j - 1 for j in range(num_stages)
        )
        self.empty = empty
        # Per-connector ranking structures, lists of numbers that are
        # *read-only once built* and therefore shared across every
        # enumerator run (and every concurrent session) over this core,
        # filled on first touch: Take2's static heap order — heapified
        # once, never popped (that is the whole point of Take2), so one
        # array serves all runs where the object path re-heapifies per
        # run — and Eager's sorted order, whose uid-indexed list is made
        # on Eager's first sort (:meth:`sorted_orders`).
        self._caches = [[None] * uid_space, None]
        self._take2_heaps = self._caches[0]
        #: Take2's heap of every connector ranked at bind, from pool
        #: position 0 (:func:`heap_layout`): the ``(states, keys, ranks)``
        #: arrays in heap layout (``ranks`` ``None`` with an inverse), or
        #: ``None``; a connector's first touch cuts its lists from them.
        self.heap_columns = heap_columns

    def __getstate__(self) -> dict:
        # Assemblers hold compiled functions: derived, not picklable,
        # rebuilt on first use wherever the core lands.
        state = {name: getattr(self, name) for name in CompiledTDP.__slots__}
        state["_assemblers"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    # -- accessors -----------------------------------------------------------

    def assembler(self, head: tuple[str, ...] | None = None) -> ResultAssembler:
        """The :class:`~repro.dp.graph.ResultAssembler` for ``head``,
        compiled on first use (a benign race, as :meth:`take2_heap`'s)."""
        assembler = self._assemblers.get(head)
        if assembler is None:
            assembler = self._assemblers[head] = ResultAssembler(self, head)
        return assembler

    def pairs(self, uid: int) -> list[tuple]:
        """A new list of connector ``uid``'s entries as tuples, in pool
        order: ``(key, state)``, or ``(key, rank, state)`` where the core
        has no inverse.  Made per call, for a Lazy or All run's views."""
        lo, hi = self.conn_offsets[uid], self.conn_offsets[uid + 1]
        if self.entry_rank is None:
            return list(zip(self.entry_key[lo:hi], self.entry_state[lo:hi]))
        return list(
            zip(self.entry_key[lo:hi], self.entry_rank[lo:hi], self.entry_state[lo:hi])
        )

    def _ranked(self, positions) -> list:
        """``[states, keys, ranks]`` of the entries at ``positions``, in
        that order — lists of numbers, no tuple; ``ranks`` is ``None``
        where the core has an inverse."""
        rank = self.entry_rank
        return [
            list(map(self.entry_state.__getitem__, positions)),
            list(map(self.entry_key.__getitem__, positions)),
            None if rank is None else list(map(rank.__getitem__, positions)),
        ]

    def _columns_cover(self, uid: int):
        """``(lo, hi)`` of connector ``uid`` in :attr:`heap_columns`, or
        ``None`` where the core was not ranked at bind."""
        if self.heap_columns is None:
            return None
        return self.conn_offsets[uid], self.conn_offsets[uid + 1]

    def take2_heap(self, uid: int) -> list:
        """Connector ``uid``'s entries in static heap order (shared), as
        :meth:`_ranked` columns.

        Cut from :attr:`heap_columns`, ranked at bind, on first access
        (the root's from the bind on), the keys left out where
        the kernels read ranks (the core has no inverse); any other
        connector heapifies then (:func:`_heap_positions`).  Either way
        the layout is ``heapify``'s of the entries themselves.  Read-only
        afterwards (Take2 uses the heap array as a static partial order),
        so safe to share across runs, algorithms, and threads — the lazy
        fill is a benign race: both winners produce identical lists.
        """
        ranked = self._take2_heaps[uid]
        if ranked is None:
            cover = self._columns_cover(uid)
            if cover is None:
                offsets = self.conn_offsets
                ranked = self._ranked(_heap_positions(
                    self.entry_key, self.entry_rank, self.entry_state,
                    offsets[uid], offsets[uid + 1],
                ))
            else:
                lo, hi = cover
                states, keys, ranks = self.heap_columns
                ranked = [states[lo:hi].tolist(), None, None]
                if ranks is None:
                    ranked[1] = keys[lo:hi].tolist()
                else:
                    ranked[2] = ranks[lo:hi].tolist()
            self._take2_heaps[uid] = ranked
        return ranked

    def sorted_orders(self) -> list:
        """Eager's uid-indexed cache of :meth:`sorted_order` lists, made on
        the first sort (a benign race, as :meth:`take2_heap`'s: a run
        holding a list that lost the slot reads through
        :meth:`sorted_order`)."""
        orders = self._caches[1]
        if orders is None:
            orders = self._caches[1] = [None] * self.num_connectors
        return orders

    def sorted_order(self, uid: int) -> list:
        """Connector ``uid``'s entries ascending, as :meth:`_ranked`
        columns (shared, read-only; filled as :meth:`take2_heap` is)."""
        orders = self.sorted_orders()
        ranked = orders[uid]
        if ranked is None:
            offsets = self.conn_offsets
            ranked = orders[uid] = self._ranked(_sorted_positions(
                self.entry_key, self.entry_rank, self.entry_state,
                offsets[uid], offsets[uid + 1],
            ))
        return ranked

    def rea_heap(self, uid: int) -> list[tuple]:
        """A fresh Recursive candidate heap ``[(key, rank, state, 0), ...]``.

        The rank is 0 where the core has no rank lane.  Laid out as
        :meth:`take2_heap`, which is ``heapify``'s layout of these
        candidates too (they compare as the entries do), so the caller
        gets a valid heap with no ``heapify`` of its own, and mutates it
        freely.
        """
        states, keys, ranks = self.take2_heap(uid)
        if keys is None:
            lo, hi = self._columns_cover(uid)
            keys = self.heap_columns[1][lo:hi].tolist()
        return list(zip(keys, repeat(0) if ranks is None else ranks, states, repeat(0)))

    def emitter(self, emits: tuple) -> Callable:
        """``emit(key, rank, states)``: one answer of class ``emits[0]``.

        What the kernels call per answer: the result is allocated as
        ``emits[0]`` and gets ``emits[1]`` as its decoder; here its key
        is ``key`` and its weight the key's value — the key itself, or
        negated, exactly, as keying negated it (``rank`` is 0).  A
        closure over the result class, decoder and lane only, so a
        kernel generator that holds it holds nothing that holds the
        generator: a dropped run is freed by reference counting.
        """
        result_cls, decoder = emits
        new_result = result_cls.__new__
        negate = self.lane.negate

        def emit(key, rank: int, states: tuple[int, ...]):
            res = new_result(result_cls)
            res.weight = -key if negate else key
            res.key = key
            res.states = states
            res.decoder = decoder
            return res

        return emit

    def conn_size(self, uid: int) -> int:
        """Number of entries of connector ``uid``."""
        return self.conn_offsets[uid + 1] - self.conn_offsets[uid]

    @property
    def mapped(self) -> bool:
        """Whether the entry pool is a view over a mapped ``.core`` file."""
        return isinstance(self.entry_key, memoryview)

    def stats(self) -> dict:
        """Compiled-core summary (for ``explain``), no connector walk."""
        return {
            "stages": self.num_stages,
            "connectors": self.num_connectors,
            "entries": self.conn_offsets[-1],
            "states": sum(len(v) for v in self.val_base),
            "empty": self.empty,
        }

    def memory_bytes(self, seen: set[int] | None = None) -> int:
        """Estimated heap bytes of this core's columns (scrape-time).

        Mmap-backed ``memoryview`` columns (warm-started cores) count
        zero here — their residency is reported by
        :meth:`repro.dp.corebuf.CoreCache.mmap_bytes` instead, which is
        exactly the heap-vs-mmap split the memory gauges exist to show.
        Pass one ``seen`` set across several cores to count a column
        they share once.
        """
        if seen is None:
            seen = set()
        total = sys.getsizeof(self)
        for name in (
            "val_base", "pi1", "conn_offsets", "entry_key", "entry_state",
            "entry_rank", "conn_stage", "child_uids", "conn_of", "root_stages",
            "_caches", "heap_columns", "val_rank",
            "ent_base", "ent_rank", "min_base", "min_rank",
        ):
            total += _seq_bytes(getattr(self, name), seen)
        return total

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(stages={self.num_stages}, "
            f"entries={self.stats()['entries']}, best={self.best_key!r})"
        )


class LaneCore(CompiledTDP):
    """A tie-broken union member's core (:func:`repro.dp.lower.lower_member`).

    The base dioid's lane without an inverse, the packed ranks of the
    Section 6.3 tie-breaker in the rank lane; an answer's weight is
    ``(base, rank)``, its key ``(base_key, rank)``, as on the object path.
    """

    __slots__ = ()

    def emitter(self, emits: tuple) -> Callable:
        """``emit(key, rank, states)``: an answer keyed ``(key, rank)``.

        Its weight is ``(base, rank)``, the base value the key's
        negation or the key itself; see :meth:`CompiledTDP.emitter`.
        """
        result_cls, decoder = emits
        new_result = result_cls.__new__
        negate = self.lane.negate

        def emit(key, rank: int, states: tuple[int, ...]):
            res = new_result(result_cls)
            res.weight = (-key if negate else key, rank)
            res.key = (key, rank)
            res.states = states
            res.decoder = decoder
            return res

        return emit


def compile_tdp(tdp: TDP) -> CompiledTDP | None:
    """Lower ``tdp`` to a :class:`CompiledTDP`, or ``None`` if unsupported.

    Supported exactly when the dioid has a lane (:func:`~repro.ranking.
    dioid.lane_of`).  The result — including the negative answer — is
    memoized on the ``TDP``, so repeated calls from concurrent
    enumerator constructions cost one attribute read.  The memo write is
    a benign race: two threads may both compile, either result is valid,
    and one wins the slot.
    """
    compiled = tdp._compiled
    if compiled is not None:
        return compiled or None  # ``False`` memoizes "unsupported"
    if lane_of(tdp.dioid)[0] is None:
        tdp._compiled = False
        return None
    compiled = CompiledTDP(tdp)
    tdp._compiled = compiled
    return compiled
