"""Compiled flat enumeration core: the T-DP as parallel arrays.

Enumerating over the object-graph :class:`~repro.dp.graph.TDP` walks
:class:`~repro.dp.graph.ChoiceSet` objects holding boxed ``(key, state,
value)`` triples and dispatches every weight combination through
``SelectiveDioid.times``/``key``.  A :class:`CompiledTDP` is the same
state space as flat, cache-friendly parallel structures, plus the rows
result assembly reads (``tuples`` / ``tuple_ids``, the query): a core is
a whole T-DP on its own, with no object graph behind it.

* ``val_base`` / ``pi1`` — per-stage state values and their ``pi1``
  values (plain lists: hot random-access reads);
* ``child_uids`` — the ``child_conns`` adjacency flattened to one
  integer array per stage (``state * num_branches + branch`` indexing),
  plus ``root_uid`` for the virtual start state's branches;
* connector entries, key first and state last, in one CSR pool:
  connector ``uid`` owns ``entries[conn_offsets[uid]:conn_offsets[uid +
  1]]``, a list of tuples made at bind (or a mapped ``.core`` file's
  :class:`MappedEntries`), cut into a list per connector by
  :meth:`CompiledTDP.pairs` on first touch; a fragment's root connector
  is a list from the bind on, beside the pool.

Every core is run by its dioid's lane (:func:`~repro.ranking.dioid.
lane_of`): ``times`` as native ``+`` or ``*`` folded from ``one``, the
key the value or its negation; the columns hold values and only the
entries are keyed.  Section 6.2's two ways to get a sibling's weight
are the slot ``inverse``, the dioid's ``has_inverse``: with one
(tropical, max-plus) the key is ``total − entry + succ`` and entries are
``(key, state)``; without (max-times, a tie-broken union member) the
total is recomputed from the prefix, so the core also holds entry values
(``ent_base``), least entries (``min_base``) and a rank lane
(``val_rank`` / ``ent_rank`` / ``min_rank``, zeros without a
tie-breaker), with ``(key, rank, state)`` entries.  A tie-broken
member's core is a :class:`LaneCore`, whose answers are ``(base, rank)``
pairs.

:mod:`repro.dp.lower` builds a core straight from the relations and
:mod:`repro.dp.corebuf` maps one from a ``.core`` file, both through
:meth:`CompiledTDP.assemble`.  :func:`compile_tdp` lowers an object
``TDP`` that exists anyway (the no-lane sites' ``build_tdp`` callers,
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
from heapq import heapify as _heapify
from operator import add, itemgetter, mul
from typing import Any, Callable

import numpy as np

from repro.dp.graph import TDP, ResultAssembler, stage_tree
from repro.ranking.dioid import lane_of

#: Connector size above which :meth:`CompiledTDP.sorted_pairs` prefers a
#: numpy ``lexsort`` over ``sorted`` on tuples.  Both orders are
#: identical — column by column, key first, state last (states are
#: unique within a connector, so the last tie rule is moot but kept for
#: symmetry with the tuple comparison).
_VEC_SORT_MIN = 64


def _sorted_entries(entries: list[tuple]) -> list[tuple]:
    """``sorted(entries)``, through a numpy ``lexsort`` on large connectors.

    Sorts on every column, key first and state last, so ``(key, state)``
    pairs and ``(key, rank, state)`` triples alike come out in tuple
    order.  The key column sorts as float64, the others as int64; a rank
    too wide for int64 keeps ``sorted``, and so does a NaN key (``lexsort``
    puts it last, ``sorted`` where it meets it).
    """
    if len(entries) < _VEC_SORT_MIN:
        return sorted(entries)
    keys, *others = zip(*entries)
    try:
        columns = [np.array(keys, np.float64)]
        columns += [np.array(column, np.int64) for column in others]
    except OverflowError:
        return sorted(entries)
    if np.isnan(columns[0]).any():
        return sorted(entries)
    order = np.lexsort(columns[::-1])
    return list(zip(*(column[order].tolist() for column in columns)))


class MappedEntries:
    """A mapped ``.core`` file's entry pool: its two typed views, read as
    ``(key, state)`` tuples by index or slice — made only when touched."""

    __slots__ = ("key", "state")

    def __init__(self, key: memoryview, state: memoryview):
        self.key, self.state = key, state

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(zip(self.key[index], self.state[index]))
        return self.key[index], self.state[index]


def _seq_bytes(seq: Any, seen: set[int]) -> int:
    """Heap-byte estimate of one compiled-core column.

    ``memoryview`` columns and a mapped pool are mmap-backed and count
    zero.  Lists of scalars/tuples are estimated from their first element
    (columns are homogeneous), so the walk is O(nesting).  ``seen``
    holds the ``id`` of every container already counted: the fragment
    cores of one shard plan alias their shared columns, which must be
    counted once.
    """
    if isinstance(seq, (memoryview, MappedEntries)) or seq is None or id(seq) in seen:
        return 0
    seen.add(id(seq))
    if isinstance(seq, (list, tuple)):
        total = sys.getsizeof(seq)
        sample = next((item for item in seq if item is not None), None)
        if sample is None:
            return total
        if isinstance(sample, (list, memoryview)):
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
    reads — ``query``, ``join_tree``, ``atom_of_stage``, per-stage rows
    (``tuples``: lists, or :class:`~repro.dp.corebuf.LazyRows` over a
    backend) and ``tuple_ids`` — and memoizes one
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
        "val_base", "pi1", "conn_offsets", "entries", "conn_stage",
        "child_uids", "conn_of", "conn_meta", "root_stages", "root_uid",
        "best_key", "empty", "is_chain", "_pairs", "_take2_heaps",
        "_sorted_pairs", "_rea_heaps", "lane", "one", "inverse", "val_rank",
        "ent_base", "ent_rank", "min_base", "min_rank", "best",
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

        # The CSR entry pool, roots included, in uid order.
        entries: list = []
        conn_stage = [-1] * tdp.num_connectors
        offsets = [0]
        for uid, conn in enumerate(conns):
            if conn is not None:
                conn_stage[uid] = conn.stage
                entries += map(itemgetter(0, 1), conn.entries)
            offsets.append(len(entries))

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
            )
            entries = [(key, 0, state) for key, state in entries]
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
            entries=entries,
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
        conn_stage, root_uid, best, empty, conn_offsets, entries, pairs=None,
        caches=None, val_rank=None, ent_base=None, ent_rank=None,
        min_base=None, min_rank=None,
    ) -> None:
        """Set every slot from the stored columns plus derived layout.

        ``atom_of_stage`` / ``parent_stage`` are the stage layout
        (children, roots and branch positions derive from it), ``tuples``
        / ``tuple_ids`` the rows result assembly reads.

        ``conn_offsets`` may stop short of the uid space: the uids past
        the pool are fragment roots, held in ``pairs``.  ``pairs`` and
        the three ``caches`` lists (Take2 heap orders, sorted entry
        lists, Recursive heap templates) are uid-indexed and may be the
        *same list objects* across the fragment cores of one shard plan:
        a structure for a shared connector is then built once and reused
        by every fragment, algorithm, and serving session.  The
        entry-value, least-entry and rank columns are those of a core
        without an inverse (the dioid's ``has_inverse``).
        """
        self.dioid = dioid
        self.query = query
        self.join_tree = join_tree
        self.atom_of_stage = atom_of_stage
        self.tuples = tuples
        self.tuple_ids = tuple_ids
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
        #: Per-stage state values and pi1 values.  Plain lists where
        #: built in-process: read one element at a time in the innermost
        #: loops, where list indexing (no re-boxing) wins.
        self.val_base = val_base
        self.pi1 = pi1
        #: The CSR entry pool: connector ``uid`` owns entries
        #: ``conn_offsets[uid] .. conn_offsets[uid + 1]``.
        self.conn_offsets = conn_offsets
        self.entries = entries
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
        #: single connector is in :attr:`root_uid`).
        self.conn_of = [
            None
            if parent == -1
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
        #: Per-connector hot metadata ``(branch_count, own_values,
        #: own_ranks, child_uid_row, stage)`` — one list index + unpack
        #: replaces five attribute/index chains in Recursive's ``ensure``.
        per_stage = [
            (
                num_branches[s], val_base[s],
                None if val_rank is None else val_rank[s], child_uids[s], s,
            )
            for s in range(num_stages)
        ]
        self.conn_meta = [
            None if stage < 0 else per_stage[stage] for stage in conn_stage
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
        #: Entry lists per connector, state last — the flat analogue of
        #: ``ChoiceSet.entries`` (unsorted, read-only): fragment roots from
        #: the bind on, pool connectors once :meth:`pairs` cut them.
        self._pairs = [None] * uid_space if pairs is None else pairs
        # Per-connector ranking structures that are *read-only once
        # built* and therefore shared across every enumerator run (and
        # every concurrent session) over this compiled core, filled
        # lazily on first touch:
        #
        # * Take2's static heap order — heapified once, never popped
        #   (that is the whole point of Take2), so one array serves all
        #   runs where the object path re-heapifies per run;
        # * Eager's sorted entry lists — never mutated after sorting;
        # * Recursive's initial candidate heaps — runs *do* pop/push
        #   these, so :meth:`rea_heap` hands out a C-level copy of the
        #   heapified template (the tuples inside are immutable and stay
        #   shared).
        self._take2_heaps, self._sorted_pairs, self._rea_heaps = caches or (
            [None] * uid_space, [None] * uid_space, [None] * uid_space
        )

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

    def _cut(self, uid: int) -> list[tuple]:
        """A new list of connector ``uid``'s entries, in pool order."""
        held = self._pairs[uid]
        if held is not None:
            return list(held)
        offsets = self.conn_offsets
        return self.entries[offsets[uid]:offsets[uid + 1]]

    def pairs(self, uid: int) -> list[tuple]:
        """The unsorted entries of connector ``uid``, state last.

        Shared by all enumerator runs (and algorithms): callers must not
        mutate it.  Cut from the pool on first touch (a fragment root is
        held from the bind on); the lazy fill is the benign race
        :meth:`take2_heap` documents.
        """
        entries = self._pairs[uid]
        if entries is None:
            entries = self._pairs[uid] = self._cut(uid)
        return entries

    def take2_heap(self, uid: int) -> list[tuple]:
        """Connector ``uid``'s entries in static heap order (shared).

        One ``heapify`` of a fresh cut on first access, in place;
        read-only afterwards (Take2 uses the heap array as a static
        partial order), so safe to share across runs, algorithms, and
        threads — the lazy fill is a benign race: ``heapify`` is
        deterministic, both winners produce the identical list.
        """
        heap = self._take2_heaps[uid]
        if heap is None:
            heap = self._cut(uid)
            _heapify(heap)
            self._take2_heaps[uid] = heap
        return heap

    def sorted_pairs(self, uid: int) -> list[tuple]:
        """Connector ``uid``'s entries fully sorted (shared, read-only)."""
        entries = self._sorted_pairs[uid]
        if entries is None:
            entries = self._sorted_pairs[uid] = _sorted_entries(self._cut(uid))
        return entries

    def rea_heap(self, uid: int) -> list[tuple]:
        """A fresh Recursive candidate heap ``[(key, rank, state, 0), ...]``.

        The rank is 0 where the core has no rank lane.  Returns a
        per-call copy of a lazily built heapified template: the caller
        mutates its copy freely while the immutable tuples stay shared,
        and repeated runs skip both the tuple allocation and the
        ``heapify``.
        """
        template = self._rea_heaps[uid]
        if template is None:
            if self.val_rank is None:
                template = [(key, 0, state, 0) for key, state in self._cut(uid)]
            else:
                template = [entry + (0,) for entry in self._cut(uid)]
            _heapify(template)
            self._rea_heaps[uid] = template
        return list(template)

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
        """Number of entries of connector ``uid``, without cutting a list."""
        held = self._pairs[uid]
        if held is None:
            return self.conn_offsets[uid + 1] - self.conn_offsets[uid]
        return len(held)

    @property
    def mapped(self) -> bool:
        """Whether the entry pool is a view over a mapped ``.core`` file."""
        return isinstance(self.entries, MappedEntries)

    def stats(self) -> dict:
        """Compiled-core summary (for ``explain``), no connector walk."""
        pooled = len(self.conn_offsets) - 1
        held = [uid for uid in self.root_uid.values() if uid >= pooled]
        return {
            "stages": self.num_stages,
            "connectors": self.num_connectors,
            "entries": self.conn_offsets[-1] + sum(map(self.conn_size, held)),
            "states": sum(len(v) for v in self.val_base),
            "empty": self.empty,
        }

    def memory_bytes(self, seen: set[int] | None = None) -> int:
        """Estimated heap bytes of this core's columns (scrape-time).

        Mmap-backed ``memoryview`` columns (warm-started cores) count
        zero here — their residency is reported by
        :meth:`repro.dp.corebuf.CoreCache.mmap_bytes` instead, which is
        exactly the heap-vs-mmap split the memory gauges exist to show.
        Pass one ``seen`` set across the fragment cores of a shard plan
        to count the columns they alias once.
        """
        if seen is None:
            seen = set()
        total = sys.getsizeof(self)
        for name in (
            "val_base", "pi1", "conn_offsets", "entries", "conn_stage",
            "child_uids", "conn_of", "root_stages", "_pairs", "_take2_heaps",
            "_sorted_pairs", "_rea_heaps", "val_rank", "ent_base", "ent_rank",
            "min_base", "min_rank",
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
