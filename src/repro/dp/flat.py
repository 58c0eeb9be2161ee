"""Compiled flat enumeration core: the T-DP as parallel key-space arrays.

Enumerating over the object-graph :class:`~repro.dp.graph.TDP` walks
:class:`~repro.dp.graph.ChoiceSet` objects holding boxed ``(key, state,
value)`` triples and dispatches every weight combination through
``SelectiveDioid.times``/``key``, even though nearly all workloads rank
by the tropical ``(min, +)`` dioid over plain floats.  A
:class:`CompiledTDP` is the same state space as flat, cache-friendly
parallel structures:

* ``values_key`` / ``pi1_key`` — per-stage contiguous state values and
  precomputed ``pi1`` keys (plain float lists: hot random-access reads).
* ``child_uids`` — the ``child_conns`` adjacency flattened to one
  integer array per stage (``state * num_branches + branch`` indexing),
  plus ``root_uid`` for the virtual start state's branches.
* connector entries, in one of two storages behind :meth:`CompiledTDP.
  pairs`: per-connector ``(key, state)`` pair lists (what the direct
  lowering emits), or a CSR pool ``entry_key`` / ``entry_state`` with
  ``conn_offsets`` slices (typed arrays from the object lowering,
  ``memoryview`` casts over a mapped ``.core`` file) from which pair
  lists materialise per connector on first touch.

There are two ways to get one.  The default, for every dioid with the
float-key contract, is :mod:`repro.dp.lower`: it lowers the join tree's
stages *directly* into these arrays in one bottom-up pass and never
builds an object graph; the core's ``tdp`` is then a connector-free
:class:`CoreShell` that only serves result assembly.  The reference
path is :func:`compile_tdp`, which lowers an already built object
``TDP`` — used where an object graph exists anyway (``build_tdp``
callers, the min-weight projection, tests and benchmarks comparing the
two enumerator families over one T-DP).  Both produce the same arrays.

Everything is expressed in **key space**: a core requires
``dioid.key_is_value`` — keys are floats and ``key`` is additive over
``times`` (``key(a ⊗ b) == key(a) + key(b)``, exactly, by IEEE
sign-symmetry for the tropical min/max dioids).  The flat enumerators in
:mod:`repro.anyk.flat` then combine weights with native ``+`` and
compare with native float ordering; the ranked output is bit-identical
to the object-graph path because every float operation performed is the
image (under ``key``) of the corresponding ``times`` call.  An object
graph over a dioid without the contract (lexicographic vectors,
tie-breaking pairs, max-times) is not compiled — :func:`compile_tdp`
returns ``None`` and the callers keep the generic object-graph path.
Tie-broken union members whose base dioid keeps its *lane* contract
never become an object graph: :mod:`repro.dp.lane` lowers them to a
:class:`~repro.dp.lane.LaneCore`, this class's layout over a base-value
lane and a packed-rank lane, which the shell hands to ``compile_tdp``
like any lowered core.

A compiled core is memoized on its ``TDP`` (``TDP._compiled``), so the
engine's version-stamped physical-plan cache shares one ``CompiledTDP``
across all any-k algorithm variants and all serving sessions of a
database version.  Because every array is plain key-space floats/ints,
a core is also *persistable*: :mod:`repro.dp.corebuf` serializes the
pools to a ``<db>.core`` file and maps them back without re-running the
build.  Only dioids that are both ``key_is_value`` and registered in
``NAMED_DIOIDS`` — tropical min-plus and max-plus — are persisted; the
dioid travels by registry name, never by pickled instance.
"""

from __future__ import annotations

import sys
from array import array
from heapq import heapify as _heapify
from typing import Any

from repro.dp.graph import TDP
from repro.ranking.dioid import SelectiveDioid, lane_of
from repro.util import vec

#: Connector size above which :meth:`CompiledTDP.sorted_pairs` prefers a
#: numpy ``lexsort`` over ``sorted`` on tuples.  Both orders are
#: identical — primary key ascending, state ascending on ties (states
#: are unique within a connector, so the tie rule is moot but kept for
#: symmetry with the tuple comparison).
_VEC_SORT_MIN = 64


#: Key-space transform lanes (see :func:`key_lane`).
LANE_ID, LANE_NEG, LANE_CALL = 0, 1, 2


def key_lane(dioid: SelectiveDioid) -> int:
    """How raw weights map into key space for this ``key_is_value`` dioid.

    Read off the dioid's lane declaration (:func:`lane_of`): tropical
    keys are the values themselves, max-plus keys are their negation.  A
    dioid that keeps no lane — a subclass overriding ``times`` or
    ``key``, any other additive float key — falls back to calling
    ``dioid.key`` / ``dioid.value_from_key`` per element.
    """
    lane, _why = lane_of(dioid)
    if lane is None:
        return LANE_CALL
    return LANE_NEG if lane.negate else LANE_ID


class _NegSeq:
    """Lazily negated read-only view of a key sequence (max-plus values)."""

    __slots__ = ("keys",)

    def __init__(self, keys):
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: int):
        return -self.keys[index]


def _value_views(dioid: SelectiveDioid, key_stages: list) -> list:
    """Per-stage dioid-value views over key-space sequences."""
    lane = key_lane(dioid)
    if lane == LANE_ID:
        return list(key_stages)  # the key *is* the value: alias, no copy
    if lane == LANE_NEG:
        return [_NegSeq(keys) for keys in key_stages]
    vfk = dioid.value_from_key
    return [[vfk(k) for k in keys] for keys in key_stages]


def _seq_bytes(seq: Any, seen: set[int]) -> int:
    """Heap-byte estimate of one compiled-core column.

    ``memoryview`` columns are mmap-backed and count zero.  Lists of
    scalars/tuples are estimated from their first element (columns are
    homogeneous), so the walk is O(nesting), not O(entries).  ``seen``
    holds the ``id`` of every container already counted: the fragment
    cores of one shard plan alias their shared columns, which must be
    counted once.
    """
    if seq is None or isinstance(seq, memoryview) or id(seq) in seen:
        return 0
    seen.add(id(seq))
    if isinstance(seq, (list, tuple)):
        total = sys.getsizeof(seq)
        sample = next((item for item in seq if item is not None), None)
        if sample is None:
            return total
        if isinstance(sample, (list, array, memoryview)):
            for item in seq:  # ragged columns (per-stage / per-connector)
                total += _seq_bytes(item, seen)
        elif isinstance(sample, tuple):
            total += _seq_bytes(sample, set()) * len(seq)  # homogeneous rows
        else:
            total += sys.getsizeof(sample) * len(seq)
        return total
    return sys.getsizeof(seq)


class CoreShell(TDP):
    """The connector-free T-DP behind a directly lowered or mapped core.

    Carries exactly what result assembly reads — per-stage rows (at atom
    arity; eager lists or :class:`~repro.dp.corebuf.LazyRows`), global
    tuple ids, the query — and no :class:`~repro.dp.graph.ChoiceSet`
    graph: the flat enumerators never walk one.  :meth:`CompiledTDP.
    assemble` fills in the value views and points ``_compiled`` at the
    core, so ``make_enumerator(shell)`` transparently runs the flat
    loops (``flat=False`` has no object graph to fall back on).
    """

    def __init__(
        self, dioid, atom_of_stage, parent_stage, query, join_tree,
        tuples: list, tuple_ids: list,
    ):
        super().__init__(
            dioid, atom_of_stage, parent_stage, query=query, join_tree=join_tree
        )
        self.tuples = tuples
        self.tuple_ids = tuple_ids
        self._empty = True

    def is_empty(self) -> bool:
        return self._empty


class CompiledTDP:
    """A T-DP as flat arrays in dioid key space.

    Read-only after construction; every per-run mutable structure (heap
    orders, sorted prefixes, memoized solution lists) lives in the
    enumerators of :mod:`repro.anyk.flat`.  Holds a back-reference to
    its :class:`TDP` (an object graph it was lowered from, or a
    :class:`CoreShell`) for result assembly — witness tuples and
    variable assignments are materialised lazily from ``tuple_ids`` at
    result-construction time, never carried through candidate queues.

    ``CompiledTDP(tdp)`` lowers an object graph; :meth:`assemble` wraps
    columns that were produced without one (:mod:`repro.dp.lower`,
    :mod:`repro.dp.corebuf`).
    """

    __slots__ = (
        "tdp", "dioid", "num_stages", "num_connectors", "parent_stage",
        "children_stages", "branch_index", "num_branches", "values_key",
        "pi1_key", "conn_offsets", "entry_key", "entry_state",
        "conn_stage", "child_uids", "conn_of", "conn_meta", "root_stages",
        "root_uid", "best_key", "empty", "vfk", "is_chain", "_pairs",
        "_take2_heaps", "_sorted_pairs", "_rea_heaps",
    )

    def __init__(self, tdp: TDP):
        dioid = tdp.dioid
        if not getattr(dioid, "key_is_value", False):
            raise ValueError(
                f"{dioid!r} does not satisfy the key_is_value contract"
            )
        key_of = dioid.key
        values_key = [
            [key_of(v) for v in stage_values] for stage_values in tdp.values
        ]
        pi1_key = [[key_of(v) for v in stage_pi1] for stage_pi1 in tdp.pi1]

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

        # CSR entry pool in compact typed arrays (consumed in bulk: one
        # zip for the pair lists below, numpy views in FlatBatch).
        entry_key = array("d")
        entry_state = array("q")
        conn_stage = [-1] * tdp.num_connectors
        offsets = array("q", [0] * (tdp.num_connectors + 1))
        total = 0
        for uid, conn in enumerate(conns):
            if conn is not None:
                conn_stage[uid] = conn.stage
                for entry in conn.entries:
                    entry_key.append(entry[0])
                    entry_state.append(entry[1])
                total += len(conn.entries)
            offsets[uid + 1] = total

        child_uids = [
            [conn.uid for state_conns in tdp.child_conns[stage] for conn in state_conns]
            for stage in range(tdp.num_stages)
        ]
        # Pair lists built eagerly in one C-level pass: this is
        # preprocessing-phase work, paid once per database version and
        # amortised over every enumeration run.
        all_pairs = list(zip(entry_key, entry_state))
        self._fill(
            tdp,
            values_key=values_key,
            pi1_key=pi1_key,
            child_uids=child_uids,
            conn_stage=conn_stage,
            root_uid={stage: conn.uid for stage, conn in tdp.root_conn.items()},
            best_key=key_of(tdp.best_weight),
            empty=tdp.is_empty(),
            pairs=[
                all_pairs[offsets[uid]:offsets[uid + 1]]
                for uid in range(tdp.num_connectors)
            ],
            csr=(offsets, entry_key, entry_state),
        )

    @classmethod
    def assemble(cls, shell: CoreShell, **columns) -> "CompiledTDP":
        """A core over ready-made ``columns`` (see :meth:`_fill`).

        Completes ``shell`` — value views, best weight, emptiness, the
        ``_compiled`` memo — so the pair is ready for result assembly.
        """
        self = cls.__new__(cls)
        self._fill(shell, **columns)
        dioid = self.dioid
        shell.values = _value_views(dioid, self.values_key)
        shell.pi1 = _value_views(dioid, self.pi1_key)
        shell.num_connectors = self.num_connectors
        shell.best_weight = (
            dioid.zero if self.empty else dioid.value_from_key(self.best_key)
        )
        shell._empty = self.empty
        shell._compiled = self
        return self

    def _fill(
        self, tdp: TDP, *, values_key, pi1_key, child_uids, conn_stage,
        root_uid, best_key, empty, pairs, caches=None, csr=None,
    ) -> None:
        """Set every slot from the stored columns plus derived layout.

        ``pairs`` and the three ``caches`` lists (Take2 heap orders,
        sorted entry lists, Recursive heap templates) are uid-indexed
        and may be the *same list objects* across the fragment cores of
        one shard plan: a ranking structure for a shared connector is
        then built once and reused by every fragment, algorithm, and
        serving session.  ``csr`` is ``(conn_offsets, entry_key,
        entry_state)`` when the entries (also) live in a CSR pool;
        ``pairs[uid]`` may then be ``None`` until first touched.
        """
        dioid = tdp.dioid
        self.tdp = tdp
        self.dioid = dioid
        num_stages = self.num_stages = tdp.num_stages
        uid_space = self.num_connectors = len(conn_stage)
        parent_stage = self.parent_stage = tdp.parent_stage
        self.children_stages = tdp.children_stages
        branch_index = self.branch_index = tdp.branch_index
        #: Branch fan-out per stage (row width of ``child_uids``).
        num_branches = self.num_branches = [
            len(c) for c in tdp.children_stages
        ]
        #: Per-stage state values and pi1, as key-space floats.  Plain
        #: lists where built in-process: read one element at a time in
        #: the innermost loops, where list indexing (no re-boxing) wins.
        self.values_key = values_key
        self.pi1_key = pi1_key
        #: CSR entry pool (or ``None`` x 3): connector ``uid`` owns
        #: entries ``conn_offsets[uid] .. conn_offsets[uid + 1]``.
        self.conn_offsets, self.entry_key, self.entry_state = (
            csr or (None, None, None)
        )
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
        #: Per-connector hot metadata ``(branch_count, own_state_keys,
        #: child_uid_row, stage)`` — one list index + unpack replaces
        #: four attribute/index chains in Recursive's ``_ensure``.
        per_stage = [
            (num_branches[s], values_key[s], child_uids[s], s)
            for s in range(num_stages)
        ]
        self.conn_meta = [
            None if stage < 0 else per_stage[stage] for stage in conn_stage
        ]
        self.root_stages = tdp.root_stages
        self.root_uid = root_uid
        #: Serpentine/path shape: every stage's parent is the previous
        #: stage (single root, no branching).  The enumerators install
        #: chain-specialised loops for this, the most common join-tree
        #: layout (path queries, cycle-decomposition members).
        self.is_chain = all(
            parent_stage[j] == j - 1 for j in range(num_stages)
        )
        self.empty = empty
        self.best_key = best_key
        #: Key-to-value map for result construction, or ``None`` when
        #: the key *is* the value (tropical min-plus): the enumerators
        #: then skip the call entirely on their per-result path.
        self.vfk = (
            None
            if type(dioid).value_from_key is SelectiveDioid.value_from_key
            else dioid.value_from_key
        )
        #: Shared ``(key, state)`` pair lists per connector — the flat
        #: analogue of ``ChoiceSet.entries`` (unsorted, read-only;
        #: strategies copy before heapify/sort).
        self._pairs = pairs
        # Per-connector ranking structures that are *read-only once
        # built* and therefore shared across every enumerator run (and
        # every concurrent session) over this compiled core, filled
        # lazily on first touch:
        #
        # * Take2's static heap order — heapified once, never popped
        #   (that is the whole point of Take2), so one array serves all
        #   runs where the object path re-heapifies per run;
        # * Eager's sorted entry lists — never mutated after sorting;
        # * Recursive's initial candidate heaps ``[(key, state, 0)]`` —
        #   runs *do* pop/push these, so :meth:`rea_heap` hands out a
        #   C-level copy of the heapified template (the triples inside
        #   are immutable and stay shared).
        self._take2_heaps, self._sorted_pairs, self._rea_heaps = caches or (
            [None] * uid_space, [None] * uid_space, [None] * uid_space
        )

    # -- accessors -----------------------------------------------------------

    def pairs(self, uid: int) -> list[tuple[float, int]]:
        """The unsorted ``(key, state)`` entry pairs of connector ``uid``.

        Shared by all enumerator runs (and algorithms).  Callers must
        not mutate the returned list — copy first (as the ``sorted`` /
        ``heapify`` call sites do).  Over a mapped CSR pool nothing is
        copied until an enumerator actually touches the connector; the
        lazy fill is the benign race :meth:`take2_heap` documents.
        """
        entries = self._pairs[uid]
        if entries is None:
            lo, hi = self.conn_offsets[uid], self.conn_offsets[uid + 1]
            entries = self._pairs[uid] = list(
                zip(self.entry_key[lo:hi], self.entry_state[lo:hi])
            )
        return entries

    def take2_heap(self, uid: int) -> list[tuple[float, int]]:
        """Connector ``uid``'s entries in static heap order (shared).

        Built by one ``heapify`` on first access; read-only afterwards
        (Take2 uses the heap array as a static partial order), so safe
        to share across runs, algorithms, and threads — the lazy fill
        is a benign race: ``heapify`` is deterministic, both winners
        produce the identical list.
        """
        heap = self._take2_heaps[uid]
        if heap is None:
            heap = list(self.pairs(uid))
            _heapify(heap)
            self._take2_heaps[uid] = heap
        return heap

    def sorted_pairs(self, uid: int) -> list[tuple[float, int]]:
        """Connector ``uid``'s entries fully sorted (shared, read-only)."""
        entries = self._sorted_pairs[uid]
        if entries is None:
            pairs = self.pairs(uid)
            np = vec.np
            if np is not None and len(pairs) >= _VEC_SORT_MIN:
                n = len(pairs)
                keys = np.fromiter((p[0] for p in pairs), np.float64, n)
                states = np.fromiter((p[1] for p in pairs), np.int64, n)
                order = np.lexsort((states, keys))
                entries = list(
                    zip(keys[order].tolist(), states[order].tolist())
                )
            else:
                entries = sorted(pairs)
            self._sorted_pairs[uid] = entries
        return entries

    def rea_heap(self, uid: int) -> list[tuple[float, int, int]]:
        """A fresh Recursive candidate heap ``[(key, state, 0), ...]``.

        Returns a per-call copy of a lazily built heapified template:
        the caller mutates its copy freely while the immutable triples
        stay shared, and repeated runs skip both the triple allocation
        and the ``heapify``.
        """
        template = self._rea_heaps[uid]
        if template is None:
            template = [
                (key, state, 0) for key, state in self.pairs(uid)
            ]
            _heapify(template)
            self._rea_heaps[uid] = template
        return list(template)

    def conn_size(self, uid: int) -> int:
        """Number of entries of connector ``uid`` (either storage)."""
        offsets = self.conn_offsets
        if offsets is None:
            return len(self._pairs[uid])
        return offsets[uid + 1] - offsets[uid]

    @property
    def mapped(self) -> bool:
        """Whether the entry pool is a view over a mapped ``.core`` file."""
        return isinstance(self.entry_key, memoryview)

    def value_from_key(self, key: float) -> Any:
        """Map a key-space float back to the dioid value domain."""
        return self.dioid.value_from_key(key)

    def stats(self) -> dict:
        """Compiled-core summary (for ``explain`` physical reports)."""
        return {
            "stages": self.num_stages,
            "connectors": self.num_connectors,
            "entries": (
                sum(len(p) for p in self._pairs if p)
                if self.entry_key is None
                else len(self.entry_key)
            ),
            "states": sum(len(v) for v in self.values_key),
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
            "values_key", "pi1_key", "conn_offsets", "entry_key",
            "entry_state", "conn_stage", "child_uids", "conn_of",
            "root_stages", "_pairs", "_take2_heaps", "_sorted_pairs",
            "_rea_heaps",
        ):
            total += _seq_bytes(getattr(self, name), seen)
        return total

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(stages={self.num_stages}, "
            f"entries={self.stats()['entries']}, best={self.best_key!r})"
        )


def compile_tdp(tdp: TDP) -> CompiledTDP | None:
    """Lower ``tdp`` to a :class:`CompiledTDP`, or ``None`` if unsupported.

    Supported exactly when the dioid advertises ``key_is_value`` (see
    the module docstring for the contract).  The result — including the
    negative answer — is memoized on the ``TDP``, so repeated calls from
    concurrent enumerator constructions cost one attribute read.  The
    memo write is a benign race: two threads may both compile, either
    result is valid, and one wins the slot.
    """
    compiled = tdp._compiled
    if compiled is not None:
        return compiled or None  # ``False`` memoizes "unsupported"
    if not getattr(tdp.dioid, "key_is_value", False):
        tdp._compiled = False
        return None
    compiled = CompiledTDP(tdp)
    tdp._compiled = compiled
    return compiled
