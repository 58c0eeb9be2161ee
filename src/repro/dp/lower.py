"""The bottom-up pass, lowered straight to key-space arrays.

The paper's preprocessing for an acyclic query is one linear sweep over
the join tree (Section 4; Eq. 2 / Eq. 7).  This module is that sweep for
every dioid with the float-key contract (``key_is_value``): each stage
is lowered *directly* into the columns of a
:class:`~repro.dp.flat.CompiledTDP` — native float arithmetic in key
space, ``(key, state)`` entry pairs per connector — without building the
object graph of :mod:`repro.dp.builder` first.  It mirrors ``build_tdp``
stage by stage (same row order, same alive filter, same left-fold weight
aggregation), so the keys equal the ``key`` image of the object
builder's values and the ranked output is identical
(``tests/test_lower_columns.py`` compares the two in bits and pins the
one place they differ: the sign of a max-plus zero).

**One stage-input shape.**  Every caller — the unsharded bind, range and
hash shard fragments, the process-pool worker scan — hands a stage to
:func:`scan_stage` as two parallel sequences, rows (at atom arity) and
weights: :func:`stage_columns`.  An in-memory relation already stores
exactly those two lists and hands them over (slices for a fragment); a
backend relation splits its one bulk ``fetch_rows`` result once.  No
per-row container is built to carry a weight next to its row.

**Scan, then placement.**  The scan drops dead rows and emits one column
per output (state keys, ``pi1`` keys, child connector uids, entry keys
``k + pi``).  The alive states are then *placed* into connectors by the
uid of their join key, never by weight: the paper's "nothing is sorted
during preprocessing" is about weights, and holds — the placement is a
counting sort on connector ids, linear in the stage.  Every connector's
pair list exists when the bind returns (enumerators index ``_pairs``
directly; leaving them to first touch moved the cost into the first
fetch and was measured and rejected).

**Two implementations, one behaviour.**  With numpy present, a stage of
at least ``_VEC_SCAN_MIN`` rows, no repeated variable in its atom and an
identity/negate key lane takes the kernels (:func:`_scan_stage_vec`,
:func:`_place_by_connector`): any number of child branches, one- or
multi-column join keys.  Everything else — numpy absent or disabled
(``REPRO_NO_NUMPY``), small stages, repeated variables, a ``key``
callable, a stage whose entry keys contain NaN — runs the scalar loops,
which read the same two sequences.  Both perform the same IEEE
operations in the same association order.

The sweep is split at one **anchor** stage, a root of its join-tree
component.  The bottom-up construction never propagates a root
restriction downward, so every non-anchor stage is independent of which
anchor rows are present:

* **phase A** (:func:`build_shared_lower`, once): all non-anchor stages
  — state arrays, connector entry pools, join-key maps;
* **phase B** (:func:`build_fragment`, per fragment): scan one slice of
  the anchor relation, resolve child connectors against phase A's
  join-key maps, emit that fragment's root connector and assemble its
  core over the shared columns.

:func:`lower_query` is the unsharded bind: phase A, then one fragment
spanning the whole anchor relation (anchor = stage 0).  The parallel
layer (:mod:`repro.parallel.build`) runs phase B once per fragment of a
shard plan, possibly on a worker pool; the fragment cores alias phase
A's columns and one set of uid-indexed lists (entry pairs, lazily built
Take2 orders, sorted lists, REA heap templates), so ranking structures
for shared connectors are built once per database version — not once
per fragment.

Decomposition members whose base dioid keeps its lane contract are
lowered too, by the same stage sweep in value space, to a two-lane core
(:mod:`repro.dp.lane`).  Dioids without either contract (and members
over them), the ``canonical`` tie-break, the UCQ pipeline, the
min-weight projection and ``DPProblem`` keep the object builder, which
reads the same stage-input shape (:func:`stage_columns`,
:func:`join_key_column`) and sweeps a stage as columns through the
dioid's ``times_column`` / ``key_column``;
:func:`repro.dp.flat.compile_tdp` lowers its result where a flat core is
still wanted.
"""

from __future__ import annotations

import time
from itertools import count, repeat
from operator import itemgetter, neg
from typing import Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.flat import (
    LANE_CALL,
    LANE_ID,
    LANE_NEG,
    CompiledTDP,
    CoreShell,
    key_lane,
)
from repro.obs.trace import NULL_SPAN
from repro.query.jointree import JoinTree
from repro.ranking.dioid import SelectiveDioid
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


# -- the shared lower stages (phase A) -----------------------------------------


class SharedLower:
    """Phase A output: every fragment-independent stage, lowered flat.

    All structures are read-only once built.  Connector uids are
    assigned ``0 .. num_conns-1`` here; fragment root connectors extend
    the uid space from ``num_conns`` upward (one per fragment).
    """

    __slots__ = (
        "query", "tree", "dioid", "lane", "order", "num_stages",
        "parent_stage", "children_stages", "anchor_stage", "tuples",
        "tuple_ids", "values_key", "pi1_key", "child_uids",
        "pairs", "conn_stage", "conn_min", "conn_maps", "root_uid",
        "num_conns", "complete", "own_key_positions",
        "parent_key_positions", "seconds", "rows", "vectorized_stages",
    )

    def __init__(self, query, tree: JoinTree, dioid: SelectiveDioid, anchor_stage: int):
        self.query = query
        self.tree = tree
        self.dioid = dioid
        self.lane = key_lane(dioid)
        self.order = list(tree.order)
        self.num_stages = len(self.order)
        self.parent_stage, self.own_key_positions, self.parent_key_positions = (
            stage_layout(tree)
        )
        self.children_stages: list[list[int]] = [[] for _ in range(self.num_stages)]
        for stage, parent in enumerate(self.parent_stage):
            if parent != -1:
                self.children_stages[parent].append(stage)
        self.anchor_stage = anchor_stage
        if self.parent_stage[anchor_stage] != -1:
            raise ValueError("the anchor stage must be a component root")

        # Per-stage columns; the anchor's slots stay empty (each
        # fragment layers its own over a copy of these lists).
        self.tuples: list[list[tuple]] = [[] for _ in self.order]
        self.tuple_ids: list[list[int]] = [[] for _ in self.order]
        self.values_key: list[list[float]] = [[] for _ in self.order]
        self.pi1_key: list[list[float]] = [[] for _ in self.order]
        #: Flattened child connector uids per stage (branch-major).
        self.child_uids: list[list[int]] = [[] for _ in self.order]
        #: uid -> unsorted (key, state) entry pairs.
        self.pairs: list[list[tuple[float, int]]] = []
        self.conn_stage: list[int] = []
        self.conn_min: list[float] = []
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
        #: Input rows scanned, and how many stages took the numpy kernel.
        self.rows = 0
        self.vectorized_stages = 0

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
    database: Database, query, tree: JoinTree, dioid: SelectiveDioid, anchor_stage: int
) -> SharedLower:
    """Phase A: lower every non-anchor stage to key-space flat arrays.

    Mirrors :func:`repro.dp.builder.build_tdp` stage by stage — same row
    order, same alive filter, same left-fold weight aggregation — but in
    dioid key space, so the produced keys are the bit-exact ``key``
    image of the object builder's values (the PR-4 ``key_is_value``
    contract).  Each stage is one :func:`scan_stage` over its relation,
    then its alive states are placed into connectors by their join key
    with the parent (first-seen order, like the object builder's).
    """
    start = time.perf_counter()
    shared = SharedLower(query, tree, dioid, anchor_stage)

    for stage in reversed(range(shared.num_stages)):
        if stage == anchor_stage:
            continue
        relation = database[query.atoms[shared.order[stage]].relation_name]
        rows, weights = stage_columns(relation)
        entry_keys, kept, ids_out, vk_out, pk_out, cu_out = scan_stage(
            stage_scan_of(shared, stage), rows, weights, 0, None
        )
        shared.rows += len(rows)
        shared.vectorized_stages += _from_kernel(entry_keys)
        shared.tuples[stage] = kept
        shared.tuple_ids[stage] = ids_out
        shared.values_key[stage] = vk_out
        shared.pi1_key[stage] = pk_out
        shared.child_uids[stage] = cu_out

        join_keys = list(join_key_column(kept, shared.own_key_positions[stage]))
        _place_entries(shared, stage, join_keys, entry_keys)
        shared.num_conns = len(shared.pairs)

        if shared.parent_stage[stage] == -1:
            root = shared.conn_maps[stage].get(())
            if root is None:
                shared.complete = False
            else:
                shared.root_uid[stage] = root

    shared.seconds = time.perf_counter() - start
    return shared


# -- one stage's connectors ----------------------------------------------------


def _place_entries(
    shared: SharedLower, stage: int, join_keys: list, entry_keys
) -> None:
    """Group one stage's alive states into connectors by join key.

    A connector per distinct join key in first-seen order, its ``(key,
    state)`` pairs in state order, its minimum the key of ``min(group)``
    — the first entry in state order that attains it.  This loop is the
    reference; kernel output goes through :func:`_place_by_connector`
    unless an entry key is NaN (``min()`` over ``(nan, state)`` tuples
    depends on the order it meets them in, which only this loop
    reproduces).
    """
    if _from_kernel(entry_keys):
        if len(entry_keys) and not vec.np.isnan(entry_keys).any():
            _place_by_connector(shared, stage, join_keys, entry_keys)
            return
        entry_keys = entry_keys.tolist()
    groups: dict = {}
    g_get = groups.get
    for join_key, entry in zip(join_keys, zip(entry_keys, count())):
        bucket = g_get(join_key)
        if bucket is None:
            groups[join_key] = [entry]
        else:
            bucket.append(entry)

    pairs = shared.pairs
    cmap_out = shared.conn_maps[stage]
    for join_key, group in groups.items():
        cmap_out[join_key] = len(pairs)
        pairs.append(group)
        shared.conn_stage.append(stage)
        shared.conn_min.append(min(group)[0])


def _place_by_connector(
    shared: SharedLower, stage: int, join_keys: list, entry_keys
) -> None:
    """:func:`_place_entries` as one bucket placement by connector id.

    Nothing is ordered by weight: first-seen uids come from
    ``dict.fromkeys``, one stable integer argsort (a counting sort up to
    2**16 connectors) moves every state into its connector's slice,
    ``minimum.reduceat`` takes the slice minima, and every pair list is
    cut from one C-level ``zip``.
    """
    np = vec.np
    states = len(entry_keys)
    first_uid = len(shared.pairs)
    cmap_out = shared.conn_maps[stage]
    cmap_out.update(zip(dict.fromkeys(join_keys), count(first_uid)))
    conns = len(cmap_out)
    local = np.fromiter(map(cmap_out.__getitem__, join_keys), np.int64, states)
    local -= first_uid
    if conns <= 1 << 16:
        local = local.astype(np.uint16)
    order = local.argsort(kind="stable")
    sizes = np.bincount(local, minlength=conns)
    ends = sizes.cumsum()
    starts = ends - sizes
    keys = entry_keys[order]
    minima = np.minimum.reduceat(keys, starts)
    zero_min = minima == 0.0
    if zero_min.any():
        # ``min(group)`` hands over the sign of the group's *first* zero.
        first_zero = np.minimum.reduceat(
            np.where(keys == 0.0, np.arange(states), states), starts
        )
        minima[zero_min] = keys[first_zero[zero_min]]
    placed = list(zip(keys.tolist(), order.tolist()))
    shared.pairs.extend(
        map(placed.__getitem__, map(slice, starts.tolist(), ends.tolist()))
    )
    shared.conn_stage.extend([stage] * conns)
    shared.conn_min.extend(minima.tolist())


# -- one stage's scan ----------------------------------------------------------


#: Row count below which the vectorized scan is not worth the numpy
#: round-trip.
_VEC_SCAN_MIN = 512


class StageScan:
    """One stage scan's inputs, decoupled from :class:`SharedLower`.

    Built either from a parent-process ``SharedLower`` or, in a pool
    worker scanning its anchor fragment, from the shared-memory
    :class:`~repro.dp.corebuf.WorkerLower` (whose ``conn_min`` is a
    memoryview aliasing the owner's pool).
    """

    __slots__ = (
        "check_repeats", "satisfies", "lookups", "lane", "key_of", "conn_min",
    )

    def __init__(self, atom, lookups, lane, key_of, conn_min):
        self.check_repeats = atom.has_repeated_variables()
        self.satisfies = atom.satisfies_repeats
        self.lookups = lookups
        self.lane = lane
        self.key_of = key_of
        self.conn_min = conn_min


def stage_scan_of(shared: SharedLower, stage: int) -> StageScan:
    atom = shared.query.atoms[shared.order[stage]]
    return StageScan(
        atom, shared.child_lookups(stage), shared.lane,
        shared.dioid.key, shared.conn_min,
    )


def _from_kernel(entry_keys) -> bool:
    """Whether a scan's entry keys are the numpy kernel's (an ndarray)."""
    return not isinstance(entry_keys, list)


def _scan_stage_vec(
    scan: StageScan,
    rows: Sequence[tuple],
    weights: Sequence,
    base: int | None,
    global_ids: Sequence[int] | None,
    keep_tuples: bool,
):
    """Vectorized stage scan (identity/negate lanes, no repeated variable).

    The join-key dict probes stay hash probes (hash tables do not
    vectorize) but run as one C-level ``map`` per child branch; the
    alive mask, the key transform, the ``pi`` fold and the ``k + pi``
    entry keys run as numpy float64 kernels — the same IEEE operations
    in the same order as the scalar loop, so the produced arrays are
    bit-identical.  Every column is a list of native Python scalars
    (``.tolist()``, or the stored weight objects themselves); only the
    entry keys stay an array, for :func:`_place_by_connector`.
    """
    np = vec.np
    n = len(rows)
    probes = [
        np.fromiter(
            map(cmap.get, join_key_column(rows, positions), repeat(-1)), np.int64, n
        )
        for _single, positions, cmap in scan.lookups
    ]
    w = np.array(weights, np.float64)
    alive = None
    if probes:
        mask = np.minimum.reduce(probes) >= 0
        if not mask.all():
            alive = np.flatnonzero(mask)
            probes = [probe[alive] for probe in probes]
            w = w[alive]
    k = w if scan.lane == LANE_ID else -w
    conn_min = np.asarray(scan.conn_min, dtype=np.float64)
    # Left-folded from 0.0 in branch order, like the scalar tree loop
    # (whose chain shortcut ``pi = conn_min[cu]`` has the same bits: no
    # connector minimum is ever -0.0, being itself a sum that began at
    # +0.0).  inf + -inf is NaN here as there, without the warning.
    pi = np.zeros(len(k))
    with np.errstate(invalid="ignore"):
        for probe in probes:
            pi = pi + conn_min[probe]
        entry_keys = k + pi
    # Branch-major per state, like the scalar loop's ``extend``.
    cu_out = np.stack(probes, axis=1).ravel().tolist() if probes else []
    if alive is None:
        tuples_out = list(rows) if keep_tuples else []
        ids_out = (
            list(range(base, base + n)) if base is not None else list(global_ids)
        )
    else:
        alive_list = alive.tolist()
        tuples_out = [rows[i] for i in alive_list] if keep_tuples else []
        weights = [weights[i] for i in alive_list]
        if base is not None:
            ids_out = (alive + base).tolist()
        else:
            ids_out = [global_ids[i] for i in alive_list]
    # Like the scalar loop, hand back objects that already exist rather
    # than a second float per state: state keys are the stored weights
    # (negated for max-plus; an ``int`` weight stays one), a leaf's pi1
    # column is one shared ``0.0``, a single branch's is its connector
    # minima themselves (``0.0 + m`` has ``m``'s bits, see above).
    vk_out = list(weights) if scan.lane == LANE_ID else list(map(neg, weights))
    if not probes:
        pk_out = [0.0] * len(vk_out)
    elif len(probes) == 1:
        pk_out = list(map(scan.conn_min.__getitem__, cu_out))
    else:
        pk_out = pi.tolist()
    return entry_keys, tuples_out, ids_out, vk_out, pk_out, cu_out


def scan_stage(
    scan: StageScan,
    rows: Sequence[tuple],
    weights: Sequence,
    base: int | None,
    global_ids: Sequence[int] | None,
    keep_tuples: bool = True,
):
    """Lower one stage's ``rows`` and parallel ``weights`` to flat arrays.

    The one per-row pass of the bottom-up sweep: drop rows violating a
    repeated variable or lacking a join partner in some child branch,
    fold the child connectors' minima into ``pi1``, key the weight.
    Insertion positions are ``base + local`` for a contiguous slice,
    ``global_ids[local]`` otherwise.  Returns ``(entry_keys, tuples_out,
    ids_out, vk_out, pk_out, cu_out)``, one element per alive state:
    states are sequential (``0 .. alive-1``), so ``entry_keys[s]`` is
    state ``s``'s ``k + pi`` and pool workers ship only the value
    arrays.  ``entry_keys`` is a list from this loop, an ndarray from
    the numpy kernel (everything else is native lists either way).
    """
    check_repeats = scan.check_repeats
    satisfies = scan.satisfies
    lookups = scan.lookups
    lane = scan.lane
    identity = lane == LANE_ID
    negate = lane == LANE_NEG
    key_of = scan.key_of
    conn_min = scan.conn_min

    if (
        not check_repeats
        and lane != LANE_CALL
        and len(rows) >= _VEC_SCAN_MIN
        and vec.np is not None
    ):
        return _scan_stage_vec(scan, rows, weights, base, global_ids, keep_tuples)

    tuples_out: list[tuple] = []
    ids_out: list[int] = []
    vk_out: list[float] = []
    pk_out: list[float] = []
    cu_out: list[int] = []
    entry_keys: list[float] = []
    t_append = tuples_out.append
    i_append = ids_out.append
    v_append = vk_out.append
    p_append = pk_out.append
    e_append = entry_keys.append

    if len(lookups) == 1 and lookups[0][0] is not None:  # the chain shape
        child_col, _positions, cmap = lookups[0]
        cm_get = cmap.get
        c_append = cu_out.append
        for local, (row, w) in enumerate(zip(rows, weights)):
            if check_repeats and not satisfies(row):
                continue
            cu = cm_get(row[child_col])
            if cu is None:
                continue
            pi = conn_min[cu]
            k = w if identity else (-w if negate else key_of(w))
            e_append(k + pi)
            if keep_tuples:
                t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(k)
            p_append(pi)
            c_append(cu)
    else:
        for local, (row, w) in enumerate(zip(rows, weights)):
            if check_repeats and not satisfies(row):
                continue
            pi = 0.0
            conns: list[int] = []
            dead = False
            for single, positions, cmap in lookups:
                if single is None:
                    cu = cmap.get(tuple(row[p] for p in positions))
                else:
                    cu = cmap.get(row[single])
                if cu is None:
                    dead = True
                    break
                conns.append(cu)
                pi = pi + conn_min[cu]
            if dead:
                continue
            k = w if identity else (-w if negate else key_of(w))
            e_append(k + pi)
            if keep_tuples:
                t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(k)
            p_append(pi)
            cu_out.extend(conns)

    return entry_keys, tuples_out, ids_out, vk_out, pk_out, cu_out


# -- phase B: assemble one fragment's core -------------------------------------


def shared_lists(shared: SharedLower, num_fragments: int) -> dict:
    """The uid-indexed lists every fragment core of one plan aliases.

    Pre-sized to the common uid space (shared connectors first, then one
    root connector per fragment, all at the anchor stage): fragment
    slots are assigned by index, so concurrent phase-B builds on a
    thread pool never resize a shared list.
    """
    total = shared.num_conns + num_fragments
    return {
        "pairs": shared.pairs + [None] * num_fragments,
        "conn_stage": shared.conn_stage + [shared.anchor_stage] * num_fragments,
        "caches": ([None] * total, [None] * total, [None] * total),
    }


def build_fragment(
    shared: SharedLower,
    rows: Sequence[tuple],
    weights: Sequence,
    base: int | None,
    global_ids: Sequence[int] | None,
    index: int,
    lists: dict,
) -> CompiledTDP:
    """Phase B: lower one anchor fragment and assemble its compiled core.

    ``rows`` / ``weights`` are the fragment's slice of the anchor
    relation (:func:`stage_columns`); insertion positions are ``base +
    local`` for a contiguous slice, ``global_ids[local]`` otherwise.
    ``index`` is the fragment's slot in ``lists`` (see
    :func:`shared_lists`).
    """
    scan_out = scan_stage(
        stage_scan_of(shared, shared.anchor_stage), rows, weights, base, global_ids
    )
    return assemble_fragment(shared, scan_out, index, lists)


def assemble_fragment(
    shared: SharedLower, scan_out: tuple, index: int, lists: dict
) -> CompiledTDP:
    """One fragment's core from its scan output over the shared columns.

    ``scan_out`` is :func:`scan_stage`'s tuple (its rows may be a lazy
    row source).  The entry keys may be ``None``: pool workers ship only
    the value arrays and the keys are recomputed here by the same float
    addition.  Scan states are sequential, so the fragment's root
    connector is the keys zipped with ``0 .. alive-1``.
    """
    entry_keys, rows, ids_out, vk_out, pk_out, cu_out = scan_out
    if entry_keys is None:
        entry_keys = [v + p for v, p in zip(vk_out, pk_out)]
    elif _from_kernel(entry_keys):
        entry_keys = entry_keys.tolist()
    entries = list(zip(entry_keys, count()))
    dioid = shared.dioid
    anchor = shared.anchor_stage
    uid = shared.num_conns + index

    empty = not entries or not shared.complete
    if empty:
        best_key = dioid.key(dioid.zero)
    else:
        # The virtual start state: one branch per root stage, folded in
        # stage order exactly as ``build_tdp`` folds ``best_weight``.
        frag_min = min(entries)[0]
        best_key = 0.0
        for stage, parent in enumerate(shared.parent_stage):
            if parent == -1:
                best_key = best_key + (
                    frag_min
                    if stage == anchor
                    else shared.conn_min[shared.root_uid[stage]]
                )

    lists["pairs"][uid] = entries
    values_key = list(shared.values_key)
    values_key[anchor] = vk_out
    pi1_key = list(shared.pi1_key)
    pi1_key[anchor] = pk_out
    child_uids = list(shared.child_uids)
    child_uids[anchor] = cu_out
    tuples = list(shared.tuples)
    tuples[anchor] = rows
    tuple_ids = list(shared.tuple_ids)
    tuple_ids[anchor] = ids_out
    root_uid = dict(shared.root_uid)
    root_uid[anchor] = uid

    shell = CoreShell(
        dioid, shared.order, shared.parent_stage, shared.query, shared.tree,
        tuples, tuple_ids,
    )
    return CompiledTDP.assemble(
        shell,
        values_key=values_key,
        pi1_key=pi1_key,
        child_uids=child_uids,
        conn_stage=lists["conn_stage"],
        root_uid=root_uid,
        best_key=best_key,
        empty=empty,
        pairs=lists["pairs"],
        caches=lists["caches"],
    )


def lower_query(
    database: Database, tree: JoinTree, dioid: SelectiveDioid, span=NULL_SPAN
) -> CompiledTDP:
    """The whole bottom-up pass: phase A, then one all-spanning fragment.

    The anchor is stage 0 of ``tree`` — the first root, which the object
    builder also processes last — so the core is the one
    ``compile_tdp(build_tdp(database, tree, dioid))`` would produce,
    without the object graph in between.  ``core.tdp`` is the
    :class:`~repro.dp.flat.CoreShell` for result assembly.  ``span``
    (the caller's ``tdp.build``) is told how many input rows the pass
    scanned and how many of its stages took the numpy kernel.
    """
    query = tree.query
    shared = build_shared_lower(database, query, tree, dioid, anchor_stage=0)
    relation = database[query.atoms[shared.order[0]].relation_name]
    rows, weights = stage_columns(relation)
    scan_out = scan_stage(stage_scan_of(shared, 0), rows, weights, 0, None)
    span.set(
        rows=shared.rows + len(rows),
        stages=shared.num_stages,
        vectorized_stages=shared.vectorized_stages + _from_kernel(scan_out[0]),
    )
    return assemble_fragment(shared, scan_out, 0, shared_lists(shared, 1))
