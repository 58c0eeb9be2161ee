"""The bottom-up pass, lowered straight to key-space arrays.

The paper's preprocessing for an acyclic query is one linear sweep over
the join tree (Section 4; Eq. 2 / Eq. 7).  This module is that sweep for
every dioid with the float-key contract (``key_is_value``): each stage
is read in one bulk backend fetch and lowered *directly* into the
columns of a :class:`~repro.dp.flat.CompiledTDP` — native float
arithmetic in key space, grouped ``(key, state)`` entry pairs — without
building the object graph of :mod:`repro.dp.builder` first.  It mirrors
``build_tdp`` stage by stage (same row order, same alive filter, same
left-fold weight aggregation), so the keys are the bit-exact ``key``
image of the object builder's values and the ranked output is identical.

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

Dioids without the contract, the ``canonical`` tie-break, decomposition
members, the min-weight projection and ``DPProblem`` keep the object
builder; :func:`repro.dp.flat.compile_tdp` lowers its result where a
flat core is still wanted.
"""

from __future__ import annotations

import time
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
from repro.query.jointree import JoinTree
from repro.ranking.dioid import SelectiveDioid
from repro.util import vec


def trailing_rows(
    relation: Relation, lo: int | None = None, hi: int | None = None
) -> list[tuple]:
    """Rows as flat tuples with the weight trailing (bulk, order-stable).

    Backend-stored, unmaterialised relations use the backend's bulk
    ``fetch_rows`` (a single rowid-range ``fetchall`` for SQLite);
    in-memory relations normalise their parallel lists once per stage.
    """
    backend = relation.backend
    if backend is not None and not relation.is_materialized:
        return backend.fetch_rows(relation.table, lo, hi)
    tuples = relation.tuples
    weights = relation.weights
    if lo is not None or hi is not None:
        tuples = tuples[lo:hi]
        weights = weights[lo:hi]
    return [t + (w,) for t, w in zip(tuples, weights)]


def _bare_rows(relation: Relation, kept: list[tuple], ids: list[int]) -> list[tuple]:
    """The kept rows at atom arity — what result assembly reads.

    ``kept`` are :func:`trailing_rows` rows, ``ids`` their insertion
    positions.  Materialised relations hand back their stored tuples
    (no allocation); backend rows drop the trailing weight.
    """
    if relation.backend is None or relation.is_materialized:
        tuples = relation.tuples
        return [tuples[i] for i in ids]
    arity = relation.arity
    return [row[:arity] for row in kept]


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
        "parent_key_positions", "seconds",
    )

    def __init__(self, query, tree: JoinTree, dioid: SelectiveDioid, anchor_stage: int):
        self.query = query
        self.tree = tree
        self.dioid = dioid
        self.lane = key_lane(dioid)
        self.order = list(tree.order)
        self.num_stages = len(self.order)
        stage_of_atom = {a: s for s, a in enumerate(self.order)}
        self.parent_stage = [
            -1 if tree.parent[a] == -1 else stage_of_atom[tree.parent[a]]
            for a in self.order
        ]
        self.children_stages: list[list[int]] = [[] for _ in range(self.num_stages)]
        for stage, parent in enumerate(self.parent_stage):
            if parent != -1:
                self.children_stages[parent].append(stage)
        self.anchor_stage = anchor_stage
        if self.parent_stage[anchor_stage] != -1:
            raise ValueError("the anchor stage must be a component root")
        self.own_key_positions: list[tuple[int, ...]] = []
        self.parent_key_positions: list[tuple[int, ...]] = []
        for stage, atom_idx in enumerate(self.order):
            atom = query.atoms[atom_idx]
            shared = tree.shared_variables(atom_idx)
            self.own_key_positions.append(atom.positions_of(shared))
            if self.parent_stage[stage] == -1:
                self.parent_key_positions.append(())
            else:
                parent_atom = query.atoms[tree.parent[atom_idx]]
                self.parent_key_positions.append(parent_atom.positions_of(shared))

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
    then its alive states are grouped by their join key with the parent
    into connectors (first-seen order, like the object builder's).
    """
    start = time.perf_counter()
    shared = SharedLower(query, tree, dioid, anchor_stage)
    pairs = shared.pairs
    conn_stage = shared.conn_stage
    conn_min = shared.conn_min

    for stage in reversed(range(shared.num_stages)):
        if stage == anchor_stage:
            continue
        relation = database[query.atoms[shared.order[stage]].relation_name]
        entries, kept, ids_out, vk_out, pk_out, cu_out = scan_stage(
            stage_scan_of(shared, stage), trailing_rows(relation), 0, None
        )
        shared.tuples[stage] = _bare_rows(relation, kept, ids_out)
        shared.tuple_ids[stage] = ids_out
        shared.values_key[stage] = vk_out
        shared.pi1_key[stage] = pk_out
        shared.child_uids[stage] = cu_out

        own_pos = shared.own_key_positions[stage]
        if len(own_pos) == 1:
            column = own_pos[0]
            join_keys = [row[column] for row in kept]
        else:
            join_keys = [tuple(row[p] for p in own_pos) for row in kept]
        groups: dict = {}
        g_get = groups.get
        for join_key, entry in zip(join_keys, entries):
            bucket = g_get(join_key)
            if bucket is None:
                groups[join_key] = [entry]
            else:
                bucket.append(entry)

        cmap_out = shared.conn_maps[stage]
        for join_key, group in groups.items():
            cmap_out[join_key] = len(pairs)
            pairs.append(group)
            conn_stage.append(stage)
            conn_min.append(min(group)[0])
        shared.num_conns = len(pairs)

        if shared.parent_stage[stage] == -1:
            root = cmap_out.get(())
            if root is None:
                shared.complete = False
            else:
                shared.root_uid[stage] = root

    shared.seconds = time.perf_counter() - start
    return shared


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
        "warity", "check_repeats", "satisfies", "lookups", "lane",
        "key_of", "conn_min",
    )

    def __init__(self, atom, lookups, lane, key_of, conn_min):
        self.warity = atom.arity
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


def _scan_stage_vec(
    scan: StageScan,
    rows: list[tuple],
    base: int | None,
    global_ids: Sequence[int] | None,
    keep_tuples: bool,
):
    """Vectorized chain-shape stage scan (identity/negate lanes only).

    The join-key dict probes stay in Python (hash tables do not
    vectorize); the alive mask, the key transform, and the ``k + pi``
    entry keys run as numpy float64 kernels — the same IEEE operations
    in the same order as the scalar loop, so the produced arrays are
    bit-identical.  All outputs convert back to native Python scalars
    (``.tolist()``): nothing downstream ever sees a numpy type.
    """
    np = vec.np
    child_col, _positions, cmap = scan.lookups[0]
    cm_get = cmap.get
    warity = scan.warity
    n = len(rows)
    cu_all = np.fromiter(
        (cm_get(row[child_col], -1) for row in rows), np.int64, n
    )
    alive = np.flatnonzero(cu_all >= 0)
    cu = cu_all[alive]
    alive_list = alive.tolist()
    w = np.fromiter((rows[i][warity] for i in alive_list), np.float64, len(alive_list))
    k = w if scan.lane == LANE_ID else -w
    pi = np.asarray(scan.conn_min, dtype=np.float64)[cu]
    ek = k + pi
    vk_out = k.tolist()
    pk_out = pi.tolist()
    cu_out = cu.tolist()
    entries = list(zip(ek.tolist(), range(len(vk_out))))
    tuples_out = [rows[i] for i in alive_list] if keep_tuples else []
    if base is not None:
        ids_out = (alive + base).tolist()
    else:
        ids_out = [global_ids[i] for i in alive_list]
    return entries, tuples_out, ids_out, vk_out, pk_out, cu_out


def scan_stage(
    scan: StageScan,
    rows: list[tuple],
    base: int | None,
    global_ids: Sequence[int] | None,
    keep_tuples: bool = True,
):
    """Lower one stage's ``rows`` (trailing weight) to flat arrays.

    The one per-row loop of the bottom-up pass: drop rows violating a
    repeated variable or lacking a join partner in some child branch,
    fold the child connectors' minima into ``pi1``, key the weight.
    Insertion positions are ``base + local`` for a contiguous slice,
    ``global_ids[local]`` otherwise.  Returns ``(entries, tuples_out,
    ids_out, vk_out, pk_out, cu_out)``; ``entries`` states are
    sequential (``0 .. alive-1``), which is what lets pool workers ship
    only the value arrays.
    """
    warity = scan.warity
    check_repeats = scan.check_repeats
    satisfies = scan.satisfies
    lookups = scan.lookups
    lane = scan.lane
    identity = lane == LANE_ID
    negate = lane == LANE_NEG
    key_of = scan.key_of
    conn_min = scan.conn_min

    chain = len(lookups) == 1 and lookups[0][0] is not None
    if (
        chain
        and not check_repeats
        and lane != LANE_CALL
        and len(rows) >= _VEC_SCAN_MIN
        and vec.np is not None
    ):
        return _scan_stage_vec(scan, rows, base, global_ids, keep_tuples)

    tuples_out: list[tuple] = []
    ids_out: list[int] = []
    vk_out: list[float] = []
    pk_out: list[float] = []
    cu_out: list[int] = []
    entries: list[tuple[float, int]] = []
    t_append = tuples_out.append
    i_append = ids_out.append
    v_append = vk_out.append
    p_append = pk_out.append
    e_append = entries.append
    state = 0

    if chain:
        child_col, _positions, cmap = lookups[0]
        cm_get = cmap.get
        c_append = cu_out.append
        for local, row in enumerate(rows):
            if check_repeats and not satisfies(row):
                continue
            cu = cm_get(row[child_col])
            if cu is None:
                continue
            pi = conn_min[cu]
            w = row[warity]
            k = w if identity else (-w if negate else key_of(w))
            e_append((k + pi, state))
            if keep_tuples:
                t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(k)
            p_append(pi)
            c_append(cu)
            state += 1
    else:
        for local, row in enumerate(rows):
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
            w = row[warity]
            k = w if identity else (-w if negate else key_of(w))
            e_append((k + pi, state))
            if keep_tuples:
                t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(k)
            p_append(pi)
            cu_out.extend(conns)
            state += 1

    return entries, tuples_out, ids_out, vk_out, pk_out, cu_out


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
    relation: Relation,
    rows: list[tuple],
    base: int | None,
    global_ids: Sequence[int] | None,
    index: int,
    lists: dict,
) -> CompiledTDP:
    """Phase B: lower one anchor fragment and assemble its compiled core.

    ``rows`` is the fragment's slice of the anchor ``relation``
    (trailing weight); insertion positions are ``base + local`` for a
    contiguous slice, ``global_ids[local]`` otherwise.  ``index`` is the
    fragment's slot in ``lists`` (see :func:`shared_lists`).
    """
    entries, kept, ids_out, vk_out, pk_out, cu_out = scan_stage(
        stage_scan_of(shared, shared.anchor_stage), rows, base, global_ids
    )
    scan_out = (
        entries, _bare_rows(relation, kept, ids_out), ids_out,
        vk_out, pk_out, cu_out,
    )
    return assemble_fragment(shared, scan_out, index, lists)


def assemble_fragment(
    shared: SharedLower, scan_out: tuple, index: int, lists: dict
) -> CompiledTDP:
    """One fragment's core from its scan output over the shared columns.

    ``scan_out`` is :func:`scan_stage`'s tuple with the rows already at
    atom arity (or a lazy row source).  ``entries`` may be ``None``:
    scan states are sequential, so pool workers ship only the value
    arrays and the pairs are recomputed here by the same float addition.
    """
    entries, rows, ids_out, vk_out, pk_out, cu_out = scan_out
    if entries is None:
        entries = [(v + p, s) for s, (v, p) in enumerate(zip(vk_out, pk_out))]
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
    database: Database, tree: JoinTree, dioid: SelectiveDioid
) -> CompiledTDP:
    """The whole bottom-up pass: phase A, then one all-spanning fragment.

    The anchor is stage 0 of ``tree`` — the first root, which the object
    builder also processes last — so the core is the one
    ``compile_tdp(build_tdp(database, tree, dioid))`` would produce,
    without the object graph in between.  ``core.tdp`` is the
    :class:`~repro.dp.flat.CoreShell` for result assembly.
    """
    query = tree.query
    shared = build_shared_lower(database, query, tree, dioid, anchor_stage=0)
    relation = database[query.atoms[shared.order[0]].relation_name]
    return build_fragment(
        shared, relation, trailing_rows(relation), 0, None, 0,
        shared_lists(shared, 1),
    )
