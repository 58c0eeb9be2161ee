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

**Scan, then placement.**  The scan drops dead rows and emits one column
per output (state values, ``pi1`` values, child connector uids, entry
values ``v ⊗ pi1``).  The alive states are then *placed* into connectors
by the uid of their join key, never by weight — "nothing is sorted
during preprocessing" holds: the placement is a counting sort on
connector ids, appending every entry tuple to one pool in uid order (the
core's ``entries`` / ``conn_offsets``); a connector's list is cut only
when enumeration first touches it.  Measured: a fragment's root is a
list at bind (zipping it in the first fetch was slower), and the tuples
are made at bind (made on touch, they moved collections into pages).

**Two implementations, one behaviour.**  With numpy, a stage of at
least ``_VEC_SCAN_MIN`` rows and no repeated variable takes the kernels:
:func:`_scan_stage_vec`, then :func:`_place_by_connector` — for a core
with an inverse, and for one without (tie-broken union members, acyclic
max-times) with its rank column converted to int64 once
(:func:`_kernel_columns`); the fragment root's least entry comes from
the same arrays.  Everything else — no numpy (``REPRO_NO_NUMPY``),
small stages, repeated variables, NaN entry values, a rank column past
int64 (the tie-breaker numbers more than 2**63 assignments) — runs the
scalar loops over the same sequences, with the same IEEE operations in
the same order.

The sweep is split at one **anchor** stage, a root of its join-tree
component; no non-anchor stage depends on which anchor rows are present:

* **phase A** (:func:`build_shared_lower`, once): all non-anchor stages
  — state columns, the connector entry pool, join-key maps;
* **phase B** (:func:`build_fragment`, per fragment): scan one slice of
  the anchor relation against phase A's join-key maps, emit that
  fragment's root connector and assemble its core over the shared
  columns.

:func:`lower_query` and :func:`lower_member` are phase A plus one
fragment spanning the anchor relation (stage 0).  The parallel layer
(:mod:`repro.parallel.build`) runs phase B once per shard fragment,
possibly on a thread pool; the fragment cores alias phase A's columns
and entry pool and one set of uid-indexed lists (cut entries, Take2
orders, sorted lists, REA heap templates), built once per version.

Dioids without a lane (and members over them), the ``canonical``
tie-break, the UCQ pipeline, the min-weight projection and ``DPProblem``
keep the object builder, which reads the same stage-input shape
(:func:`stage_columns`, :func:`join_key_column`).
"""

from __future__ import annotations

import time
from itertools import accumulate, chain, count, repeat
from operator import add, itemgetter, neg
from typing import Iterable, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.flat import CompiledTDP, CoreShell, LaneCore
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
        "ent_rank", "entries", "conn_offsets", "conn_stage", "conn_min",
        "conn_rank", "conn_maps", "root_uid", "num_conns", "complete",
        "own_key_positions", "parent_key_positions", "seconds", "rows",
        "vectorized_stages",
    )

    def __init__(
        self, query, tree: JoinTree, dioid: SelectiveDioid, anchor_stage: int,
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
        base = dioid if templates is None else dioid.base
        self.one = base.one
        self.zero = base.zero
        self.inverse = dioid.has_inverse
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
        self.val_base: list[list] = [[] for _ in self.order]
        self.pi1: list[list] = [[] for _ in self.order]
        #: Flattened child connector uids per stage (branch-major).
        self.child_uids: list[list[int]] = [[] for _ in self.order]
        #: The entry pool in uid order, ``(key, state)`` or ``(key, rank, state)``.
        self.entries: list[tuple] = []
        self.conn_offsets: list[int] = [0]
        self.conn_stage: list[int] = []
        #: uid -> the value of its least entry.
        self.conn_min: list = []
        # Without an inverse: per stage the rank and entry-value columns,
        # per connector the least entry's rank.
        self.val_rank = self.ent_base = self.ent_rank = self.conn_rank = None
        if not self.inverse:
            self.val_rank = [[] for _ in self.order]
            self.ent_base = [[] for _ in self.order]
            self.ent_rank = [[] for _ in self.order]
            self.conn_rank = []
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
    database: Database, query, tree: JoinTree, dioid: SelectiveDioid,
    anchor_stage: int, lane: FloatLane | None = None, templates: dict | None = None,
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
    column of a tie-broken ``dioid``.
    """
    start = time.perf_counter()
    shared = SharedLower(query, tree, dioid, anchor_stage, lane, templates)

    for stage in reversed(range(shared.num_stages)):
        if stage == anchor_stage:
            continue
        relation = database[query.atoms[shared.order[stage]].relation_name]
        rows, weights = stage_columns(relation)
        entry_values, kept, ids_out, vk_out, pk_out, cu_out = scan_stage(
            stage_scan_of(shared, stage), rows, weights, 0, None
        )
        shared.rows += len(rows)
        shared.vectorized_stages += _from_kernel(entry_values)
        shared.tuples[stage] = kept
        shared.tuple_ids[stage] = ids_out
        shared.val_base[stage] = vk_out
        shared.pi1[stage] = pk_out
        shared.child_uids[stage] = cu_out
        entry_ranks = None
        if not shared.inverse:
            shared.val_rank[stage], entry_ranks = _rank_columns(
                shared, stage, kept, cu_out
            )
            shared.ent_base[stage] = _as_list(entry_values)
            shared.ent_rank[stage] = entry_ranks

        join_keys = list(join_key_column(kept, shared.own_key_positions[stage]))
        _place_entries(shared, stage, join_keys, entry_values, entry_ranks)
        shared.num_conns = len(shared.conn_stage)

        if shared.parent_stage[stage] == -1:
            root = shared.conn_maps[stage].get(())
            if root is None:
                shared.complete = False
            else:
                shared.root_uid[stage] = root

    shared.seconds = time.perf_counter() - start
    return shared


def _rank_columns(
    shared: SharedLower, stage: int, rows: Sequence[tuple], child_uids: list[int]
) -> tuple[list[int], list[int]]:
    """``(val_rank, ent_rank)`` of one stage of a core without an inverse:
    zeros without a tie-breaker, else the packed ranks of the variables
    the stage owns plus, for the entry, the child connectors' least ranks.
    """
    if shared.templates is None:
        zeros = [0] * len(rows)
        return zeros, zeros
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
    if pi_rank is None:  # a leaf
        return val_rank, val_rank
    return val_rank, list(map(add, val_rank, pi_rank))


def _as_list(column):
    """A kernel's numpy column as a list of native scalars; a list as it is."""
    return column.tolist() if _from_kernel(column) else column


# -- one stage's connectors ----------------------------------------------------


def _place_entries(
    shared: SharedLower, stage: int, join_keys: list, entry_values, entry_ranks=None
) -> None:
    """Key one stage's entry values and place its states into connectors.

    A connector per distinct join key in first-seen order, its entries
    (``(key, state)``, or ``(key, rank, state)`` with ``entry_ranks``)
    appended to the pool in state order, its minimum the value of
    ``min(group)``.  This loop is the reference; kernel output goes
    through :func:`_place_by_connector` unless :func:`_kernel_columns`
    refuses it (a NaN, or a rank that does not fit in int64).
    """
    columns = _kernel_columns(entry_values, entry_ranks)
    if columns is not None:
        _place_by_connector(shared, stage, join_keys, *columns)
        return
    entry_values = _as_list(entry_values)
    keys = list(map(neg, entry_values)) if shared.lane.negate else entry_values
    if entry_ranks is None:
        entries = zip(keys, count())
    else:
        entries = zip(keys, entry_ranks, count())
    groups: dict = {}
    g_get = groups.get
    for join_key, entry in zip(join_keys, entries):
        bucket = g_get(join_key)
        if bucket is None:
            groups[join_key] = [entry]
        else:
            bucket.append(entry)

    # The buckets are scratch: the core keeps the pool they flatten into.
    pool = shared.entries
    shared.conn_maps[stage].update(zip(groups, count(len(shared.conn_stage))))
    shared.conn_stage += [stage] * len(groups)
    shared.conn_offsets += map(len(pool).__add__, accumulate(map(len, groups.values())))
    pool += chain.from_iterable(groups.values())
    least = list(map(min, groups.values()))
    shared.conn_min += map(entry_values.__getitem__, map(itemgetter(-1), least))
    if entry_ranks is not None:
        shared.conn_rank += map(itemgetter(1), least)


def _kernel_columns(entry_values, entry_ranks):
    """A stage's entry columns as the placement kernel takes them — the
    scan's numpy values and the ranks (if any) as int64 — or ``None``
    where only the scalar loop reproduces ``min()``: a list (no kernel
    scan), no rows, a NaN (``min()`` over ``(nan, ...)`` tuples depends
    on the order it meets them in), or a rank past int64 (the
    tie-breaker numbers more than 2**63 assignments)."""
    np = vec.np
    if (
        not _from_kernel(entry_values)
        or not len(entry_values)
        or np.isnan(entry_values).any()
    ):
        return None
    if entry_ranks is None:
        return entry_values, None
    try:
        return entry_values, np.array(entry_ranks, np.int64)
    except OverflowError:
        return None


def _least_entries(keys, ranks, starts, sizes):
    """Per connector, the position of its least entry in the sorted columns.

    ``keys`` (and ``ranks``) are in connector order, each connector the
    range ``starts[i] .. starts[i] + sizes[i]`` in state order.  The
    position is ``min()``'s over the entry tuples: the least key
    (``0.0 == -0.0``), among those the least rank, among those the first
    state — so a zero minimum has the sign of the entry it came from.
    """
    np = vec.np
    n = len(keys)
    at_min = keys == np.repeat(np.minimum.reduceat(keys, starts), sizes)
    if ranks is not None:
        ranked = np.where(at_min, ranks, np.iinfo(np.int64).max)
        at_min &= ranks == np.repeat(np.minimum.reduceat(ranked, starts), sizes)
    return np.minimum.reduceat(np.where(at_min, np.arange(n), n), starts)


def _place_by_connector(
    shared: SharedLower, stage: int, join_keys: list, entry_values, entry_ranks=None
) -> None:
    """:func:`_place_entries` as one bucket placement by connector id.

    Nothing is ordered by weight: first-seen uids come from
    ``dict.fromkeys``, one stable integer argsort (a counting sort up to
    2**16 connectors) moves every state into its connector's range,
    :func:`_least_entries` picks each range's least entry, and the pool
    grows by one C-level ``zip`` of the key, (int64) rank and state
    columns.
    """
    np = vec.np
    states = len(entry_values)
    first_uid = len(shared.conn_stage)
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
    keys = (-entry_values if shared.lane.negate else entry_values)[order]
    ranks = None if entry_ranks is None else entry_ranks[order]
    least = _least_entries(keys, ranks, starts, sizes)
    pool = shared.entries
    shared.conn_offsets += (ends + len(pool)).tolist()
    if ranks is None:
        pool += zip(keys.tolist(), order.tolist())
    else:
        pool += zip(keys.tolist(), ranks.tolist(), order.tolist())
        shared.conn_rank += ranks[least].tolist()
    shared.conn_stage.extend([stage] * conns)
    shared.conn_min += entry_values[order[least]].tolist()


# -- one stage's scan ----------------------------------------------------------


#: Row count below which the vectorized scan is not worth the numpy
#: round-trip.
_VEC_SCAN_MIN = 512


class StageScan:
    """One stage scan's inputs, read off a :class:`SharedLower` once
    (:func:`stage_scan_of`)."""

    __slots__ = ("check_repeats", "satisfies", "lookups", "lane", "one", "conn_min")

    def __init__(self, atom, lookups, lane: FloatLane, one, conn_min):
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


def _from_kernel(entry_values) -> bool:
    """Whether a scan's entry values are the numpy kernel's (an ndarray)."""
    return not isinstance(entry_values, list)


def _scan_stage_vec(
    scan: StageScan,
    rows: Sequence[tuple],
    weights: Sequence,
    base: int | None,
    global_ids: Sequence[int] | None,
):
    """Vectorized stage scan (no repeated variable).

    The join-key dict probes stay hash probes (hash tables do not
    vectorize) but run as one C-level ``map`` per child branch; the
    alive mask, the ``pi`` fold and the ``v ⊗ pi`` entry values run as
    numpy float64 kernels — the same IEEE operations in the same order
    as the scalar loop, so the produced arrays are bit-identical.  Every
    column is a list of native Python scalars (``.tolist()``, or the
    stored weight objects themselves); only the entry values stay an
    array, for :func:`_place_by_connector`.
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
    multiply = scan.lane.multiply
    conn_min = np.asarray(scan.conn_min, dtype=np.float64)
    # Folded from ``one`` in branch order, like the scalar tree loop
    # (whose chain shortcut ``pi = conn_min[cu]`` has the same bits:
    # ``1.0 * m`` is ``m``, and so is ``0.0 + m``, a minimum under ``+``
    # never being -0.0, itself a sum that began at +0.0).  inf + -inf
    # and 0 * inf are NaN here as there, without the warning.
    pi = np.full(len(w), scan.one)
    with np.errstate(invalid="ignore"):
        for probe in probes:
            pi = pi * conn_min[probe] if multiply else pi + conn_min[probe]
        entry_values = w * pi if multiply else w + pi
    # Branch-major per state, like the scalar loop's ``extend``.
    cu_out = np.stack(probes, axis=1).ravel().tolist() if probes else []
    if alive is None:
        tuples_out = list(rows)
        ids_out = (
            list(range(base, base + n)) if base is not None else list(global_ids)
        )
    else:
        alive_list = alive.tolist()
        tuples_out = [rows[i] for i in alive_list]
        weights = [weights[i] for i in alive_list]
        if base is not None:
            ids_out = (alive + base).tolist()
        else:
            ids_out = [global_ids[i] for i in alive_list]
    # Like the scalar loop, hand back objects that already exist rather
    # than a second float per state: state values are the stored
    # weights (an ``int`` weight stays one), a leaf's pi1 column is one
    # shared ``one``, a single branch's is its connector minima
    # themselves (the same bits, see above).
    vk_out = list(weights)
    if not probes:
        pk_out = [scan.one] * len(vk_out)
    elif len(probes) == 1:
        pk_out = list(map(scan.conn_min.__getitem__, cu_out))
    else:
        pk_out = pi.tolist()
    return entry_values, tuples_out, ids_out, vk_out, pk_out, cu_out


def scan_stage(
    scan: StageScan,
    rows: Sequence[tuple],
    weights: Sequence,
    base: int | None,
    global_ids: Sequence[int] | None,
):
    """Lower one stage's ``rows`` and parallel ``weights`` to flat columns.

    The one per-row pass of the bottom-up sweep: drop rows violating a
    repeated variable or lacking a join partner in some child branch,
    fold the child connectors' minima into ``pi1`` from ``one``, and
    multiply the weight by it.  Insertion positions are ``base + local``
    for a contiguous slice, ``global_ids[local]`` otherwise.  Returns
    ``(entry_values, tuples_out, ids_out, vk_out, pk_out, cu_out)``,
    one element per alive state: states are sequential (``0 ..
    alive-1``), so ``entry_values[s]`` is state ``s``'s ``v ⊗ pi``.
    ``entry_values`` is a list from this loop, an ndarray from the numpy
    kernel (everything else is native lists either way).
    """
    check_repeats = scan.check_repeats
    satisfies = scan.satisfies
    lookups = scan.lookups
    multiply = scan.lane.multiply
    one = scan.one
    conn_min = scan.conn_min

    if not check_repeats and len(rows) >= _VEC_SCAN_MIN and vec.np is not None:
        return _scan_stage_vec(scan, rows, weights, base, global_ids)

    tuples_out: list[tuple] = []
    ids_out: list[int] = []
    vk_out: list = []
    pk_out: list = []
    cu_out: list[int] = []
    entry_values: list = []
    t_append = tuples_out.append
    i_append = ids_out.append
    v_append = vk_out.append
    p_append = pk_out.append
    e_append = entry_values.append

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
            e_append(w * pi if multiply else w + pi)
            t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(w)
            p_append(pi)
            c_append(cu)
    else:
        for local, (row, w) in enumerate(zip(rows, weights)):
            if check_repeats and not satisfies(row):
                continue
            pi = one
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
                pi = pi * conn_min[cu] if multiply else pi + conn_min[cu]
            if dead:
                continue
            e_append(w * pi if multiply else w + pi)
            t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(w)
            p_append(pi)
            cu_out.extend(conns)

    return entry_values, tuples_out, ids_out, vk_out, pk_out, cu_out


# -- phase B: assemble one fragment's core -------------------------------------


def shared_lists(shared: SharedLower, num_fragments: int) -> dict:
    """The uid-indexed lists every fragment core of one plan aliases.

    Pre-sized to the common uid space (shared connectors first, then one
    root connector per fragment, all at the anchor stage): fragment
    slots are assigned by index, so concurrent phase-B builds on a
    thread pool never resize a shared list (a root goes into its
    ``pairs`` slot, not the pool).  A core without an inverse adds its
    least entries' values and ranks.
    """
    total = shared.num_conns + num_fragments
    lists = {
        "pairs": [None] * total,
        "conn_stage": shared.conn_stage + [shared.anchor_stage] * num_fragments,
        "caches": ([None] * total, [None] * total, [None] * total),
    }
    if not shared.inverse:
        lists["min_base"] = shared.conn_min + [None] * num_fragments
        lists["min_rank"] = shared.conn_rank + [None] * num_fragments
    return lists


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

    ``scan_out`` is :func:`scan_stage`'s tuple.  Scan states are
    sequential, so the fragment's root connector is the keys zipped with
    ``0 .. alive-1``.
    """
    entry_values, rows, ids_out, vk_out, pk_out, cu_out = scan_out
    multiply, negate = shared.lane
    anchor = shared.anchor_stage
    uid = shared.num_conns + index

    def per_fragment(columns: list, column: list) -> list:
        """The shared per-stage ``columns`` with this fragment's anchor ``column``."""
        columns = list(columns)
        columns[anchor] = column
        return columns

    val_rank = ent_rank = None
    if not shared.inverse:
        val_rank, ent_rank = _rank_columns(shared, anchor, rows, cu_out)
    # The root connector's least entry: from the kernel's arrays where
    # the placement would take them, else ``min()`` over its entries.
    least = None
    columns = _kernel_columns(entry_values, ent_rank)
    if columns is not None:
        keys = -entry_values if negate else entry_values
        least = int(_least_entries(keys, columns[1], [0], [len(keys)])[0])
    entry_values = _as_list(entry_values)
    keys = list(map(neg, entry_values)) if negate else entry_values
    without_inverse: dict = {}
    if shared.inverse:
        entries = list(zip(keys, count()))
    else:
        entries = list(zip(keys, ent_rank, count()))
        without_inverse = dict(
            val_rank=per_fragment(shared.val_rank, val_rank),
            ent_base=per_fragment(shared.ent_base, entry_values),
            ent_rank=per_fragment(shared.ent_rank, ent_rank),
            min_base=lists["min_base"],
            min_rank=lists["min_rank"],
        )

    empty = not entries or not shared.complete
    if empty:
        best = (shared.zero, 0)
    else:
        least = min(entries)[-1] if least is None else least
        frag_min = entry_values[least]
        frag_rank = 0 if shared.inverse else ent_rank[least]
        if not shared.inverse:
            lists["min_base"][uid] = frag_min
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

    lists["pairs"][uid] = entries
    root_uid = dict(shared.root_uid)
    root_uid[anchor] = uid
    shell = CoreShell(
        shared.dioid, shared.order, shared.parent_stage, shared.query, shared.tree,
        per_fragment(shared.tuples, rows), per_fragment(shared.tuple_ids, ids_out),
    )
    core_class = CompiledTDP if shared.templates is None else LaneCore
    return core_class.assemble(
        shell,
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
        entries=shared.entries,
        pairs=lists["pairs"],
        caches=lists["caches"],
        **without_inverse,
    )


def _lower_whole(database: Database, shared: SharedLower) -> CompiledTDP:
    """Phase B over the whole anchor relation (stage 0): one fragment.
    ``shared.rows`` / ``vectorized_stages`` then count every stage."""
    relation = database[shared.query.atoms[shared.order[0]].relation_name]
    rows, weights = stage_columns(relation)
    scan_out = scan_stage(stage_scan_of(shared, 0), rows, weights, 0, None)
    shared.rows += len(rows)
    shared.vectorized_stages += _from_kernel(scan_out[0])
    return assemble_fragment(shared, scan_out, 0, shared_lists(shared, 1))


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
    shared = build_shared_lower(database, tree.query, tree, dioid, anchor_stage=0)
    core = _lower_whole(database, shared)
    span.set(
        rows=shared.rows,
        stages=shared.num_stages,
        vectorized_stages=shared.vectorized_stages,
    )
    return core


def lower_member(
    database: Database,
    join_tree: JoinTree,
    tie: TieBreakingDioid,
    var_position: dict[str, int],
    lane: FloatLane,
    span=NULL_SPAN,
) -> LaneCore:
    """Lower one union member to a :class:`~repro.dp.flat.LaneCore`.

    The same sweep as :func:`lower_query`, ranked under ``tie`` — which
    must have numbered its domains
    (:func:`~repro.dp.builder.rank_tie_domains`) — with the packed-rank
    column of the variables each stage owns; ``lane`` is
    :func:`member_lane`'s.  Its columns and ranks are ``build_tdp``'s
    under ``tie`` and its lift, with no ``times`` or ``key`` call.
    ``span`` is the union's ``tdp.build``: its ``vectorized_stages``
    counts, over the members, the stages that took the numpy kernel (the
    union sets ``rows`` and ``stages`` itself).
    """
    shared = build_shared_lower(
        database, join_tree.query, join_tree, tie, 0, lane,
        owned_columns(join_tree, var_position),
    )
    core = _lower_whole(database, shared)
    span.add(vectorized_stages=shared.vectorized_stages)
    return core
