"""Multi-core preprocessing: fragment planning meets the direct lowering.

The bottom-up pass itself lives in :mod:`repro.dp.lower` — phase A
lowers every non-anchor stage once, phase B lowers one slice of the
anchor relation and assembles a :class:`~repro.dp.flat.CompiledTDP`
over phase A's columns.  The unsharded bind is that pass with a single
all-spanning fragment; this module runs phase B once per fragment of a
:class:`~repro.parallel.sharder.ShardPlan` and owns everything around
it: fragment row sources (rowid ranges, stable-hash buckets), database
recipes a worker can reopen, the worker pool with its crash recovery,
and :class:`ParallelPreprocessor`, which picks the mode.

Execution modes (resolved by the :class:`~repro.parallel.sharder.Sharder`):

* ``fused``   — both phases in-process; the fastest single-core path.
* ``thread``  — phase B fragments fan out on a thread pool (the SQLite
  driver releases the GIL inside its C fetch path).
* ``process`` — phase A runs once in the parent and its pools travel to
  the workers through one shared-memory segment
  (:class:`repro.dp.corebuf.ShmPool`): the pool initializer ships the
  database recipe and the segment *name* once per worker, each task
  payload is just ``(fragment, shards)``, and workers alias the parent's
  float pools in place — zero array copies cross the pickle boundary in
  either direction (workers return compact per-fragment anchor arrays;
  the parent assembles the cores against its own phase A).  File-backed
  SQLite reopens once per worker, memory-backed relations ship by value
  once per worker.

Every dioid with a lane (:func:`~repro.ranking.dioid.lane_of`) takes
that path, max-times included: a core without an inverse ships the
same three columns, and the parent recomputes its entry values and its
fragment's least entry along with the keys.  Dioids without a lane —
and the ``canonical`` tie-break, which ranks fragments under the
Section 6.3 :class:`~repro.ranking.dioid.TieBreakingDioid` — build one
object-graph T-DP per fragment instead (:func:`build_object_fragment`).
"""

from __future__ import annotations

import pickle
import time
from array import array
from typing import Sequence

from repro.anyk.base import Enumerator, make_enumerator
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
from repro.dp.corebuf import LazyRows, ShmPool, pack_worker_lower, unpack_worker_lower
from repro.dp.flat import CompiledTDP
from repro.dp.graph import TDP
from repro.dp.lower import (
    StageScan,
    assemble_fragment,
    build_fragment,
    build_shared_lower,
    scan_stage,
    shared_lists,
    stage_columns,
)
from repro.obs.trace import NULL_TRACER
from repro.parallel.sharder import Fragment, ShardPlan, stable_hash
from repro.ranking.dioid import SelectiveDioid, TieBreakingDioid, lane_of
from repro.util import faults
from repro.util.resilience import COUNTERS

#: Total tries for the process-pool fragment build: the initial pool
#: plus one respawn after a dead worker.  A second crash falls through
#: to the fused in-process path via :meth:`ParallelPreprocessor._build_flat`.
POOL_BUILD_ATTEMPTS = 2


# -- fragment row sources ------------------------------------------------------


def _hash_buckets(
    relation: Relation, shards: int
) -> list[tuple[list[tuple], list, list[int]]]:
    """One scan of the anchor relation, bucketed by stable content hash.

    Per bucket: ``(rows, weights, global ids)``, parallel.
    """
    buckets: list[tuple[list[tuple], list, list[int]]] = [
        ([], [], []) for _ in range(shards)
    ]
    for gid, (row, weight) in enumerate(zip(*stage_columns(relation))):
        rows, weights, gids = buckets[stable_hash(row) % shards]
        rows.append(row)
        weights.append(weight)
        gids.append(gid)
    return buckets


# -- the object-graph fragment path --------------------------------------------


def _restricted_database(
    database: Database, anchor_name: str, tuples: list, weights: list
) -> Database:
    """A database view replacing the anchor relation with one fragment.

    Shares every other relation object; only sound when ``anchor_name``
    occurs in exactly one atom (the sharder enforces that for this
    path).
    """
    restricted = Database()
    for relation in database:
        if relation.name == anchor_name:
            restricted.relations[relation.name] = Relation(
                relation.name, relation.arity, tuples, weights
            )
        else:
            restricted.relations[relation.name] = relation
    return restricted


def build_object_fragment(
    database: Database,
    shard_plan: ShardPlan,
    fragment: Fragment,
    dioid: SelectiveDioid,
    lift,
    anchor_rows: tuple[list[tuple], list],
    global_ids: Sequence[int] | None,
) -> TDP:
    """One fragment through the generic builder (canonical/object path)."""
    query = shard_plan.join_tree.query
    anchor_name = query.atoms[shard_plan.anchor_atom].relation_name
    tuples, weights = anchor_rows
    restricted = _restricted_database(database, anchor_name, tuples, weights)
    tdp = build_tdp(restricted, shard_plan.join_tree, dioid=dioid, lift=lift)
    anchor_stage = shard_plan.anchor_stage
    local_ids = tdp.tuple_ids[anchor_stage]
    if global_ids is None:
        lo = fragment.lo
        tdp.tuple_ids[anchor_stage] = [lo + i for i in local_ids]
    else:
        tdp.tuple_ids[anchor_stage] = [global_ids[i] for i in local_ids]
    return tdp


# -- process-mode worker -------------------------------------------------------


def _database_recipe(database: Database) -> dict:
    """A picklable description a worker can reopen the database from.

    Shipped exactly once per worker, through the pool *initializer* —
    never inside per-fragment task payloads (a memory-backend recipe
    carries full ``(arity, tuples, weights)`` tables, so per-payload
    shipping used to re-pickle the whole database per fragment).
    """
    backend = database.backend
    path = getattr(backend, "path", None)
    if backend is not None and path is not None and path != ":memory:":
        return {
            "kind": "sqlite",
            "path": path,
            "tables": {
                relation.name: relation.table for relation in database
            },
        }
    return {
        "kind": "memory",
        "relations": {
            relation.name: (
                relation.arity,
                list(relation.tuples),
                list(relation.weights),
            )
            for relation in database
        },
    }


def _open_recipe(recipe: dict) -> Database:
    if recipe["kind"] == "sqlite":
        from repro.data.backend import SQLiteBackend

        backend = SQLiteBackend(recipe["path"])
        database = Database(
            [
                Relation.from_backend(backend, name, table)
                for name, table in recipe["tables"].items()
            ]
        )
        database.backend = backend
        return database
    return Database(
        [
            Relation(name, arity, tuples, weights)
            for name, (arity, tuples, weights) in recipe["relations"].items()
        ]
    )


#: Per-worker state set by :func:`_init_scan_worker` (one initializer
#: call per pool worker; task payloads carry only ``(fragment, shards)``).
_WORKER: dict | None = None


def _init_scan_worker(
    shm_name: str, recipe: dict, query, anchor_atom_index: int,
    anchor_relation_name: str, dioid: SelectiveDioid,
) -> None:
    """Pool initializer: open the database, attach the shared pool.

    Runs once per worker process.  The database connection and the
    shared-memory attachment live for the pool's lifetime; both are
    released explicitly at interpreter exit (``atexit``) so worker
    shutdown stays free of ``resource_tracker`` warnings even when the
    parent tears the pool down on an error path.
    """
    global _WORKER
    import atexit

    database = _open_recipe(recipe)
    pool = ShmPool.attach(shm_name)
    conn_min, lookups = unpack_worker_lower(pool.buf)
    atom = query.atoms[anchor_atom_index]
    _WORKER = {
        "database": database,
        "pool": pool,
        "scan": StageScan(atom, lookups, lane_of(dioid)[0], dioid.one, conn_min),
        "relation": database[anchor_relation_name],
        "buckets": None,
    }
    atexit.register(database.close)


def _scan_worker_fragment(task: tuple) -> tuple:
    """Worker entry point: phase-B scan of one fragment, arrays only.

    Phase A is *not* rebuilt here — the scan resolves its child
    connectors against the shared-memory pool the initializer attached.
    The return value is four compact typed arrays (anchor state values,
    pi1 values, child uids, global tuple ids); entry states are implied
    (sequential) and anchor rows are re-fetched lazily by the parent, so
    no row data or entry pools are pickled back either.
    """
    faults.hit("worker.scan")  # chaos hook: fork-inherited plans can
    # kill exactly one worker here (exit + token file) to prove the
    # parent's respawn path reproduces bit-identical fragments.
    fragment, shards = task
    state = _WORKER
    start = time.perf_counter()
    relation = state["relation"]
    if fragment.kind == "range":
        rows, weights = stage_columns(relation, fragment.lo, fragment.hi)
        gids = None
        base = fragment.lo
    else:
        buckets = state["buckets"]
        if buckets is None:
            buckets = state["buckets"] = _hash_buckets(relation, shards)
        rows, weights, gids = buckets[fragment.index]
        base = None
    _entry_values, _tuples, ids_out, vk_out, pk_out, cu_out = scan_stage(
        state["scan"], rows, weights, base, gids, keep_tuples=False
    )
    return (
        fragment.index,
        array("d", vk_out),
        array("d", pk_out),
        array("q", cu_out),
        array("q", ids_out),
        time.perf_counter() - start,
    )


def _probe_worker_pool(sample_index: int) -> tuple:
    """Test hook: what this worker observes through the shared pool.

    Returns the pool segment name, the aliased ``conn_min`` length and
    a sampled element — evidence that the worker reads the parent's
    pool bytes in place rather than a pickled copy.
    """
    state = _WORKER
    conn_min = state["scan"].conn_min
    sample = conn_min[sample_index] if len(conn_min) else None
    return state["pool"].name, len(conn_min), sample


# -- orchestration -------------------------------------------------------------


class FragmentRuntime:
    """One built fragment, ready to hand out enumerators."""

    __slots__ = ("index", "compiled", "tdp", "empty", "seconds", "anchor_stage")

    def __init__(
        self,
        index: int,
        compiled: CompiledTDP | None,
        tdp: TDP | None,
        seconds: float,
        anchor_stage: int = 0,
    ):
        self.index = index
        self.compiled = compiled
        self.tdp = tdp if tdp is not None else (compiled.tdp if compiled else None)
        self.empty = compiled.empty if compiled is not None else tdp.is_empty()
        self.seconds = seconds
        self.anchor_stage = anchor_stage

    def make_enumerator(
        self, algorithm: str, counter=None, emits: tuple | None = None
    ) -> Enumerator:
        """``emits`` (flat fragments only): see
        :class:`repro.anyk.flat.FlatEnumerator`."""
        if self.compiled is not None:
            from repro.anyk.flat import make_flat_enumerator

            return make_flat_enumerator(
                self.compiled, algorithm, counter=counter, emits=emits
            )
        return make_enumerator(self.tdp, algorithm, counter=counter)

    def anchor_states(self) -> int:
        """Alive states at the anchor stage (this fragment's own slice)."""
        if self.compiled is not None:
            return len(self.compiled.val_base[self.anchor_stage])
        return len(self.tdp.tuples[self.anchor_stage])


class PreprocessResult:
    """What the preprocessor hands the sharded physical plan."""

    __slots__ = (
        "fragments", "mode", "workers", "shared_seconds", "notes", "tie",
    )

    def __init__(self, fragments, mode, workers, shared_seconds, notes, tie):
        self.fragments: list[FragmentRuntime] = fragments
        self.mode = mode
        self.workers = workers
        self.shared_seconds = shared_seconds
        self.notes: list[str] = notes
        #: The TieBreakingDioid fragments rank under (canonical mode).
        self.tie: TieBreakingDioid | None = tie


class ParallelPreprocessor:
    """Builds every fragment of a shard plan, per the resolved mode.

    The worker-pool modes degrade gracefully: an unavailable process
    pool (sandboxed environments without semaphores, say) falls back to
    the fused in-process path and records a note the physical plan's
    ``explain`` surfaces, rather than failing the bind.
    """

    def __init__(
        self,
        database: Database,
        logical,
        shard_plan: ShardPlan,
        tracer=NULL_TRACER,
    ):
        self.database = database
        self.logical = logical
        self.shard_plan = shard_plan
        self.tracer = tracer

    # -- flat path -------------------------------------------------------------

    def _anchor_name(self) -> str:
        return self.logical.query.atoms[self.shard_plan.anchor_atom].relation_name

    def _lower_shared(self):
        """Phase A under its span, plus the lists the fragments alias."""
        plan = self.shard_plan
        with self.tracer.span("shared.lower") as span:
            shared = build_shared_lower(
                self.database,
                self.logical.query,
                plan.join_tree,
                self.logical.dioid,
                plan.anchor_stage,
            )
            span.set(connectors=shared.num_conns)
        return shared, shared_lists(shared, len(plan.fragments))

    def _flat_fragment_sources(self, relation: Relation):
        """Per fragment: ``(fragment, loader)`` with a *lazy* row loader.

        The loader runs inside the building worker, so in thread mode
        the per-fragment rowid-range fetches happen on the pool threads
        — each on its own SQLite connection, overlapping inside the
        GIL-released C fetch path — instead of serially up front.  Hash
        fragments share one eager bucketing scan (a single pass assigns
        every row); only range fragments defer.
        """
        plan = self.shard_plan
        if plan.spec.strategy == "hash":
            buckets = _hash_buckets(relation, plan.spec.shards)

            def hash_loader(fragment: Fragment):
                return buckets[fragment.index]

            return [(fragment, hash_loader) for fragment in plan.fragments]

        def range_loader(fragment: Fragment):
            rows, weights = stage_columns(relation, fragment.lo, fragment.hi)
            return rows, weights, None

        return [(fragment, range_loader) for fragment in plan.fragments]

    def _build_flat(self) -> PreprocessResult:
        plan = self.shard_plan
        notes = list(plan.notes)
        mode = plan.mode
        if mode == "process":
            try:
                return self._build_flat_process(notes)
            except (
                OSError,            # spawn/semaphore restrictions
                ImportError,
                PermissionError,
                RuntimeError,       # incl. BrokenProcessPool (worker died)
                pickle.PicklingError,
            ) as exc:
                COUNTERS.bump("pool_downgrades")
                with self.tracer.span("pool.downgrade", reason=repr(exc)):
                    pass
                notes.append(
                    f"process pool unavailable ({exc!r}); fell back to "
                    "the fused in-process build"
                )
                mode = "fused"
        shared, lists = self._lower_shared()
        relation = self.database[self._anchor_name()]
        sources = self._flat_fragment_sources(relation)

        def one(source) -> FragmentRuntime:
            fragment, loader = source
            rows, weights, gids = loader(fragment)
            start = time.perf_counter()
            compiled = build_fragment(
                shared, rows, weights,
                fragment.lo if gids is None else None, gids,
                fragment.index, lists,
            )
            return FragmentRuntime(
                fragment.index, compiled, None, time.perf_counter() - start,
                anchor_stage=plan.anchor_stage,
            )

        # Spans stay on the coordinating thread: pool workers carry no
        # trace context, so per-fragment timing is reported through
        # FragmentRuntime.seconds instead of worker-side spans.
        with self.tracer.span(
            "fragments.fanout", fragments=len(sources), mode=mode
        ):
            if mode == "thread" and plan.workers > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=plan.workers) as pool:
                    fragments = list(pool.map(one, sources))
            else:
                fragments = [one(source) for source in sources]
        return PreprocessResult(
            fragments, mode, plan.workers, shared.seconds, notes, None
        )

    def _build_flat_process(self, notes: list[str]) -> PreprocessResult:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        plan = self.shard_plan
        query = self.logical.query
        shared, lists = self._lower_shared()
        recipe = _database_recipe(self.database)
        anchor_name = self._anchor_name()
        relation = self.database[anchor_name]
        tasks = [
            (fragment, plan.spec.shards) for fragment in plan.fragments
        ]
        context = None
        try:
            import multiprocessing

            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix platforms
            context = None
        # Phase A crosses into the workers through one shared-memory
        # segment; only its *name* rides in the initargs, and the task
        # payloads above carry no arrays at all.
        shm_pool = ShmPool.create(pack_worker_lower(shared))
        try:
            # A worker killed mid-build (OOM, segfault, injected exit)
            # breaks the whole pool; the build is a pure function of the
            # shared lower + fragment spec, so rerunning it on a fresh
            # pool reproduces bit-identical fragments.
            for attempt in range(POOL_BUILD_ATTEMPTS):
                faults.hit("pool.submit")
                try:
                    with ProcessPoolExecutor(
                        max_workers=plan.workers,
                        mp_context=context,
                        initializer=_init_scan_worker,
                        initargs=(
                            shm_pool.name, recipe, query, plan.anchor_atom,
                            anchor_name, self.logical.dioid,
                        ),
                    ) as pool:
                        results = list(pool.map(_scan_worker_fragment, tasks))
                    break
                except BrokenProcessPool:
                    if attempt == POOL_BUILD_ATTEMPTS - 1:
                        raise
                    COUNTERS.bump("worker_respawns")
                    notes.append(
                        "worker pool died mid-build; respawned the pool "
                        f"and retried (attempt {attempt + 2} of "
                        f"{POOL_BUILD_ATTEMPTS})"
                    )
                    with self.tracer.span("pool.respawn", attempt=attempt + 2):
                        pass
        finally:
            shm_pool.destroy()
        fragments = []
        for index, vk, pk, cu, ids, seconds in sorted(results):
            ids_out = ids.tolist()
            # Entry values and keys are implied by the value arrays
            # (sequential states); rows are re-fetched lazily, per
            # emitted answer.
            scan_out = (
                None, LazyRows(relation, ids_out), ids_out,
                vk.tolist(), pk.tolist(), cu.tolist(),
            )
            fragments.append(
                FragmentRuntime(
                    index, assemble_fragment(shared, scan_out, index, lists),
                    None, seconds, anchor_stage=plan.anchor_stage,
                )
            )
        return PreprocessResult(
            fragments, "process", plan.workers, shared.seconds, notes, None
        )

    # -- object path -----------------------------------------------------------

    def _build_object(self) -> PreprocessResult:
        plan = self.shard_plan
        logical = self.logical
        notes = list(plan.notes)
        query = logical.query
        tie = None
        dioid: SelectiveDioid = logical.dioid
        lift = None
        if plan.spec.tie_break == "canonical":
            variables = query.variables
            tie = TieBreakingDioid(logical.dioid, len(variables))
            var_position = {v: i for i, v in enumerate(variables)}
            # Numbered over the whole anchor relation: fragments agree.
            rank_tie_domains(tie, [(self.database, plan.join_tree, var_position)])
            lift = make_tie_lift(tie, var_position, plan.join_tree)
            dioid = tie

        relation = self.database[self._anchor_name()]
        tuples = relation.tuples
        weights = relation.weights
        if plan.spec.strategy == "hash":
            arity = relation.arity
            assignment = [
                stable_hash(t) % plan.spec.shards if len(t) == arity else
                stable_hash(t[:arity]) % plan.spec.shards
                for t in tuples
            ]
            sources = []
            for fragment in plan.fragments:
                gids = [
                    gid for gid, f in enumerate(assignment) if f == fragment.index
                ]
                sources.append(
                    (
                        fragment,
                        ([tuples[g] for g in gids], [weights[g] for g in gids]),
                        gids,
                    )
                )
        else:
            sources = [
                (
                    fragment,
                    (tuples[fragment.lo:fragment.hi], weights[fragment.lo:fragment.hi]),
                    None,
                )
                for fragment in plan.fragments
            ]

        def one(source) -> FragmentRuntime:
            fragment, rows, gids = source
            start = time.perf_counter()
            tdp = build_object_fragment(
                self.database, plan, fragment, dioid, lift, rows, gids
            )
            return FragmentRuntime(
                fragment.index, None, tdp, time.perf_counter() - start,
                anchor_stage=plan.anchor_stage,
            )

        with self.tracer.span(
            "fragments.fanout", fragments=len(sources), mode=plan.mode
        ):
            if plan.mode == "thread" and plan.workers > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=plan.workers) as pool:
                    fragments = list(pool.map(one, sources))
            else:
                fragments = [one(source) for source in sources]
        return PreprocessResult(
            fragments, plan.mode, plan.workers, 0.0, notes, tie
        )

    # -- entry point -----------------------------------------------------------

    def build(self) -> PreprocessResult:
        flat_path = (
            lane_of(self.logical.dioid)[0] is not None
            and self.shard_plan.spec.tie_break == "arrival"
        )
        return self._build_flat() if flat_path else self._build_object()
