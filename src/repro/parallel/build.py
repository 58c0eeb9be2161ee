"""Multi-core preprocessing: fragment planning meets the direct lowering.

The bottom-up pass itself lives in :mod:`repro.dp.lower` — phase A
lowers every non-anchor stage once, phase B lowers one slice of the
anchor relation and assembles a :class:`~repro.dp.flat.CompiledTDP`
over phase A's columns.  The unsharded bind is that pass with a single
all-spanning fragment; this module runs phase B once per fragment of a
:class:`~repro.parallel.sharder.ShardPlan` and owns everything around
it: fragment row sources (rowid ranges, stable-hash buckets) and
:class:`ParallelPreprocessor`, which runs the resolved mode.

Execution modes (resolved by the :class:`~repro.parallel.sharder.Sharder`):

* ``fused``  — phase A, then every fragment's phase B, inline on the
  calling thread.
* ``thread`` — phase A inline, then the phase B fragments on a thread
  pool; each fragment's rowid-range fetch runs on its pool thread (the
  SQLite driver releases the GIL inside its C fetch path).

Every dioid with a lane (:func:`~repro.ranking.dioid.lane_of`) builds
its fragments this way, max-times included.  Dioids without a lane —
and the ``canonical`` tie-break, which ranks fragments under the
Section 6.3 :class:`~repro.ranking.dioid.TieBreakingDioid` — build one
object-graph T-DP per fragment instead (:func:`build_object_fragment`),
in the same two modes.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
from repro.dp.flat import CompiledTDP
from repro.dp.lower import (
    build_fragment,
    build_shared_lower,
    shared_lists,
    stage_columns,
)
from repro.obs.trace import NULL_TRACER
from repro.parallel.sharder import Fragment, ShardPlan, stable_hash
from repro.ranking.dioid import SelectiveDioid, TieBreakingDioid, lane_of


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
):
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


# -- orchestration -------------------------------------------------------------


class FragmentRuntime:
    """One built fragment.

    ``tdp`` is the fragment's :class:`~repro.dp.flat.CompiledTDP`, or an
    object-graph T-DP under the canonical tie-break or a dioid without a
    lane.
    """

    __slots__ = ("index", "tdp", "empty", "seconds", "anchor_stage")

    def __init__(self, index: int, tdp, seconds: float, anchor_stage: int = 0):
        self.index = index
        self.tdp = tdp
        self.empty = tdp.empty if isinstance(tdp, CompiledTDP) else tdp.is_empty()
        self.seconds = seconds
        self.anchor_stage = anchor_stage

    def anchor_states(self) -> int:
        """Alive states at the anchor stage (this fragment's own slice)."""
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
    """Builds every fragment of a shard plan, per the resolved mode."""

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
        with self.tracer.span("shared.lower") as span:
            shared = build_shared_lower(
                self.database,
                self.logical.query,
                plan.join_tree,
                self.logical.dioid,
                plan.anchor_stage,
            )
            span.set(connectors=shared.num_conns)
        lists = shared_lists(shared, len(plan.fragments))
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
                fragment.index, compiled, time.perf_counter() - start,
                anchor_stage=plan.anchor_stage,
            )

        return self._result(self._fan_out(one, sources), shared.seconds, None)

    # -- object path -----------------------------------------------------------

    def _build_object(self) -> PreprocessResult:
        plan = self.shard_plan
        logical = self.logical
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
                fragment.index, tdp, time.perf_counter() - start,
                anchor_stage=plan.anchor_stage,
            )

        return self._result(self._fan_out(one, sources), 0.0, tie)

    # -- shared by both paths --------------------------------------------------

    def _fan_out(self, one, sources) -> list[FragmentRuntime]:
        """``one(source)`` per fragment: inline, or on the thread pool.

        Spans stay on the coordinating thread: pool workers carry no
        trace context, so per-fragment timing is reported through
        :attr:`FragmentRuntime.seconds` instead of worker-side spans.
        """
        plan = self.shard_plan
        with self.tracer.span(
            "fragments.fanout", fragments=len(sources), mode=plan.mode
        ):
            if plan.mode == "thread" and plan.workers > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=plan.workers) as pool:
                    return list(pool.map(one, sources))
            return [one(source) for source in sources]

    def _result(self, fragments, shared_seconds, tie) -> PreprocessResult:
        plan = self.shard_plan
        return PreprocessResult(
            fragments, plan.mode, plan.workers, shared_seconds,
            list(plan.notes), tie,
        )

    # -- entry point -----------------------------------------------------------

    def build(self) -> PreprocessResult:
        flat_path = (
            lane_of(self.logical.dioid)[0] is not None
            and self.shard_plan.spec.tie_break == "arrival"
        )
        return self._build_flat() if flat_path else self._build_object()
