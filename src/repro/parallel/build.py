"""Sharded preprocessing: fragment planning meets the direct lowering.

The bottom-up pass itself lives in :mod:`repro.dp.lower` — phase A
lowers every non-anchor stage once, phase B lowers one slice of the
anchor relation and assembles a :class:`~repro.dp.flat.CompiledTDP`
over phase A's columns.  The unsharded bind is that pass with a single
all-spanning fragment; this module runs phase B once per fragment of a
:class:`~repro.parallel.sharder.ShardPlan`, inline on the calling
thread, each fragment's rows one rowid-range read of the anchor
relation (:class:`ParallelPreprocessor`).

Every dioid with a lane (:func:`~repro.ranking.dioid.lane_of`) builds
its fragments this way, max-times included.  Dioids without a lane —
and the ``canonical`` tie-break, which ranks fragments under the
Section 6.3 :class:`~repro.ranking.dioid.TieBreakingDioid` — build one
object-graph T-DP per fragment instead (:func:`build_object_fragment`).
"""

from __future__ import annotations

import time

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
from repro.parallel.sharder import Fragment, ShardPlan
from repro.ranking.dioid import SelectiveDioid, TieBreakingDioid, lane_of


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
):
    """One fragment through the generic builder (canonical/object path)."""
    query = shard_plan.join_tree.query
    anchor_name = query.atoms[shard_plan.anchor_atom].relation_name
    tuples, weights = anchor_rows
    restricted = _restricted_database(database, anchor_name, tuples, weights)
    tdp = build_tdp(restricted, shard_plan.join_tree, dioid=dioid, lift=lift)
    anchor_stage = shard_plan.anchor_stage
    lo = fragment.lo
    tdp.tuple_ids[anchor_stage] = [lo + i for i in tdp.tuple_ids[anchor_stage]]
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
        return len(self.tdp.tuple_ids[self.anchor_stage])


class PreprocessResult:
    """What the preprocessor hands the sharded physical plan."""

    __slots__ = ("fragments", "shared_seconds", "notes", "tie")

    def __init__(self, fragments, shared_seconds, notes, tie):
        self.fragments: list[FragmentRuntime] = fragments
        self.shared_seconds = shared_seconds
        self.notes: list[str] = notes
        #: The TieBreakingDioid fragments rank under (canonical mode).
        self.tie: TieBreakingDioid | None = tie


class ParallelPreprocessor:
    """Builds every fragment of a shard plan, one after another."""

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

        def one(fragment: Fragment) -> FragmentRuntime:
            rows, weights = stage_columns(relation, fragment.lo, fragment.hi)
            start = time.perf_counter()
            compiled = build_fragment(
                shared, rows, weights, fragment.lo, fragment.index, lists
            )
            return FragmentRuntime(
                fragment.index, compiled, time.perf_counter() - start,
                anchor_stage=plan.anchor_stage,
            )

        return self._result(self._build_each(one), shared.seconds, None)

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

        def one(fragment: Fragment) -> FragmentRuntime:
            rows = (tuples[fragment.lo:fragment.hi], weights[fragment.lo:fragment.hi])
            start = time.perf_counter()
            tdp = build_object_fragment(
                self.database, plan, fragment, dioid, lift, rows
            )
            return FragmentRuntime(
                fragment.index, tdp, time.perf_counter() - start,
                anchor_stage=plan.anchor_stage,
            )

        return self._result(self._build_each(one), 0.0, tie)

    # -- shared by both paths --------------------------------------------------

    def _build_each(self, one) -> list[FragmentRuntime]:
        """``one(fragment)`` for every fragment, in index order."""
        fragments = self.shard_plan.fragments
        with self.tracer.span("fragments.fanout", fragments=len(fragments)):
            return [one(fragment) for fragment in fragments]

    def _result(self, fragments, shared_seconds, tie) -> PreprocessResult:
        plan = self.shard_plan
        return PreprocessResult(fragments, shared_seconds, list(plan.notes), tie)

    # -- entry point -----------------------------------------------------------

    def build(self) -> PreprocessResult:
        flat_path = (
            lane_of(self.logical.dioid)[0] is not None
            and self.shard_plan.spec.tie_break == "arrival"
        )
        return self._build_flat() if flat_path else self._build_object()
