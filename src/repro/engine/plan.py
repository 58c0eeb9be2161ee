"""Planning layer: logical plans, physical plans, and the pure planner.

The paper separates a once-per-query preprocessing phase (join tree or
decomposition selection, T-DP bottom-up) from the per-request
enumeration phase.  This module makes that split explicit:

* :func:`plan` is a *pure* function of the query (and execution options)
  that classifies it — acyclic T-DP, simple-cycle decomposition, generic
  hypertree decomposition, free-connex min-weight, or an all-weight
  projection wrapper — and returns an inspectable :class:`LogicalPlan`;
  no database is touched, so plans are cacheable and ``explain()``-able
  for free.
* :func:`bind` runs the preprocessing phase of a logical plan against a
  concrete database, producing a :class:`PhysicalPlan` that holds the
  built T-DPs (and decomposition bags) and can start *enumeration-only*
  runs via :meth:`PhysicalPlan.iter` — each call creates fresh any-k
  enumerators over the shared, read-only T-DP structures, so repeated
  executions pay TT(k) enumeration cost without re-paying preprocessing.

:func:`repro.enumeration.api.ranked_enumerate` is a thin compatibility
wrapper over ``plan`` + ``bind``; the :class:`~repro.engine.engine.Engine`
adds caching and invalidation on top.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.anyk.base import make_enumerator
from repro.anyk.flat import make_flat_enumerator
from repro.anyk.union import UnionEnumerator
from repro.data.database import Database
from repro.decomposition.base import BagLineage, TreeTask
from repro.decomposition.cycle import (
    cycle_relations,
    decompose_cycle,
    detect_simple_cycle,
)
from repro.decomposition.generic import decompose_generic
from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
from repro.dp.corebuf import core_key, dioid_core_name, export_core
from repro.dp.flat import CompiledTDP
from repro.dp.lower import lower_member, lower_query, member_lane, row_store
from repro.enumeration.result import QueryResult
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.query.cq import ConjunctiveQuery
from repro.query.jointree import JoinTree, build_join_tree
from repro.ranking.dioid import TROPICAL, SelectiveDioid, TieBreakingDioid, lane_of
from repro.util.counters import OpCounter

#: Strategy names: how the (inner full) query will be evaluated.
ACYCLIC_TDP = "acyclic-tdp"
SIMPLE_CYCLE_UNION = "simple-cycle-union"
GENERIC_DECOMPOSITION = "generic-decomposition"
FREE_CONNEX_MINWEIGHT = "free-connex-minweight"
ALL_WEIGHT_PROJECTION = "all-weight-projection"

VALID_ALGORITHMS = (
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
)
VALID_PROJECTIONS = ("all_weight", "min_weight")


@dataclass(eq=False)
class LogicalPlan:
    """A pure, database-independent evaluation plan for one query.

    ``strategy`` is one of the module-level strategy constants;
    ``join_tree`` is precomputed for :data:`ACYCLIC_TDP` plans (the GYO
    reduction depends only on the query), ``cycle_walk`` for
    :data:`SIMPLE_CYCLE_UNION` plans, and ``inner`` holds the full-query
    sub-plan of an :data:`ALL_WEIGHT_PROJECTION` wrapper.
    """

    query: ConjunctiveQuery
    strategy: str
    dioid: SelectiveDioid
    algorithm: str
    projection: str
    cycle_threshold: int | None = None
    join_tree: JoinTree | None = None
    cycle_walk: list[tuple[int, str]] | None = None
    inner: "LogicalPlan | None" = None

    def explain(self, indent: str = "") -> str:
        """A textual rendering of the plan (no data statistics)."""
        lines = [f"{indent}logical plan: {self.query!r}"]
        lines.append(
            f"{indent}  strategy: {self.strategy}  "
            f"algorithm: {self.algorithm}  dioid: {self.dioid!r}"
        )
        if self.projection != "all_weight" or not self.query.is_full():
            lines.append(f"{indent}  projection: {self.projection}")
        if self.join_tree is not None:
            lines.append(f"{indent}  join tree:")
            lines.extend(
                indent + "  " + line for line in tree_ascii(self.join_tree)
            )
        if self.cycle_walk is not None:
            walk = " -> ".join(entry for _idx, entry in self.cycle_walk)
            lines.append(
                f"{indent}  cycle walk: {walk} "
                f"({len(self.cycle_walk)} heavy members + 1 light)"
            )
        if self.inner is not None:
            lines.append(f"{indent}  inner full-query plan:")
            lines.append(self.inner.explain(indent + "    "))
        return "\n".join(lines)


def tree_ascii(tree: JoinTree) -> list[str]:
    """Indentation-based rendering of the join forest, one atom a line
    with the variables it joins its parent on."""
    lines: list[str] = []
    atoms = tree.query.atoms

    def visit(node: int, depth: int) -> None:
        shared = tree.shared_variables(node)
        join = f" [join on {', '.join(shared)}]" if shared else ""
        lines.append("  " * depth + f"- {atoms[node]!r}{join}")
        for child in tree.children(node):
            visit(child, depth + 1)

    for root in tree.roots():
        visit(root, 0)
    return lines


def plan(
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    algorithm: str = "take2",
    projection: str = "all_weight",
    cycle_threshold: int | None = None,
) -> LogicalPlan:
    """Classify ``query`` and build its :class:`LogicalPlan` (pure).

    Replaces the string-flag branching previously inlined in
    ``ranked_enumerate``: the Section 5.4 dispatch — acyclic T-DP,
    simple-cycle decomposition, generic decomposition — plus the Section
    8.1 projection semantics, each as an explicit plan object.
    """
    if projection not in VALID_PROJECTIONS:
        raise ValueError(f"unknown projection semantics {projection!r}")
    if algorithm.lower() not in VALID_ALGORITHMS:
        raise ValueError(f"unknown any-k algorithm {algorithm!r}")

    common = dict(
        dioid=dioid,
        algorithm=algorithm,
        projection=projection,
        cycle_threshold=cycle_threshold,
    )
    if projection == "min_weight":
        # Free-connex validation happens at bind time (the construction
        # itself raises), keeping error behaviour of the legacy path.
        return LogicalPlan(query, FREE_CONNEX_MINWEIGHT, **common)
    if not query.is_full():
        full_query = ConjunctiveQuery(
            head=None, atoms=query.atoms, name=query.name
        )
        inner = plan(
            full_query,
            dioid=dioid,
            algorithm=algorithm,
            cycle_threshold=cycle_threshold,
        )
        return LogicalPlan(
            query, ALL_WEIGHT_PROJECTION, inner=inner, **common
        )
    if query.is_acyclic():
        return LogicalPlan(
            query, ACYCLIC_TDP, join_tree=build_join_tree(query), **common
        )
    walk = detect_simple_cycle(query)
    if walk is not None:
        return LogicalPlan(
            query, SIMPLE_CYCLE_UNION, cycle_walk=walk, **common
        )
    return LogicalPlan(query, GENERIC_DECOMPOSITION, **common)


# -- physical plans ------------------------------------------------------------


def run_tdp(tdp, algorithm: str, counter=None, emits: tuple | None = None):
    """One any-k run over a bound T-DP.

    A compiled core runs the flat kernels, allocating ``emits`` (see
    :class:`~repro.anyk.flat.FlatEnumerator`); an object graph — bound
    only where the dioid has no lane — runs the object enumerators,
    which emit :class:`~repro.anyk.base.RankedResult`.
    """
    if isinstance(tdp, CompiledTDP):
        return make_flat_enumerator(tdp, algorithm.lower(), counter, emits=emits)
    return make_enumerator(tdp, algorithm, counter=counter)


def bind_members(tie: TieBreakingDioid, parts: list[tuple]) -> tuple[list, str]:
    """The T-DPs of union members ranked under ``tie``, and why they are
    object graphs (``""`` when they are lowered).

    ``parts`` holds per member ``(database, join tree, variable -> tie
    position)``.  The tie-breaker numbers its domains once, over every
    member (:func:`~repro.dp.builder.rank_tie_domains`); then each member
    is lowered to a :class:`~repro.dp.flat.LaneCore` where the base dioid
    has a lane (:func:`~repro.dp.lower.member_lane`), else built as an
    object graph under the tie lift.  Shared by :class:`UnionPhysical`
    and :func:`~repro.enumeration.api.ranked_enumerate_ucq`.
    """
    rank_tie_domains(tie, parts)
    lane, why = member_lane(tie)
    tdps = []
    for database, tree, var_position in parts:
        if lane is None:
            lift = make_tie_lift(tie, var_position, tree)
            tdps.append(build_tdp(database, tree, dioid=tie, lift=lift))
        else:
            tdps.append(lower_member(database, tree, tie, var_position, lane))
    return tdps, why


class PhysicalPlan:
    """A logical plan bound to one database state (preprocessing done).

    Subclasses hold the materialised T-DP structures; :meth:`iter`
    starts one enumeration run over them.  The T-DPs are read-only
    during enumeration (each any-k strategy builds its own private
    ranking structures), so concurrent and repeated runs are safe.

    The built structures are *algorithm-independent*: the any-k
    algorithm only selects how connectors are ranked at enumeration
    time, so :meth:`iter` accepts an ``algorithm`` override and the
    engine shares one bound plan across prepared queries that differ
    only in algorithm.
    """

    #: Why answers are decoded while the stream extends; ``None`` when the
    #: plan hands out views that decode on read: every plan whose answers
    #: the flat kernels allocate, since each bind leaves every row an
    #: answer can read in this process.
    eager: str | None = "the plan's finisher builds each answer"

    def __init__(self, logical: LogicalPlan, database: Database):
        self.logical = logical
        self.database = database
        #: Wall-clock seconds spent in :func:`bind` (the preprocessing
        #: phase); enumeration-only runs do not re-pay this.
        self.preprocess_seconds: float = 0.0

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release bind-time resources (overridden where there are any).

        Mapped warm-start plans hold memoryview slices of the engine's
        ``.core`` mmap; dropping them here lets ``CoreCache.close()``
        actually unmap the file instead of tripping ``BufferError``.
        """

    def top(
        self,
        k: int,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> list[QueryResult]:
        """The first ``k`` results (fewer if the output is smaller)."""
        return list(itertools.islice(self.iter(counter, algorithm), k))

    def explain(self) -> str:
        """Logical plan plus physical (post-preprocessing) statistics."""
        lines = [self.logical.explain()]
        lines.append(
            f"physical: preprocessing took "
            f"{self.preprocess_seconds * 1e3:.2f} ms"
        )
        lines.append(
            "  answers: decoded on read"
            if self.eager is None
            else f"  answers: decoded at extension ({self.eager})"
        )
        lines.extend(self._physical_stats())
        return "\n".join(lines)

    def _physical_stats(self) -> list[str]:
        return []

    @staticmethod
    def _tdp_lines(label: str, tdp) -> list[str]:
        stats = tdp.stats()
        return [
            f"  {label}: {stats['states']} states, "
            f"{stats['connectors']} connectors"
            + (" (EMPTY)" if stats["empty"] else "")
        ]


class AcyclicPhysical(PhysicalPlan):
    """Acyclic full CQ: one T-DP, any-k enumeration (Section 4/5).

    ``tdp`` is whatever the bind produced.  For a dioid with a lane
    (:func:`~repro.ranking.dioid.lane_of`) that is a directly lowered
    (or ``.core``-mapped) :class:`~repro.dp.flat.CompiledTDP`, run by
    the flat kernels; for every other dioid it is the object graph of
    :func:`~repro.dp.builder.build_tdp`.  Either way the bottom-up pass
    lands in ``preprocess_seconds`` — paid once per database version —
    and every enumeration run (any algorithm, any serving session)
    starts on the shared structures.
    """

    def __init__(self, logical: LogicalPlan, database: Database, tdp):
        super().__init__(logical, database)
        self.tdp = tdp
        # Compiled here, in the preprocessing phase: a warm plan's first
        # answer should not pay for it.
        tdp.assembler(logical.query.head)
        # Only the flat kernels over a compiled core allocate views; the
        # object-graph enumerators emit ``RankedResult`` and are finished.
        self.eager = (
            None if isinstance(tdp, CompiledTDP) else "object-graph enumerators"
        )

    def close(self) -> None:
        self.tdp = None

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        algorithm = algorithm or self.logical.algorithm
        assembler = self.tdp.assembler(self.logical.query.head)
        run = run_tdp(self.tdp, algorithm, counter, emits=(QueryResult, assembler))
        if self.eager is None:
            # The kernel's object is the answer: nothing in between.
            return iter(run)
        finish = assembler.result
        return map(lambda result: finish(result.weight, result.states), run)

    def _physical_stats(self) -> list[str]:
        core = self.tdp
        lines = self._tdp_lines("t-dp", core)
        if isinstance(core, CompiledTDP):
            # Mapped warm starts replay the persisted core; flag them so
            # explain() distinguishes a rebuilt plan from a replayed one.
            mapped = " (mapped warm start)" if core.mapped else ""
            lines.append(
                f"  compiled core: {core.stats()['entries']} flat entries "
                f"({'chain' if core.is_chain else 'tree'} layout, "
                f"lane ({core.lane})){mapped}"
            )
        return lines


class UnionPhysical(PhysicalPlan):
    """UT-DP over decomposition members with tie-breaking (+ opt. dedup).

    Each member is ranked under the Section 6.3 tie-breaking dioid —
    its domains numbered once, over all members — so that ties across
    members resolve identically and duplicates arrive consecutively; the
    reported weight is the base (first) dimension.  ``dedup`` is off for
    the cycle and generic decompositions (their member outputs are
    disjoint) and exists for overlapping decompositions plugged in via
    ``enumerate_union``.

    The members are bound by :func:`bind_members`, the UCQ pipeline's
    binding too: where the base dioid has a lane ``tdps[i]`` is a
    lowered :class:`~repro.dp.flat.LaneCore`, run by the flat kernels of
    :mod:`repro.anyk.flat`; only a dioid without one gets the object
    graph of ``build_tdp`` (the reason in :attr:`object_reason`).
    Either way :func:`run_tdp` over ``tdps[i]`` yields pair-valued
    results, ``(base, rank)``.

    An answer is its member's states until someone reads it: a
    :class:`QueryResult` view over that member's :class:`MemberDecoder`,
    whose witnesses read the row stores the bind read.
    """

    eager = None

    def __init__(
        self,
        logical: LogicalPlan,
        database: Database,
        tasks: list[TreeTask],
        dedup: bool = False,
    ):
        super().__init__(logical, database)
        self.tasks = tasks
        self.dedup = dedup
        query = logical.query
        variables = query.variables
        var_position = {v: i for i, v in enumerate(variables)}
        self.tie = TieBreakingDioid(logical.dioid, len(variables))
        self.tdps, self.object_reason = bind_members(
            self.tie,
            [(task.database, build_join_tree(task.query), var_position)
             for task in tasks],
        )
        #: A member's ``assembler()`` — what its results decode through —
        #: -> that member's :class:`MemberDecoder`.
        self._decoders = {
            tdp.assembler(): MemberDecoder(database, query, task, tdp)
            for task, tdp in zip(tasks, self.tdps)
        }

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        algorithm = algorithm or self.logical.algorithm
        members = [run_tdp(tdp, algorithm, counter) for tdp in self.tdps]
        head = self.logical.query.head

        def identity(result) -> tuple:
            return (result.key, result.output_tuple(head))

        union = UnionEnumerator(
            members, identity=identity, dedup=self.dedup, counter=counter
        )
        decoders = self._decoders
        base_value = self.tie.base_value
        new = QueryResult.__new__

        def view(result) -> QueryResult:
            answer = new(QueryResult)
            answer.weight = base_value(result.weight)
            answer.key = result.key
            answer.states = result.states
            answer.decoder = decoders[result.decoder]
            return answer

        return map(view, union)

    def _physical_stats(self) -> list[str]:
        lines = [f"  union of {len(self.tasks)} member trees:"]
        for task, core in zip(self.tasks, self.tdps):
            lines.extend(
                self._tdp_lines(task.label or task.query.name, core)
            )
            lines.append(f"    decomposition: {task.bag_layout}")
            if not isinstance(core, CompiledTDP):
                lines.append(f"    core: object graph ({self.object_reason})")
            else:
                lines.append(
                    f"    core: lowered, {core.stats()['entries']} entries, "
                    f"lanes ({core.lane}) + packed rank, "
                    f"{'chain' if core.is_chain else 'tree'} layout"
                )
        return lines


class MinWeightPhysical(PhysicalPlan):
    """Free-connex min-weight projection (Section 8.1, Theorem 20)."""

    def __init__(self, logical: LogicalPlan, database: Database, span=NULL_SPAN):
        super().__init__(logical, database)
        from repro.enumeration.projections import build_free_connex_plan

        fc_plan = self.fc_plan = build_free_connex_plan(
            database, logical.query, dioid=logical.dioid
        )
        #: The reduced free-region T-DP — lowered where the dioid has a
        #: lane (``span`` is told what the pass scanned), else the object
        #: graph; ``None`` for an empty free region.
        self.tdp = None
        dioid = logical.dioid
        if not fc_plan.empty:
            if lane_of(dioid)[0] is None:
                self.tdp = build_tdp(fc_plan.database, fc_plan.tree, dioid=dioid)
            else:
                self.tdp = lower_query(fc_plan.database, fc_plan.tree, dioid, span)

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        logical = self.logical
        fc_plan = self.fc_plan
        tdp = self.tdp
        algorithm = algorithm or logical.algorithm

        def generate() -> Iterator[QueryResult]:
            if tdp is None:
                return
            enumerator = run_tdp(tdp, algorithm, counter)
            dioid = logical.dioid
            for result in enumerator:
                yield QueryResult(
                    dioid.times(fc_plan.offset, result.weight),
                    result.assignment,
                    logical.query.head,
                )

        return generate()

    def _physical_stats(self) -> list[str]:
        if self.tdp is None:
            return ["  free region: EMPTY"]
        return self._tdp_lines("reduced free-region t-dp", self.tdp)


class ProjectionPhysical(PhysicalPlan):
    """All-weight projection: rank the full query, project each answer."""

    def __init__(
        self, logical: LogicalPlan, database: Database, inner: PhysicalPlan
    ):
        super().__init__(logical, database)
        self.inner = inner

    def close(self) -> None:
        self.inner.close()

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        head = self.logical.query.head
        head_set = set(head)
        inner_iter = self.inner.iter(counter, algorithm)

        def project(result: QueryResult) -> QueryResult:
            # One fused decode of an inner view, not one per field.
            assignment, _head, witness_ids, witness = result.decoded()
            projected = {
                var: value
                for var, value in assignment.items()
                if var in head_set
            }
            return QueryResult(
                result.weight, projected, head, witness_ids, witness
            )

        # ``map``, not a generator: a raise from the inner plan passes
        # through and the next pull asks the inner plan again.
        return map(project, inner_iter)

    def _physical_stats(self) -> list[str]:
        return self.inner._physical_stats()


def bind(
    logical: LogicalPlan,
    database: Database,
    core_cache=None,
    tracer=NULL_TRACER,
) -> PhysicalPlan:
    """Run the preprocessing phase of ``logical`` against ``database``.

    This is the only place data-dependent work happens before
    enumeration: decomposition bag materialisation and T-DP bottom-up
    passes.  The elapsed wall-clock time is recorded on the returned
    plan as ``preprocess_seconds``.  Where the dioid has a lane every
    pass — acyclic plan, union member, min-weight free region — is
    lowered straight to a compiled core; ``build_tdp`` runs only for a
    dioid without one.

    ``core_cache`` (a :class:`repro.dp.corebuf.CoreCache`, or ``None``)
    enables warm starts for the acyclic T-DP strategy: a fresh entry for
    this plan's persistence key skips the bottom-up pass entirely and
    enumerates straight off the mmapped arrays; a miss or stale entry
    falls through to the normal build and rewrites the file.

    ``tracer`` (:class:`repro.obs.trace.Tracer`) records a per-stage
    span tree of the preprocessing phase — T-DP build, core-cache
    load/store, decomposition.  The default
    no-op tracer keeps the cost at one constant method call per stage.
    """
    start = time.perf_counter()
    physical = _bind(logical, database, core_cache, tracer)
    physical.preprocess_seconds = time.perf_counter() - start
    return physical


def _bind(
    logical: LogicalPlan,
    database: Database,
    core_cache=None,
    tracer=NULL_TRACER,
) -> PhysicalPlan:
    strategy = logical.strategy
    if strategy == ACYCLIC_TDP:
        if lane_of(logical.dioid)[0] is None:
            # No lane: the object graph is the T-DP.
            with tracer.span("tdp.build") as span:
                tdp = build_tdp(database, logical.join_tree, dioid=logical.dioid)
                span.set(states=tdp.num_states())
            return AcyclicPhysical(logical, database, tdp)
        # A disabled cache and a non-persistable plan (``key`` is
        # ``None``) load nothing; any miss rebuilds and stores.
        key = core_key(logical.query, logical.dioid)
        core = None
        if core_cache is not None:
            with tracer.span("core.load") as span:
                core = core_cache.load(key, database, logical.query, logical.join_tree)
                span.set(hit=core is not None)
        if core is None:
            with tracer.span("tdp.build") as span:
                core = lower_query(database, logical.join_tree, logical.dioid, span)
                stats = core.stats()
                span.set(states=stats["states"], entries=stats["entries"])
            if core_cache is not None and key is not None:
                with tracer.span("core.store"):
                    meta, data = export_core(core)
                    # What ``Engine.warm_start`` needs to re-prepare the plan.
                    warm = {
                        "query": logical.query,
                        "dioid": dioid_core_name(logical.dioid),
                    }
                    core_cache.store(key, database, meta, data, warm=warm)
        return AcyclicPhysical(logical, database, core)
    if strategy == SIMPLE_CYCLE_UNION:
        with tracer.span("decompose", kind="simple-cycle") as span:
            tasks = decompose_cycle(
                database,
                logical.query,
                dioid=logical.dioid,
                threshold=logical.cycle_threshold,
                walk=logical.cycle_walk,
            )
            atoms = len(logical.cycle_walk)
            span.set(
                members=len(tasks),
                # Of the l heavy partitions and the light one.
                members_skipped=atoms + 1 - len(tasks),
                # The decomposition reads each distinct relation once.
                scans=len(cycle_relations(logical.query, logical.cycle_walk)),
                bag_tuples=_bag_tuples(tasks),
                # Bags built as columns (the rest are rows).
                columns=sum(
                    not bag.is_materialized for task in tasks for bag in task.database
                ),
            )
        return _bind_union(logical, database, tasks, tracer)
    if strategy == GENERIC_DECOMPOSITION:
        with tracer.span("decompose", kind="generic") as span:
            tasks = [
                decompose_generic(database, logical.query, dioid=logical.dioid)
            ]
            span.set(bag_tuples=_bag_tuples(tasks))
        return _bind_union(logical, database, tasks, tracer)
    if strategy == FREE_CONNEX_MINWEIGHT:
        with tracer.span("tdp.build", projection="min_weight") as span:
            return MinWeightPhysical(logical, database, span)
    if strategy == ALL_WEIGHT_PROJECTION:
        inner = _bind(logical.inner, database, core_cache, tracer)
        return ProjectionPhysical(logical, database, inner)
    raise AssertionError(f"unhandled strategy {strategy!r}")


def _bag_tuples(tasks: list[TreeTask]) -> int:
    return sum(len(bag) for task in tasks for bag in task.database)


def _bind_union(
    logical: LogicalPlan, database: Database, tasks: list[TreeTask], tracer
) -> "UnionPhysical":
    with tracer.span("tdp.build", members=len(tasks)) as span:
        physical = UnionPhysical(logical, database, tasks, dedup=False)
        tdps = physical.tdps
        lowered = [tdp for tdp in tdps if isinstance(tdp, CompiledTDP)]
        span.set(
            # Bag tuples read (every bag is one stage) -> alive states.
            rows=_bag_tuples(tasks),
            stages=sum(tdp.num_stages for tdp in tdps),
            states=sum(len(ids) for tdp in tdps for ids in tdp.tuple_ids),
            connectors=sum(tdp.num_connectors for tdp in tdps),
            # Members lowered to compiled cores, and the entries they hold.
            lowered=len(lowered),
            entries=sum(core.stats()["entries"] for core in lowered),
        )
    return physical


# -- decoding a union answer ------------------------------------------------------


class MemberDecoder:
    """What a union answer decodes through: one decomposition member.

    The five reads of a :class:`~repro.dp.graph.ResultAssembler`, over
    the member's bag-level states: ``assignment`` / ``output_tuple``
    are the member T-DP's compiled assembler's; ``witness_ids`` /
    ``witness`` map the states back to original tuple ids and tuples,
    in atom order.  Which bag (stage) and which lineage column supply
    each original atom is the same for every answer of the member, so
    both — and the row store each id is read in, the one the bind read
    (:func:`~repro.dp.lower.row_store`) — are resolved here, at bind; a
    read costs one pick per atom and no sort.  Holds the assembler, the
    lineage columns and the row stores, never the T-DP.
    """

    __slots__ = ("assignment", "output_tuple", "witness_ids", "witness", "fields")

    def __init__(
        self, database: Database, query: ConjunctiveQuery, task: TreeTask, tdp
    ):
        assembler = tdp.assembler(query.head)
        assignment = self.assignment = assembler.assignment
        self.output_tuple = assembler.output_tuple
        by_atom: list[tuple[int, int, list[int], Callable]] = []
        for stage, bag_atom in enumerate(tdp.atom_of_stage):
            per_tuple = task.lineage.get(task.query.atoms[bag_atom].relation_name)
            if per_tuple is None:
                continue
            bag = BagLineage.of(per_tuple)
            bag_ids = tdp.tuple_ids[stage]
            # An int64 column reads native ints through ``item``.
            by_atom.extend(
                (atom, stage, bag_ids, getattr(column, "item", column.__getitem__))
                for atom, column in zip(bag.atoms, bag.columns)
            )
        by_atom.sort(key=itemgetter(0))
        picks = [pick[1:] for pick in by_atom]
        stores = [
            row_store(database[query.atoms[pick[0]].relation_name]) for pick in by_atom
        ]

        def witness_ids(states: Sequence[int]) -> tuple:
            return tuple(
                [pick(bag_ids[states[stage]]) for stage, bag_ids, pick in picks]
            )

        def rows_of(tuple_ids: tuple) -> tuple:
            return tuple([rows[i] for rows, i in zip(stores, tuple_ids)])

        if not task.lineage:  # a hand-made task that tracks no witnesses
            witness_ids = rows_of = lambda _: None
        head = query.head

        def fields(states: Sequence[int]) -> tuple:
            """``(assignment, head, witness_ids, witness)``, as the assembler's."""
            tuple_ids = witness_ids(states)
            return (assignment(states), head, tuple_ids, rows_of(tuple_ids))

        self.witness_ids = witness_ids
        self.witness = lambda states: rows_of(witness_ids(states))
        self.fields = fields
