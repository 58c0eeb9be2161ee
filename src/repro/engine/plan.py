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
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (lazy runtime import)
    from repro.parallel.sharder import ShardSpec

from repro.anyk.base import make_enumerator
from repro.anyk.flat import make_flat_enumerator
from repro.anyk.union import UnionEnumerator
from repro.data.database import Database
from repro.data.index import IndexCache
from repro.decomposition.base import BagLineage, TreeTask
from repro.decomposition.cycle import decompose_cycle, detect_simple_cycle
from repro.decomposition.generic import decompose_generic
from repro.dp.builder import build_tdp, make_tie_lift, rank_tie_domains
from repro.dp.corebuf import core_key, dioid_core_name, export_fragments
from repro.dp.flat import LaneCore, compile_tdp
from repro.dp.lower import lower_member, lower_query, member_lane
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
    #: Sharding request (:class:`repro.parallel.sharder.ShardSpec`), or
    #: ``None``.  Only the acyclic T-DP strategy (and the all-weight
    #: projection wrapper around it) binds sharded; other strategies
    #: keep the spec for explain transparency and bind unsharded.
    shard: "ShardSpec | None" = None

    @property
    def shard_supported(self) -> bool:
        """Whether binding honours :attr:`shard` for this strategy."""
        if self.strategy == ACYCLIC_TDP:
            return True
        if self.strategy == ALL_WEIGHT_PROJECTION and self.inner is not None:
            return self.inner.shard_supported
        return False

    def explain(self, indent: str = "") -> str:
        """A textual rendering of the plan (no data statistics)."""
        lines = [f"{indent}logical plan: {self.query!r}"]
        lines.append(
            f"{indent}  strategy: {self.strategy}  "
            f"algorithm: {self.algorithm}  dioid: {self.dioid!r}"
        )
        if self.projection != "all_weight" or not self.query.is_full():
            lines.append(f"{indent}  projection: {self.projection}")
        if self.shard is not None:
            if self.shard_supported:
                lines.append(f"{indent}  shards: {self.shard.describe()}")
            else:
                lines.append(
                    f"{indent}  shards: requested {self.shard.describe()} — "
                    f"unsupported for strategy {self.strategy}; "
                    "binding unsharded"
                )
        if self.join_tree is not None:
            from repro.enumeration.explain import tree_ascii

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


def plan(
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    algorithm: str = "take2",
    projection: str = "all_weight",
    cycle_threshold: int | None = None,
    shards: "ShardSpec | int | None" = None,
) -> LogicalPlan:
    """Classify ``query`` and build its :class:`LogicalPlan` (pure).

    Replaces the string-flag branching previously inlined in
    ``ranked_enumerate``: the Section 5.4 dispatch — acyclic T-DP,
    simple-cycle decomposition, generic decomposition — plus the Section
    8.1 projection semantics, each as an explicit plan object.

    ``shards`` (an int or a :class:`repro.parallel.sharder.ShardSpec`)
    requests the parallel execution layer; planning stays pure — the
    anchor atom and fragment bounds are resolved against the database at
    bind time by the :class:`~repro.parallel.sharder.Sharder`.
    """
    if projection not in VALID_PROJECTIONS:
        raise ValueError(f"unknown projection semantics {projection!r}")
    if algorithm.lower() not in VALID_ALGORITHMS:
        raise ValueError(f"unknown any-k algorithm {algorithm!r}")
    if shards is not None:
        from repro.parallel.sharder import ShardSpec

        if isinstance(shards, int):
            shards = ShardSpec(shards)
        elif not isinstance(shards, ShardSpec):
            raise TypeError(
                f"shards must be an int or ShardSpec, got {shards!r}"
            )

    common = dict(
        dioid=dioid,
        algorithm=algorithm,
        projection=projection,
        cycle_threshold=cycle_threshold,
        shard=shards,
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
            shards=shards,
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


def decodes_at_extension(tdp, flat: bool) -> str | None:
    """Why answers over ``tdp`` are finished while the stream extends,
    or ``None`` when they can be handed out as views and decoded on read.

    One rule, applied once per bind to what the T-DP holds: rows this
    process holds (lists) are read when someone looks, because reading
    them later cannot fail; rows behind a backend
    (:class:`~repro.dp.corebuf.LazyRows` of a warm-started plan) are
    fetched while extending, so a failed fetch is a failed ``ensure``
    that resumes at the same rank and an answer handed out is complete
    after the backend is closed.  Only
    the flat kernels allocate views; the object-graph enumerators emit
    :class:`~repro.anyk.base.RankedResult` and keep the hop.  (A union
    of member trees applies the same rule to the relations its
    witnesses are read from: :attr:`MemberDecoder.behind`.)
    """
    if not flat:
        return "object-graph enumerators"
    for rows in tdp.tuples:
        if not isinstance(rows, list):
            backend = getattr(getattr(rows, "relation", None), "backend", None)
            holder = rows if backend is None else backend
            return f"rows behind {type(holder).__name__}"
    return None


class DecodedResults:
    """``map(decode, results)`` that a failing ``decode`` cannot damage.

    The hop of every plan whose answers are finished while the stream
    extends (:func:`decodes_at_extension`, and the finishers that
    post-process).  Decoding reads input rows, which for a warm-started
    plan are point lookups in a storage backend and can fail.  ``map``
    would drop the result it had already pulled (a skipped rank); a
    generator would be finalised by the raise and read as exhausted
    from then on.  Here the undecoded result stays pending and the next
    pull retries it, so a consumer that survives the error resumes at
    the same rank.
    """

    __slots__ = ("_results", "_decode", "_pending")

    def __init__(self, results, decode):
        self._results = iter(results)
        self._decode = decode
        self._pending = None

    def __iter__(self) -> "DecodedResults":
        return self

    def __next__(self) -> QueryResult:
        pending = self._pending
        if pending is None:
            pending = self._pending = next(self._results)
        answer = self._decode(pending)
        self._pending = None
        return answer


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
    #: plan hands out views that decode on read (:func:`decodes_at_extension`).
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
    (:func:`~repro.ranking.dioid.lane_of`) that is the
    :class:`~repro.dp.flat.CoreShell` of a directly lowered (or
    ``.core``-mapped) compiled core, which
    :func:`~repro.dp.flat.compile_tdp` just reads back off the shell;
    for every other dioid it is the object graph of
    :func:`~repro.dp.builder.build_tdp` and ``compiled`` is ``None``.
    Either way the bottom-up pass lands in ``preprocess_seconds`` — paid
    once per database version — and every enumeration run (any
    algorithm, any serving session) starts on the shared structures.
    """

    def __init__(self, logical: LogicalPlan, database: Database, tdp):
        super().__init__(logical, database)
        self.tdp = tdp
        self.compiled = compile_tdp(tdp)
        # Compiled here, in the preprocessing phase: a warm plan's first
        # answer should not pay for it.
        tdp.assembler(logical.query.head)
        self.eager = decodes_at_extension(tdp, self.compiled is not None)

    def close(self) -> None:
        if self.tdp is not None:
            self.tdp._compiled = None
        self.tdp = None
        self.compiled = None

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        algorithm = algorithm or self.logical.algorithm
        assembler = self.tdp.assembler(self.logical.query.head)
        if self.eager is None:
            # The kernel's object is the answer: nothing in between.
            return iter(
                make_flat_enumerator(
                    self.compiled, algorithm.lower(), counter,
                    emits=(QueryResult, assembler),
                )
            )
        enumerator = make_enumerator(self.tdp, algorithm, counter=counter)
        finish = assembler.result
        return DecodedResults(
            enumerator, lambda result: finish(result.weight, result.states)
        )

    def _physical_stats(self) -> list[str]:
        lines = self._tdp_lines("t-dp", self.tdp)
        if self.compiled is not None:
            stats = self.compiled.stats()
            # Mapped warm starts replay the persisted core; flag them so
            # explain() distinguishes a rebuilt plan from a replayed one.
            mapped = " (mapped warm start)" if self.compiled.mapped else ""
            lines.append(
                f"  compiled core: {stats['entries']} flat entries "
                f"({'chain' if self.compiled.is_chain else 'tree'} layout, "
                f"lane ({self.compiled.lane})){mapped}"
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

    A member is *lowered*, not built, when the base dioid keeps its lane
    contract (:func:`repro.dp.lower.member_lane`, decided once from the
    dioid): ``tdps[i]`` is then the shell of a
    :class:`~repro.dp.flat.LaneCore` (``cores[i]``) and the member runs
    the flat kernels of :mod:`repro.anyk.flat` over it; otherwise it is the
    object graph of ``build_tdp`` (``cores[i]`` is ``None``, the reason
    in :attr:`object_reason`).  Either way ``make_enumerator(tdps[i])``
    yields pair-valued results, ``(base, rank)``.  Lowered members count
    their kernel stages into ``span`` (``vectorized_stages``).

    An answer is its member's states until someone reads it: a
    :class:`QueryResult` view over that member's :class:`MemberDecoder`.
    The rule is :func:`decodes_at_extension`'s — when a relation the
    witness is read from sits behind a backend, answers are finished
    while the stream extends instead.
    """

    def __init__(
        self,
        logical: LogicalPlan,
        database: Database,
        tasks: list[TreeTask],
        dedup: bool = False,
        span=NULL_SPAN,
    ):
        super().__init__(logical, database)
        self.tasks = tasks
        self.dedup = dedup
        query = logical.query
        variables = query.variables
        var_position = {v: i for i, v in enumerate(variables)}
        self.tie = TieBreakingDioid(logical.dioid, len(variables))
        trees = [build_join_tree(task.query) for task in tasks]
        rank_tie_domains(
            self.tie,
            [(task.database, tree, var_position) for task, tree in zip(tasks, trees)],
        )
        lane, self.object_reason = member_lane(self.tie)
        self.tdps = []
        self.cores: list[LaneCore | None] = []
        #: id(member T-DP) -> its :class:`MemberDecoder`.
        self._decoders: dict[int, MemberDecoder] = {}
        self.eager = None
        for task, tree in zip(tasks, trees):
            if lane is None:
                lift = make_tie_lift(self.tie, var_position, tree)
                core = None
                tdp = build_tdp(task.database, tree, dioid=self.tie, lift=lift)
            else:
                core = lower_member(
                    task.database, tree, self.tie, var_position, lane, span
                )
                tdp = core.tdp
            self.tdps.append(tdp)
            self.cores.append(core)
            decoder = MemberDecoder(database, query, task, tdp)
            self._decoders[id(tdp)] = decoder
            self.eager = self.eager or decoder.behind

    def close(self) -> None:
        # A lowered member's shell and core point at each other: unlink
        # them, so the columns go when the plan does, not at the next
        # full collection (which a following bind would otherwise share
        # its peak memory with).
        for tdp in self.tdps:
            tdp._compiled = None
        self.tdps = []
        self.cores = []

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        algorithm = algorithm or self.logical.algorithm
        members = [
            make_enumerator(tdp, algorithm, counter=counter)
            for tdp in self.tdps
        ]
        head = self.logical.query.head

        def identity(result) -> tuple:
            return (result.key, result.output_tuple(head))

        union = UnionEnumerator(
            members, identity=identity, dedup=self.dedup, counter=counter
        )
        decoders = self._decoders
        base_value = self.tie.base_value
        if self.eager is not None:
            return DecodedResults(
                union,
                lambda result: QueryResult(
                    base_value(result.weight),
                    *decoders[id(result.tdp)].fields(result.states),
                ),
            )
        new = QueryResult.__new__

        def view(result) -> QueryResult:
            answer = new(QueryResult)
            answer.weight = base_value(result.weight)
            answer.key = result.key
            answer.states = result.states
            answer.decoder = decoders[id(result.tdp)]
            return answer

        return map(view, union)

    def _physical_stats(self) -> list[str]:
        lines = [f"  union of {len(self.tasks)} member trees:"]
        for task, tdp, core in zip(self.tasks, self.tdps, self.cores):
            lines.extend(
                self._tdp_lines(task.label or task.query.name, tdp)
            )
            if core is None:
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

    def __init__(self, logical: LogicalPlan, database: Database):
        super().__init__(logical, database)
        from repro.enumeration.projections import build_free_connex_plan

        self.fc_plan = build_free_connex_plan(
            database, logical.query, dioid=logical.dioid
        )
        self.tdp = (
            None
            if self.fc_plan.empty
            else build_tdp(
                self.fc_plan.database, self.fc_plan.tree, dioid=logical.dioid
            )
        )

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
            enumerator = make_enumerator(tdp, algorithm, counter=counter)
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
    indexes: IndexCache | None = None,
    core_cache=None,
    tracer=NULL_TRACER,
) -> PhysicalPlan:
    """Run the preprocessing phase of ``logical`` against ``database``.

    This is the only place data-dependent work happens before
    enumeration: decomposition bag materialisation and T-DP bottom-up
    passes.  The elapsed wall-clock time is recorded on the returned
    plan as ``preprocess_seconds``.

    ``core_cache`` (a :class:`repro.dp.corebuf.CoreCache`, or ``None``)
    enables warm starts for the acyclic T-DP strategy: a fresh entry for
    this plan's persistence key skips the bottom-up pass entirely and
    enumerates straight off the mmapped arrays; a miss or stale entry
    falls through to the normal build and rewrites the file.

    ``tracer`` (:class:`repro.obs.trace.Tracer`) records a per-stage
    span tree of the preprocessing phase — T-DP build (``tdp.compile``
    too where an object graph is lowered afterwards), core-cache
    load/store, decomposition, shard build.  The default
    no-op tracer keeps the cost at one constant method call per stage.
    """
    start = time.perf_counter()
    physical = _bind(logical, database, indexes, core_cache, tracer)
    physical.preprocess_seconds = time.perf_counter() - start
    return physical


def load_cores(
    core_cache, key: str | None, database: Database, query, join_tree,
    anchor_stage: int, num_fragments: int, tracer,
):
    """The plan's fragment cores mapped from the ``.core`` file, or ``None``.

    ``None`` for a disabled cache, a non-persistable plan (``key`` is
    ``None``), and any miss: absent, stale, or stored for another
    anchor / fragment count.
    """
    if core_cache is None:
        return None
    with tracer.span("core.load", fragments=num_fragments) as span:
        cores = core_cache.load_fragment_cores(
            key, database, query, join_tree, anchor_stage, num_fragments
        )
        span.set(hit=cores is not None)
    return cores


def store_cores(
    core_cache, key: str | None, logical: LogicalPlan, database: Database,
    cores: list, anchor_stage: int, tracer,
) -> None:
    """Persist freshly built fragment cores with their replay recipe."""
    if core_cache is None or key is None:
        return
    with tracer.span("core.store", fragments=len(cores)):
        meta, data = export_fragments(cores, anchor_stage)
        warm = {  # what ``Engine.warm_start`` needs to re-prepare the plan
            "query": logical.query,
            "dioid": dioid_core_name(logical.dioid),
            "shards": logical.shard,
        }
        core_cache.store(key, database, meta, data, warm=warm)


def _bind(
    logical: LogicalPlan,
    database: Database,
    indexes: IndexCache | None,
    core_cache=None,
    tracer=NULL_TRACER,
) -> PhysicalPlan:
    strategy = logical.strategy
    if strategy == ACYCLIC_TDP:
        if logical.shard is not None:
            from repro.parallel.physical import bind_sharded

            return bind_sharded(
                logical,
                database,
                indexes=indexes,
                core_cache=core_cache,
                tracer=tracer,
            )
        if lane_of(logical.dioid)[0] is None:
            # No lane: the object graph is the T-DP.
            with tracer.span("tdp.build") as span:
                tdp = build_tdp(database, logical.join_tree, dioid=logical.dioid)
                span.set(states=tdp.num_states())
            return AcyclicPhysical(logical, database, tdp)
        # One fragment spanning the whole anchor relation (stage 0).
        key = core_key(logical.query, logical.dioid, None)
        cores = load_cores(
            core_cache, key, database, logical.query, logical.join_tree,
            0, 1, tracer,
        )
        if cores is None:
            with tracer.span("tdp.build") as span:
                cores = [
                    lower_query(database, logical.join_tree, logical.dioid, span)
                ]
                stats = cores[0].stats()
                span.set(states=stats["states"], entries=stats["entries"])
            store_cores(core_cache, key, logical, database, cores, 0, tracer)
        return AcyclicPhysical(logical, database, cores[0].tdp)
    if strategy == SIMPLE_CYCLE_UNION:
        with tracer.span("decompose", kind="simple-cycle") as span:
            tasks = decompose_cycle(
                database,
                logical.query,
                dioid=logical.dioid,
                threshold=logical.cycle_threshold,
                indexes=indexes,
                walk=logical.cycle_walk,
            )
            atoms = len(logical.cycle_walk)
            span.set(
                members=len(tasks),
                # Of the l heavy partitions and the light one.
                members_skipped=atoms + 1 - len(tasks),
                # The decomposition reads each cycle atom once.
                scans=atoms,
                bag_tuples=_bag_tuples(tasks),
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
        with tracer.span("tdp.build", projection="min_weight"):
            physical = MinWeightPhysical(logical, database)
        if physical.tdp is not None and lane_of(logical.dioid)[0] is not None:
            with tracer.span("tdp.compile") as span:
                compiled = compile_tdp(physical.tdp)
                span.set(entries=compiled.stats()["entries"])
        return physical
    if strategy == ALL_WEIGHT_PROJECTION:
        inner = _bind(logical.inner, database, indexes, core_cache, tracer)
        return ProjectionPhysical(logical, database, inner)
    raise AssertionError(f"unhandled strategy {strategy!r}")


def _bag_tuples(tasks: list[TreeTask]) -> int:
    return sum(len(bag) for task in tasks for bag in task.database)


def _bind_union(
    logical: LogicalPlan, database: Database, tasks: list[TreeTask], tracer
) -> "UnionPhysical":
    with tracer.span("tdp.build", members=len(tasks)) as span:
        physical = UnionPhysical(logical, database, tasks, dedup=False, span=span)
        tdps = physical.tdps
        lowered = [core for core in physical.cores if core is not None]
        span.set(
            # Bag tuples read (every bag is one stage) -> alive states.
            rows=_bag_tuples(tasks),
            stages=sum(tdp.num_stages for tdp in tdps),
            states=sum(tdp.num_states() for tdp in tdps),
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
    both — and the relation each id is looked up in — are resolved here,
    at bind; a read costs one pick per atom and no sort.  Holds the
    assembler, the lineage columns and the relations' lookups, never
    the T-DP.

    ``behind`` says why reading a witness can fail — a relation behind a
    storage backend, where a lookup is a query — or is ``None``.
    """

    __slots__ = (
        "assignment", "output_tuple", "witness_ids", "witness", "fields", "behind",
    )

    def __init__(
        self, database: Database, query: ConjunctiveQuery, task: TreeTask, tdp
    ):
        assembler = tdp.assembler(query.head)
        assignment = self.assignment = assembler.assignment
        self.output_tuple = assembler.output_tuple
        self.behind: str | None = None
        by_atom: list[tuple[int, int, list[int], Sequence[int]]] = []
        for stage, bag_atom in enumerate(tdp.atom_of_stage):
            per_tuple = task.lineage.get(task.query.atoms[bag_atom].relation_name)
            if per_tuple is None:
                continue
            bag = BagLineage.of(per_tuple)
            bag_ids = tdp.tuple_ids[stage]
            by_atom.extend(
                (atom, stage, bag_ids, column)
                for atom, column in zip(bag.atoms, bag.columns)
            )
        by_atom.sort(key=itemgetter(0))
        picks = [pick[1:] for pick in by_atom]
        relations = [database[query.atoms[pick[0]].relation_name] for pick in by_atom]
        for relation in relations:
            if relation.backend is not None:
                self.behind = f"rows behind {type(relation.backend).__name__}"
        # tuple_at is a plain list index in memory and a rowid point lookup
        # for backend-stored relations (no materialisation per witness).
        fetchers = [relation.tuple_at for relation in relations]

        def witness_ids(states: Sequence[int]) -> tuple:
            return tuple(
                [column[bag_ids[states[stage]]] for stage, bag_ids, column in picks]
            )

        def rows_of(tuple_ids: tuple) -> tuple:
            return tuple([fetch(i) for fetch, i in zip(fetchers, tuple_ids)])

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
