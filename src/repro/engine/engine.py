"""Engine/session layer: prepared queries with sound plan & index caching.

An :class:`Engine` wraps one :class:`~repro.data.database.Database` and
hands out :class:`PreparedQuery` objects::

    engine = Engine(db)
    prepared = engine.prepare("Q(x, y, z) :- R(x, y), S(y, z)")
    top5 = prepared.top(5)        # pays preprocessing once
    more = prepared.top(100)      # enumeration-only: plan + T-DP reused

``prepare`` is idempotent: the plan cache is keyed on the query
fingerprint plus execution options (dioid, algorithm, projection,
cycle threshold), LRU-evicted beyond ``max_cached_plans``.  Bound
*physical* plans are additionally shared across prepared queries that
differ only in the any-k algorithm — the built T-DPs (and their
compiled flat enumeration cores, see :mod:`repro.dp.flat`) are
algorithm-independent, so switching algorithms costs no second
preprocessing or compilation pass.  A prepared
query stamps the database's monotone :attr:`Database.version` when it
binds; any mutation (``Database.add``/``remove``/``touch`` or
``Relation.add`` on a contained relation) changes the version, and the
next execution transparently re-runs the preprocessing phase — cached
results are never stale.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterator

from repro.data.database import Database
from repro.dp.flat import CompiledTDP
from repro.engine.plan import LogicalPlan, PhysicalPlan, bind, plan
from repro.engine.stream import PrefixStream
from repro.enumeration.result import QueryResult
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.query.cq import ConjunctiveQuery
from repro.query.selections import (
    SelectionCondition,
    filter_database,
    parse_query_with_constants,
    rewrite_for_selections,
)
from repro.ranking.dioid import TROPICAL, SelectiveDioid
from repro.util.counters import OpCounter
from repro.util.resilience import COUNTERS as RECOVERY_COUNTERS

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.serve.cursor import Cursor


class EngineStats:
    """Plan-cache and binding counters (observability for tests/tuning).

    Every field is backed by a typed :class:`~repro.obs.metrics.Counter`
    registered with the gateway's scrape registry — but attribute reads
    return plain ints and writes go through the counter, so
    ``stats.binds += 1`` increments, ``before = stats.binds`` snapshots,
    and ``stats.binds == before + 1`` comparisons all keep exact int
    semantics (an aliasing-free snapshot, unlike handing out the
    mutable instrument itself).  The ``core_*`` and recovery fields are
    *mirrors* of authoritative counters elsewhere
    (:class:`~repro.dp.corebuf.CoreCache`,
    :data:`repro.util.resilience.COUNTERS`) refreshed after every bind
    by plain assignment.
    """

    _FIELDS = (
        "prepare_hits",
        "prepare_misses",
        "binds",
        "evictions",
        "stream_hits",
        "stream_misses",
        #: Compiled-core file counters; a ``core_hit`` bind skipped the
        #: T-DP build + compile entirely.
        "core_hits",
        "core_misses",
        "core_stale",
        "core_writes",
        #: Recovery mirror — how often transient faults were absorbed.
        "retries",
    )

    def __init__(self):
        object.__setattr__(
            self,
            "_counters",
            {
                name: Counter(f"repro_engine_{name}_total", f"Engine {name}.")
                for name in self._FIELDS
            },
        )

    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        try:
            return int(counters[name])
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value) -> None:
        if name in self._FIELDS:
            self._counters[name].set(value)
        else:
            object.__setattr__(self, name, value)

    def as_dict(self) -> dict:
        return {name: int(counter) for name, counter in self._counters.items()}

    def register_metrics(self, registry: MetricsRegistry) -> None:
        for counter in self._counters.values():
            registry.attach(counter)


class PreparedQuery:
    """A cached physical plan plus everything needed to (re)bind it.

    Created by :meth:`Engine.prepare`.  Execution methods (:meth:`iter`,
    :meth:`top`, :meth:`first`) run only the enumeration phase when the
    underlying database is unchanged since the last bind; otherwise they
    re-run preprocessing first (and count a bind in the engine stats).
    """

    __slots__ = (
        "engine", "logical", "selections", "physical_key", "_source_query",
        "_physical", "_bound_version",
    )

    def __init__(
        self,
        engine: "Engine",
        logical: LogicalPlan,
        physical_key: tuple,
        selections: tuple[SelectionCondition, ...] = (),
        source_query: ConjunctiveQuery | None = None,
    ):
        self.engine = engine
        self.logical = logical
        #: Engine-level key for the *bound* plan.  Excludes the any-k
        #: algorithm: the built T-DP structures are algorithm-independent
        #: (the algorithm only selects connector ranking at enumeration
        #: time), so prepared queries differing only in algorithm share
        #: one physical plan and preprocessing is paid once.
        self.physical_key = physical_key
        #: Constant selections compiled out of the query text; applied to
        #: the database at bind time (the paper's O(n) preprocessing).
        self.selections = selections
        #: Pre-rewrite query (needed to locate base relations to filter).
        self._source_query = source_query or logical.query
        self._physical: PhysicalPlan | None = None
        self._bound_version: int = -1

    # -- binding ---------------------------------------------------------------

    @property
    def query(self) -> ConjunctiveQuery:
        """The (selection-rewritten) query this plan evaluates."""
        return self.logical.query

    @property
    def is_bound(self) -> bool:
        """Whether a physical plan is cached for the current db version."""
        return (
            self._physical is not None
            and self._bound_version == self.engine.database.version
        )

    @property
    def preprocess_seconds(self) -> float | None:
        """Preprocessing wall-clock of the last bind (None if unbound)."""
        return None if self._physical is None else self._physical.preprocess_seconds

    def bind(self, force: bool = False, tracer=None) -> PhysicalPlan:
        """Ensure the physical plan matches the database's current state.

        A no-op when already bound at the current version (unless
        ``force``).  Delegates to the engine's shared physical-plan
        cache, so sibling prepared queries (same query/dioid/projection,
        different algorithm) bind at most once per database version —
        and, since binding also compiles the flat enumeration core,
        the ``CompiledTDP`` is version-stamped and shared the same way
        (across algorithms, cursors, and serving sessions).

        ``tracer`` overrides the engine's tracer for this bind — the
        hook :func:`repro.obs.analyze.analyze_prepared` uses to record
        preprocessing spans into its private always-sampling tracer.
        """
        version = self.engine.database.version
        if not force and self._physical is not None and self._bound_version == version:
            # Converge on the engine's canonical physical for this key
            # when one exists (a sibling PreparedQuery — e.g. created
            # after this one was LRU-evicted from the plan cache — may
            # have re-bound): the stream cache stamps by physical-plan
            # identity, so divergent-but-equivalent plans would churn
            # the memoized prefix on every alternation.  (Lock-free
            # dict peek; the version check makes a raced entry safe.)
            entry = self.engine._physicals.get(self.physical_key)
            if (
                entry is not None
                and entry[0] == version
                and entry[1] is not self._physical
            ):
                self._physical = entry[1]
            return self._physical
        self._physical = self.engine._bind_physical(
            self, version, force=force, tracer=tracer
        )
        self._bound_version = version
        return self._physical

    def invalidate(self) -> None:
        """Drop the cached physical plan (next run re-preprocesses)."""
        self._physical = None
        self._bound_version = -1
        with self.engine._lock:
            self.engine._physicals.pop(self.physical_key, None)
        with self.engine._stream_lock:
            self.engine._streams.pop(self.stream_key, None)

    # -- execution (enumeration phase only, when bound) ------------------------

    @property
    def stream_key(self) -> tuple:
        """Engine-level key of this query's shared result stream.

        Streams memoize *emitted results*, whose order may depend on how
        the any-k algorithm breaks ties — so unlike the physical plan,
        the stream key includes the algorithm.
        """
        return self.physical_key + (self.logical.algorithm,)

    def iter(self, counter: OpCounter | None = None) -> Iterator[QueryResult]:
        """Start one ranked enumeration run (lazy; TT(k) to pull k).

        Always a *fresh* enumeration over the shared bound plan: the
        instrumented cost of the run is exactly the paper's TT(k), which
        the experiment harness relies on.  Use :meth:`top` or
        :meth:`cursor` for the memoizing serving path.
        """
        return self.bind().iter(counter, algorithm=self.logical.algorithm)

    def __iter__(self) -> Iterator[QueryResult]:
        return self.iter()

    def stream(self) -> PrefixStream:
        """The shared memoized result stream for the current db version.

        One stream per (physical plan, algorithm) lives on the engine;
        overlapping :meth:`top` calls and any number of cursors consume
        it without re-enumerating the common prefix.  A database
        mutation invalidates it together with the physical plan.
        """
        return self.engine._stream_for(self)

    def top(self, k: int, counter: OpCounter | None = None) -> list[QueryResult]:
        """The first ``k`` ranked answers (fewer if the output is smaller).

        Served from the shared prefix stream: ``top(5)`` then
        ``top(100)`` enumerates answers 6..100 only, and a repeated
        ``top(k)`` does no enumeration work at all.  A passed
        ``counter`` receives the operations spent *on behalf of this
        call* (zero for fully memoized prefixes).

        The memoized prefix is retained (that is the point: later
        overlapping requests replay it), so a huge one-off ``top(k)``
        holds its k results until a database mutation, LRU pressure, or
        an explicit :meth:`invalidate`/``engine.clear_caches()``; use
        :meth:`iter` for transient full scans.
        """
        return self.stream().prefix(k, counter=counter)

    def cursor(self, budget: int | None = None) -> "Cursor":
        """A pausable, resumable pagination handle over :meth:`stream`.

        Cursors over the same prepared query share the emitted prefix;
        see :class:`repro.serve.cursor.Cursor`.
        """
        from repro.serve.cursor import Cursor

        return Cursor(self, budget=budget)

    def first(self, counter: OpCounter | None = None) -> QueryResult | None:
        """The top-ranked answer, or ``None`` on empty output (TTF cost)."""
        return next(self.iter(counter), None)

    def explain(self) -> str:
        """Logical plan, plus physical statistics when already bound."""
        if self._physical is not None:
            return self._physical.explain()
        return self.logical.explain()

    def analyze(self, k: int | None = 10, rebind: bool = True, tracer=None):
        """EXPLAIN ANALYZE: run up to ``k`` answers instrumented.

        Force-rebinds under an always-sampling tracer (so the per-stage
        tree covers plan → T-DP build → core-cache), drains
        ``k`` ranked answers clocking each arrival, and returns an
        :class:`~repro.obs.analyze.AnalyzeReport` carrying per-stage wall
        time, OpCounter attribution, compiled-core stats, and the TTF /
        TT(k) / per-answer-delay profile.  ``rebind=False`` profiles the warm
        serving path instead (no preprocessing re-run).
        """
        from repro.obs.analyze import analyze_prepared

        return analyze_prepared(self, k, rebind=rebind, tracer=tracer)

    def __repr__(self) -> str:
        state = "bound" if self.is_bound else "unbound"
        return (
            f"PreparedQuery({self.logical.query.name}, "
            f"{self.logical.strategy}, {self.logical.algorithm}, {state})"
        )


class Engine:
    """Session object: one database and its cached prepared queries.

    The database may live on any storage backend; an engine over a
    :class:`~repro.data.backend.SQLiteBackend` database binds plans
    against the persistent store (one batched column image per relation
    version) and gets cross-process warm starts for free — reopening
    the ``.db`` file skips ingestion, and only the in-process plan/T-DP
    caches are rebuilt.  Engines are context managers; leaving the
    ``with`` block closes the owning backend.
    """

    def __init__(
        self,
        database: Database,
        max_cached_plans: int = 64,
        core_cache: Any = "auto",
        tracer: Any = None,
    ):
        self.database = database
        self.max_cached_plans = max_cached_plans
        self.stats = EngineStats()
        #: Engine-wide tracer (:class:`repro.obs.trace.Tracer`), default
        #: the shared no-op :data:`~repro.obs.trace.NULL_TRACER` so the
        #: instrumentation points cost one attribute read + a constant
        #: method call when tracing is off.
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Persistent compiled-core cache (``<db>.core`` warm starts).
        #: ``"auto"``/``"on"`` attach to the backend's ``core_path``
        #: (no-op for path-less backends, e.g. in-memory); ``"off"`` /
        #: ``False`` / ``None`` disables persistence; any other string
        #: is an explicit core-file path; a prebuilt
        #: :class:`~repro.dp.corebuf.CoreCache` is used as-is.
        self.core_cache = self._resolve_core_cache(core_cache, database)
        #: Guards the plan/physical caches and their stats.  Binding
        #: (preprocessing) runs under this lock, so concurrent sessions
        #: binding the same query preprocess once; enumeration and
        #: stream lookups do NOT take it (streams have their own lock
        #: below), so a long-running fetch — and a heavy bind — never
        #: blocks another session's already-bound fetch.
        self._lock = threading.RLock()
        self._plans: OrderedDict[tuple, PreparedQuery] = OrderedDict()
        #: Bound physical plans, shared across algorithm variants:
        #: physical_key -> (database version at bind, PhysicalPlan).
        self._physicals: OrderedDict[tuple, tuple[int, PhysicalPlan]] = (
            OrderedDict()
        )
        #: Shared memoized result streams, under their own lock (never
        #: nested with ``_lock``): stream_key -> (bound physical plan at
        #: creation, stream).  Stamping with the physical plan *object*
        #: (not a version number) makes staleness structurally
        #: impossible: a stream is served only to callers whose bind()
        #: resolved to the exact plan it wraps.
        self._stream_lock = threading.RLock()
        self._streams: OrderedDict[tuple, tuple[PhysicalPlan, PrefixStream]] = (
            OrderedDict()
        )

    def prepare(
        self,
        query: ConjunctiveQuery | str,
        dioid: SelectiveDioid = TROPICAL,
        algorithm: str = "take2",
        projection: str = "all_weight",
        cycle_threshold: int | None = None,
        shards: Any = None,
    ) -> PreparedQuery:
        """Plan ``query`` (or fetch the cached plan) for later execution.

        ``query`` may be a :class:`ConjunctiveQuery` or Datalog-style
        text; text may contain constants (``R(x, 5)``), which compile
        into selections applied at bind time.  Binding is deferred: the
        first execution (or an explicit :meth:`PreparedQuery.bind`) runs
        the preprocessing phase.

        ``shards`` is accepted and ignored, unvalidated: every bind
        lowers one core, so ``prepare(q, shards=4)`` is ``prepare(q)``
        and returns its cached plan.  The keyword stays only for callers
        that still pass it (the benchmark ladder's
        ``parallel.build.bind_shards{1,4}_ms`` rows); it leaves once
        those rows are retired.
        """
        source_query, selections = self._resolve(query)
        planned_query = (
            rewrite_for_selections(source_query, list(selections))
            if selections
            else source_query
        )
        physical_key = (
            planned_query.fingerprint(),
            tuple(
                (c.atom_index, c.position, c.value) for c in selections
            ),
            id(dioid),
            projection,
            cycle_threshold,
        )
        key = physical_key + (algorithm.lower(),)
        with self._lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
                self.stats.prepare_hits += 1
                return cached
        # Planning is pure (no database access), so it runs outside the
        # lock; a racing duplicate prepare just loses the insert below.
        with self.tracer.span(
            "engine.prepare", query=planned_query.name, algorithm=algorithm
        ) as span:
            logical = plan(
                planned_query,
                dioid=dioid,
                algorithm=algorithm,
                projection=projection,
                cycle_threshold=cycle_threshold,
            )
            span.set(strategy=logical.strategy)
        prepared = PreparedQuery(
            self,
            logical,
            physical_key,
            selections=selections,
            source_query=source_query,
        )
        with self._lock:
            raced = self._plans.get(key)
            if raced is not None:
                self._plans.move_to_end(key)
                self.stats.prepare_hits += 1
                return raced
            self._plans[key] = prepared
            self.stats.prepare_misses += 1
            while len(self._plans) > self.max_cached_plans:
                self._plans.popitem(last=False)
                self.stats.evictions += 1
        return prepared

    @staticmethod
    def _resolve_core_cache(option: Any, database: Database):
        if option in ("off", False, None):
            return None
        from repro.dp.corebuf import CoreCache

        if isinstance(option, CoreCache):
            return option
        if option in ("auto", "on", True):
            path = getattr(database.backend, "core_path", None)
            return None if path is None else CoreCache(path)
        if isinstance(option, str):
            return CoreCache(option)
        raise ValueError(f"unknown core_cache option {option!r}")

    def _bind_physical(
        self,
        prepared: PreparedQuery,
        version: int,
        force: bool = False,
        tracer=None,
    ) -> PhysicalPlan:
        """Fetch or build the shared physical plan for ``prepared``.

        Runs under the engine lock: concurrent sessions binding the
        same physical key preprocess once, and the LRU eviction below
        never races a lookup.
        """
        if tracer is None:
            tracer = self.tracer
        with self._lock:
            key = prepared.physical_key
            entry = self._physicals.get(key)
            if not force and entry is not None and entry[0] == version:
                self._physicals.move_to_end(key)
                return entry[1]
            database = self.database
            core_cache = self.core_cache
            if prepared.selections:
                # Selections bind against a filtered *copy* of the
                # database whose contents the persistence key cannot
                # see — never serve or store cores for those.
                database = filter_database(
                    database, prepared._source_query, list(prepared.selections)
                )
                core_cache = None
            with tracer.span(
                "engine.bind",
                query=prepared.logical.query.name,
                strategy=prepared.logical.strategy,
            ) as span:
                physical = bind(
                    prepared.logical,
                    database,
                    core_cache=core_cache,
                    tracer=tracer,
                )
                span.set(preprocess_ms=round(physical.preprocess_seconds * 1e3, 4))
            if core_cache is not None:
                stats = core_cache.stats()
                self.stats.core_hits = stats["hits"]
                self.stats.core_misses = stats["misses"]
                self.stats.core_stale = stats["stale"]
                self.stats.core_writes = stats["writes"]
            recovery = RECOVERY_COUNTERS.snapshot()
            self.stats.retries = sum(
                count
                for name, count in recovery.items()
                if name.startswith("retries_")
            )
            self._physicals[key] = (version, physical)
            self._physicals.move_to_end(key)
            while len(self._physicals) > self.max_cached_plans:
                self._physicals.popitem(last=False)
            self.stats.binds += 1
            return physical

    def _stream_for(self, prepared: PreparedQuery) -> PrefixStream:
        """Fetch or create the shared memoized stream for ``prepared``.

        Stamped with the bound physical plan it wraps: a database
        mutation rebinds (``Database.version`` discipline), the stamp no
        longer matches, and a fresh stream over the fresh plan replaces
        the entry — a raced stale insert can at worst serve the
        requester whose bind predated the mutation, never later ones.
        A stream whose run died of an error is replaced the same way:
        cursors already on it keep replaying its memo, new requests
        enumerate afresh.
        The stream pulls lazily: creating it does no enumeration work.

        Memoized prefixes live until replaced, LRU-evicted, or
        explicitly dropped (:meth:`PreparedQuery.invalidate`,
        :meth:`clear_caches`) — the serving layer bounds their growth
        with per-session result budgets.
        """
        physical = prepared.bind()
        with self._stream_lock:
            key = prepared.stream_key
            entry = self._streams.get(key)
            if (
                entry is not None
                and entry[0] is physical
                and not entry[1].broken
            ):
                self._streams.move_to_end(key)
                self.stats.stream_hits += 1
                return entry[1]
            algorithm = prepared.logical.algorithm
            stream = PrefixStream(
                lambda counter: physical.iter(counter, algorithm=algorithm),
                tracer=self.tracer,
            )
            self._streams[key] = (physical, stream)
            self.stats.stream_misses += 1
            while len(self._streams) > self.max_cached_plans:
                self._streams.popitem(last=False)
            return stream

    @staticmethod
    def _resolve(
        query: ConjunctiveQuery | str,
    ) -> tuple[ConjunctiveQuery, tuple[SelectionCondition, ...]]:
        if isinstance(query, str):
            parsed, selections = parse_query_with_constants(query)
            return parsed, tuple(selections)
        return query, ()

    # -- convenience -----------------------------------------------------------

    def execute(
        self,
        query: ConjunctiveQuery | str,
        k: int | None = None,
        counter: OpCounter | None = None,
        **options: Any,
    ) -> list[QueryResult]:
        """Prepare-and-run shortcut: top ``k`` answers (all if ``None``)."""
        prepared = self.prepare(query, **options)
        if k is None:
            return list(prepared.iter(counter))
        return prepared.top(k, counter=counter)

    def explain(self, query: ConjunctiveQuery | str, **options: Any) -> str:
        """The (cached) plan report for ``query``, binding if needed."""
        prepared = self.prepare(query, **options)
        prepared.bind()
        return prepared.explain()

    def cached_plans(self) -> int:
        """Number of prepared queries currently in the plan cache."""
        return len(self._plans)

    @classmethod
    def from_backend(
        cls,
        backend,
        max_cached_plans: int = 64,
        core_cache: Any = "auto",
        tracer: Any = None,
    ) -> "Engine":
        """An engine over every relation stored in ``backend``."""
        return cls(
            Database.from_backend(backend),
            max_cached_plans=max_cached_plans,
            core_cache=core_cache,
            tracer=tracer,
        )

    # -- memory accounting -----------------------------------------------------

    @staticmethod
    def _compiled_cores(physical: PhysicalPlan) -> list:
        """Compiled flat cores reachable from one bound physical plan."""
        inner = getattr(physical, "inner", None)
        if inner is not None:  # projection wrapper
            return Engine._compiled_cores(inner)
        tdps = [
            getattr(physical, "tdp", None),
            *getattr(physical, "tdps", ()),
        ]
        return [tdp for tdp in tdps if isinstance(tdp, CompiledTDP)]

    def memory_stats(self) -> dict:
        """Scrape-time estimate of engine-held memory.

        ``stream_bytes`` covers memoized result prefixes;
        ``core_heap_bytes`` sums the heap structures of compiled cores
        reachable from bound plans, a column two cores share counted once
        (mmap-backed columns count zero); ``core_mmap_bytes`` is the mapped span of
        the ``.core`` file — the heap-vs-mmap split shows what warm
        starts moved off the heap.  Everything here is an estimate
        computed on demand; no instrument is touched on the enumeration
        path.
        """
        with self._stream_lock:
            streams = [stream for _physical, stream in self._streams.values()]
        with self._lock:
            physicals = [entry[1] for entry in self._physicals.values()]
        heap = 0
        seen: set[int] = set()
        for physical in physicals:
            for core in self._compiled_cores(physical):
                if id(core) not in seen:
                    seen.add(id(core))
                    heap += core.memory_bytes(seen)
        return {
            "stream_count": len(streams),
            "stream_bytes": sum(s.memory_bytes() for s in streams),
            "core_heap_bytes": heap,
            "core_mmap_bytes": (
                0 if self.core_cache is None else self.core_cache.mmap_bytes()
            ),
        }

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Attach engine counters and memory gauges to a registry."""
        self.stats.register_metrics(registry)
        for field in (
            "stream_count",
            "stream_bytes",
            "core_heap_bytes",
            "core_mmap_bytes",
        ):
            registry.gauge(
                f"repro_engine_{field}",
                f"Engine memory accounting: {field}.",
                fn=lambda field=field: self.memory_stats()[field],
            )

    def clear_caches(self) -> None:
        """Drop all cached plans and streams.

        Also the explicit way to release memoized result prefixes on a
        long-lived engine over a never-mutating database.
        """
        with self._lock:
            self._plans.clear()
            self._physicals.clear()
        with self._stream_lock:
            self._streams.clear()

    def warm_start(self) -> int:
        """Pre-bind every stored core matching the current database state.

        Replays the replay recipes stored beside ``.core`` entries
        (query + dioid): each fresh entry binds straight
        off the mmap, so a serving process answers its first request of
        a known query at enumeration cost.  Returns how many plans were
        warmed; entries for other database versions (or with broken
        recipes) are skipped silently — the normal miss path handles
        them.
        """
        if self.core_cache is None:
            return 0
        from repro.ranking.dioid import NAMED_DIOIDS

        version = self.database.version
        warmed = 0
        for _key, meta, db_version in self.core_cache.entries():
            if db_version != version:
                continue
            warm = meta.get("warm")
            if not warm:
                continue
            dioid = NAMED_DIOIDS.get(warm.get("dioid"))
            if dioid is None:
                continue
            try:
                prepared = self.prepare(warm["query"], dioid=dioid)
                prepared.bind()
            except Exception:
                continue
            warmed += 1
        return warmed

    def close(self) -> None:
        """Drop caches, release bound plans, and close storage.

        Bound physical plans are explicitly :meth:`~repro.engine.plan.
        PhysicalPlan.close`\\ d first: warm-started plans hold memoryview
        slices of the core file's mmap, and the mmap can only unmap once
        those views are gone.
        """
        with self._lock:
            physicals = [entry[1] for entry in self._physicals.values()]
        self.clear_caches()
        for physical in physicals:
            physical.close()
        if self.core_cache is not None:
            self.core_cache.close()
        self.database.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Engine({self.database!r}, plans={len(self._plans)}, "
            f"version={self.database.version})"
        )
