"""ShardedPhysical: the bound form of a sharded logical plan.

Holds one built fragment per shard — compiled flat cores for a dioid
with a lane, object-graph T-DPs under the canonical tie-break or a
dioid without one — and starts enumeration runs that merge the per-fragment any-k
streams through :class:`~repro.parallel.merge.ShardMerge`.  Like every
:class:`~repro.engine.plan.PhysicalPlan`, the built structures are
read-only during enumeration and algorithm-independent: the engine
shares one sharded bind across all any-k variants, cursors, and serving
sessions of a database version, and the version-stamp scheme invalidates
it exactly like an unsharded plan.
"""

from __future__ import annotations

from typing import Iterator

from repro.data.database import Database
from repro.dp.corebuf import core_key
from repro.engine.plan import (
    DecodedResults,
    LogicalPlan,
    PhysicalPlan,
    decodes_at_extension,
    load_cores,
    store_cores,
)
from repro.enumeration.result import QueryResult
from repro.obs.trace import NULL_TRACER
from repro.parallel.build import (
    FragmentRuntime,
    ParallelPreprocessor,
    PreprocessResult,
)
from repro.parallel.merge import ShardConcat, ShardMerge
from repro.parallel.sharder import Sharder, ShardPlan
from repro.ranking.dioid import lane_of
from repro.util.counters import OpCounter


class ShardedPhysical(PhysicalPlan):
    """Fragment-sharded bound plan (see module docstring)."""

    def __init__(
        self,
        logical: LogicalPlan,
        database: Database,
        shard_plan: ShardPlan,
        result: PreprocessResult,
    ):
        super().__init__(logical, database)
        self.shard_plan = shard_plan
        self.fragments = result.fragments
        self.eager = None
        for fragment in self.fragments:  # bind-time, as in AcyclicPhysical
            fragment.tdp.assembler(logical.query.head)
            self.eager = self.eager or decodes_at_extension(
                fragment.tdp, fragment.compiled is not None
            )
        self.mode = result.mode
        self.workers = result.workers
        self.shared_seconds = result.shared_seconds
        self.notes = list(result.notes)
        #: TieBreakingDioid fragments rank under (canonical mode only).
        self.tie = result.tie
        #: The most recent merge run (observability: per-shard emit
        #: attribution is read live from its ``member_counts``).
        self._last_merge: tuple | None = None

    @property
    def shard_count(self) -> int:
        return len(self.fragments)

    def close(self) -> None:
        """Drop fragment references (releases mmap views on warm plans)."""
        self._last_merge = None
        self.fragments = []

    def iter(
        self,
        counter: OpCounter | None = None,
        algorithm: str | None = None,
    ) -> Iterator[QueryResult]:
        algorithm = (algorithm or self.logical.algorithm).lower()
        head = self.logical.query.head
        views = self.eager is None
        members = []
        member_fragments = []
        for fragment in self.fragments:
            if fragment.empty:
                continue
            # Each fragment's kernel emits the answer itself, decoding
            # through that fragment's assembler; the merge only orders.
            emits = (QueryResult, fragment.tdp.assembler(head)) if views else None
            members.append(
                fragment.make_enumerator(algorithm, counter=counter, emits=emits)
            )
            member_fragments.append(fragment.index)
        merge_cls = ShardConcat if algorithm == "batch_nosort" else ShardMerge
        merge = merge_cls(members, counter=counter)
        self._last_merge = (merge, member_fragments)
        if views:
            return merge
        tie = self.tie

        def finish(result) -> QueryResult:
            weight = result.weight if tie is None else tie.base_value(result.weight)
            return result.tdp.assembler(head).result(weight, result.states)

        return DecodedResults(merge, finish)

    def last_shard_counts(self) -> list[int] | None:
        """Per-shard emitted counts of the most recent merge run.

        Diagnostic, intentionally unsynchronised: the bound plan is
        shared across cursors/sessions by design, so "most recent"
        means whichever consumer last called :meth:`iter` — concurrent
        consumers will see each other's runs here.  Per-request
        attribution belongs to the caller's own :class:`OpCounter`.
        """
        if self._last_merge is None:
            return None
        merge, member_fragments = self._last_merge
        counts = [0] * len(self.fragments)
        for index, count in zip(member_fragments, merge.shard_counts()):
            counts[index] = count
        return counts

    def _physical_stats(self) -> list[str]:
        plan = self.shard_plan
        lines = plan.explain(indent="  ")
        lines.append(
            f"  fragment builds ({self.mode}): shared lower stages "
            f"{self.shared_seconds * 1e3:.2f} ms"
        )
        total_entries = 0
        compiled_fragments = 0
        for fragment in self.fragments:
            status = " (EMPTY)" if fragment.empty else ""
            if fragment.compiled is not None:
                entries = fragment.compiled.stats()["entries"]
                total_entries += entries
                compiled_fragments += 1
                flavour = f"compiled ({entries} flat entries)"
            else:
                flavour = "object"
            lines.append(
                f"    fragment {fragment.index}: {fragment.anchor_states()} anchor states, "
                f"{flavour}, {fragment.seconds * 1e3:.2f} ms{status}"
            )
        if compiled_fragments:
            # Fragment cores alias the shared lower stages, so the sum
            # attributes shared entries to every fragment reaching them.
            lines.append(
                f"  compiled cores: {total_entries} flat entries across "
                f"{compiled_fragments} fragment(s), shared lower stages "
                f"counted per fragment"
            )
        for note in self.notes:
            if note not in plan.notes:
                lines.append(f"  note: {note}")
        return lines

    def shard_stats(self) -> dict:
        """Observability snapshot for serving ``stats`` / benchmarks."""
        return {
            "shards": self.shard_count,
            "anchor_atom": self.shard_plan.anchor_atom,
            "strategy": self.shard_plan.spec.strategy,
            "tie_break": self.shard_plan.spec.tie_break,
            "mode": self.mode,
            "workers": self.workers,
            "empty_fragments": sum(1 for f in self.fragments if f.empty),
            "fragment_states": [f.anchor_states() for f in self.fragments],
            "fragment_entries": [
                None if f.compiled is None else f.compiled.stats()["entries"]
                for f in self.fragments
            ],
            "fragment_build_ms": [
                round(f.seconds * 1e3, 3) for f in self.fragments
            ],
            "shared_lower_ms": round(self.shared_seconds * 1e3, 3),
            "last_shard_counts": self.last_shard_counts(),
        }


def bind_sharded(
    logical: LogicalPlan,
    database: Database,
    indexes=None,
    core_cache=None,
    tracer=NULL_TRACER,
) -> ShardedPhysical:
    """Preprocess a sharded acyclic plan: plan fragments, build, wrap.

    With a ``core_cache``, a fresh ``.core`` entry for this plan's
    persistence key replaces the entire fragment build: the mapped
    per-fragment cores alias the file's shared entry pool and stage
    arrays exactly as the cold build's fragments alias its in-process
    lists, so ranked output is bit-identical.  Sharding is still
    *planned* (cheap, metadata-only) — the stored cores are validated
    against the fresh plan's anchor stage and fragment count.

    An *explicitly* requested build mode (``parallel="fused"`` or
    ``"thread"``) always builds with that mode: the warm start only
    replaces the build under the default ``"auto"`` policy, where the
    engine is free to pick the fastest path.  Cold ``auto`` builds
    still write the core so the next process can warm-start.
    """
    spec = logical.shard
    flat_path = (
        lane_of(logical.dioid)[0] is not None and spec.tie_break == "arrival"
    )
    sharder = Sharder(database, indexes)
    with tracer.span("shard.plan") as span:
        shard_plan = sharder.plan(logical, spec, flat_path)
        span.set(
            shards=len(shard_plan.fragments),
            anchor_atom=shard_plan.anchor_atom,
        )
    if not (flat_path and spec.parallel == "auto"):
        core_cache = None
    key = core_key(logical.query, logical.dioid, spec.cache_key())
    cores = load_cores(
        core_cache, key, database, logical.query, shard_plan.join_tree,
        shard_plan.anchor_stage, len(shard_plan.fragments), tracer,
    )
    if cores is not None:
        fragments = [
            FragmentRuntime(index, core, None, 0.0, shard_plan.anchor_stage)
            for index, core in enumerate(cores)
        ]
        result = PreprocessResult(
            fragments,
            "mmap",
            shard_plan.workers,
            0.0,
            list(shard_plan.notes) + ["warm start from compiled core file"],
            None,
        )
        return ShardedPhysical(logical, database, shard_plan, result)
    with tracer.span("fragments.build") as span:
        result = ParallelPreprocessor(
            database, logical, shard_plan, tracer=tracer
        ).build()
        span.set(mode=result.mode, workers=result.workers)
    store_cores(
        core_cache, key, logical, database,
        [f.compiled for f in result.fragments], shard_plan.anchor_stage, tracer,
    )
    return ShardedPhysical(logical, database, shard_plan, result)
