"""Parallel layer: sharder planning, engine caching, preprocessor modes.

Covers the engine-integration guarantees of the sharding subsystem:

* shard configuration participates in the physical *and* stream cache
  keys — re-preparing with a different ``shards=`` can never serve a
  stale memoized prefix (the PrefixStream regression);
* sharded binds share physical plans across algorithms and invalidate
  under the existing database-version stamp scheme;
* the anchor heuristic, fragment layout, and explain output;
* the thread preprocessor mode builds bit-identical fragments, a fused
  plan reports the one worker it runs on, and the compiled cores (and
  singleton dioids) survive pickling.
"""

import pickle
import random

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.generators import uniform_database
from repro.data.relation import Relation
from repro.engine import Engine, plan
from repro.parallel import ShardSpec, Sharder, ShardedPhysical
from repro.query.builders import path_query, star_query
from repro.util.counters import OpCounter


def signature(results):
    return [
        (r.weight, tuple(sorted(r.assignment.items())), r.witness_ids)
        for r in results
    ]


@pytest.fixture
def engine():
    return Engine(uniform_database(3, 120, seed=21))


QUERY = path_query(3)


class TestShardSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(0)
        with pytest.raises(ValueError):
            ShardSpec(2, strategy="mod")
        with pytest.raises(ValueError):
            ShardSpec(2, tie_break="random")
        with pytest.raises(ValueError):
            ShardSpec(2, parallel="gpu")
        with pytest.raises(
            ValueError, match=r"\('auto', 'fused', 'thread'\)"
        ):
            ShardSpec(2, parallel="process")
        with pytest.raises(ValueError):
            ShardSpec(2, workers=0)

    def test_hashable_and_distinct(self):
        assert ShardSpec(2) == ShardSpec(2)
        assert hash(ShardSpec(2)) == hash(ShardSpec(2))
        assert ShardSpec(2) != ShardSpec(4)
        assert ShardSpec(2) != ShardSpec(2, tie_break="canonical")

    def test_prepare_rejects_bad_spec(self, engine):
        with pytest.raises(ValueError):
            engine.prepare(QUERY, shards=0)
        with pytest.raises((TypeError, ValueError)):
            engine.prepare(QUERY, shards="four")


class TestSharderPlanning:
    def test_default_anchor_is_join_tree_root(self, engine):
        logical = plan(QUERY, shards=ShardSpec(2))
        shard_plan = Sharder(engine.database).plan(logical, logical.shard, True)
        assert shard_plan.anchor_atom == logical.join_tree.order[0]
        assert shard_plan.anchor_stage == 0

    def test_heuristic_prefers_much_larger_relation(self):
        database = uniform_database(3, 50, seed=2)
        big = Relation(
            "R3", 2,
            [(random.Random(0).randint(1, 5), i) for i in range(200)],
            [float(i) for i in range(200)],
        )
        database.add(big)
        logical = plan(QUERY, shards=ShardSpec(4))
        shard_plan = Sharder(database).plan(logical, logical.shard, True)
        assert shard_plan.anchor_atom == 2  # R3 is >= 2x larger
        assert any("heuristic anchored" in note for note in shard_plan.notes)
        # Non-root anchor: the component is re-rooted at the anchor.
        assert shard_plan.join_tree.parent[2] == -1

    def test_explicit_anchor_override(self, engine):
        logical = plan(QUERY, shards=ShardSpec(2, atom=1))
        shard_plan = Sharder(engine.database).plan(logical, logical.shard, True)
        assert shard_plan.anchor_atom == 1
        with pytest.raises(ValueError):
            Sharder(engine.database).plan(
                logical, ShardSpec(2, atom=9), True
            )

    def test_range_fragments_cover_and_partition(self, engine):
        logical = plan(QUERY, shards=ShardSpec(5))
        shard_plan = Sharder(engine.database).plan(logical, logical.shard, True)
        bounds = [(f.lo, f.hi) for f in shard_plan.fragments]
        assert bounds[0][0] == 0 and bounds[-1][1] == 120
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_object_path_requires_unique_anchor_name(self):
        """The object-graph fragment path restricts the anchor relation
        by *name*, so a pure self-join must be rejected — silently
        dropping cross-fragment answers would be worse (regression for
        the canonical tie-break AND dioids without a lane)."""
        from repro.query.parser import parse_query
        from repro.ranking.dioid import BOOLEAN

        # Join-acyclic edge set: no (i, j)/(j, i) answer pairs, so the
        # flat-path comparison below is tie-free.
        edges = Relation(
            "E", 2, [(1, 2), (2, 3), (1, 3), (3, 4)],
            [1.0, 2.0, 4.0, 8.0],
        )
        database = Database([edges])
        query = parse_query("Q(x, y, z) :- E(x, y), E(y, z)")
        logical = plan(query, shards=ShardSpec(2, tie_break="canonical"))
        with pytest.raises(ValueError, match="self-join"):
            Sharder(database).plan(logical, logical.shard, False)
        # Same guard for a generic dioid under the default arrival mode.
        engine = Engine(database)
        with pytest.raises(ValueError, match="self-join"):
            engine.prepare(query, dioid=BOOLEAN, shards=2).bind()
        # The flat path shards the same query fine (per-stage restriction).
        reference = signature(engine.prepare(query).iter())
        assert signature(engine.prepare(query, shards=2).iter()) == reference

    def test_explain_mentions_shards(self, engine):
        prepared = engine.prepare(QUERY, shards=3)
        prepared.bind()
        report = prepared.explain()
        assert "shard plan: 3 fragment(s)" in report
        assert "anchor atom #0" in report

    def test_unsupported_strategy_falls_back(self):
        from repro.query.builders import cycle_query

        database = uniform_database(3, 40, seed=8)
        engine = Engine(database)
        query = cycle_query(3)
        reference = signature(engine.prepare(query).iter())
        prepared = engine.prepare(query, shards=4)
        assert signature(prepared.iter()) == reference
        assert not isinstance(prepared.bind(), ShardedPhysical)
        assert "unsupported for strategy" in prepared.logical.explain()


class TestEngineCaching:
    def test_shard_counts_get_distinct_physicals(self, engine):
        p2 = engine.prepare(QUERY, shards=2)
        p4 = engine.prepare(QUERY, shards=4)
        p0 = engine.prepare(QUERY)
        assert p2 is not p4
        phys2, phys4, phys0 = p2.bind(), p4.bind(), p0.bind()
        assert phys2 is not phys4
        assert phys2.shard_count == 2 and phys4.shard_count == 4
        assert getattr(phys0, "shard_count", 0) == 0
        assert engine.stats.sharded_binds == 2

    def test_algorithms_share_one_sharded_bind(self, engine):
        binds_before = engine.stats.binds
        a = engine.prepare(QUERY, shards=3, algorithm="take2")
        b = engine.prepare(QUERY, shards=3, algorithm="recursive")
        assert a.bind() is b.bind()
        assert engine.stats.binds == binds_before + 1

    def test_version_invalidation_rebinds(self, engine):
        prepared = engine.prepare(QUERY, shards=2)
        first = prepared.bind()
        top_before = prepared.top(5)
        engine.database["R1"].add((1, 1), 0.25)
        second = prepared.bind()
        assert second is not first
        top_after = prepared.top(5)
        assert top_after != top_before or True  # rebind happened; values may shift
        assert engine.stats.sharded_binds == 2

    def test_stream_key_includes_shard_spec_regression(self, engine):
        """top(k) on a re-prepared query with different shards= must not
        serve the other configuration's memoized prefix."""
        p2 = engine.prepare(QUERY, shards=2)
        first = p2.top(10)
        misses = engine.stats.stream_misses
        p4 = engine.prepare(QUERY, shards=4)
        second = p4.top(10)
        # A fresh stream was built for the new configuration...
        assert engine.stats.stream_misses == misses + 1
        assert p2.stream_key != p4.stream_key
        assert p2.stream() is not p4.stream()
        # ...and repeated top() on either replays its own memo.
        counter = OpCounter()
        assert p2.top(10, counter=counter) == first
        assert counter.results == 0 and counter.pq_pop == 0
        assert signature(second) == signature(first)

    def test_prefix_stream_memoizes_sharded_runs(self, engine):
        """Overlapping top(k) extends, never replays.

        Member enumerators legitimately run up to ``shards`` results
        ahead of the merged prefix (the merge heap buffers one head per
        fragment), so the counted results bound is ``k + shards``.
        """
        prepared = engine.prepare(QUERY, shards=3)
        counter = OpCounter()
        prepared.top(5, counter=counter)
        assert 5 <= counter.results <= 5 + 3
        extension = OpCounter()
        prepared.top(25, counter=extension)
        assert 20 <= extension.results <= 20 + 3  # answers 6..25 only
        replay = OpCounter()
        prepared.top(25, counter=replay)
        assert replay.results == 0 and replay.pq_pop == 0


class TestMergeCounterAttribution:
    def test_counter_counts_results_once(self, engine):
        prepared = engine.prepare(QUERY, shards=4)
        counter = OpCounter()
        results = list(prepared.bind().iter(counter=counter, algorithm="take2"))
        assert counter.results == len(results)
        assert counter.pq_pop >= len(results)  # merge heap traffic included

    def test_shard_counts_attribution(self, engine):
        prepared = engine.prepare(QUERY, shards=4)
        physical = prepared.bind()
        results = list(physical.iter())
        counts = physical.last_shard_counts()
        assert sum(counts) == len(results)
        assert len(counts) == 4
        stats = physical.shard_stats()
        assert stats["shards"] == 4
        assert stats["last_shard_counts"] == counts


class TestPreprocessorModes:
    # Fresh engine per mode: the engine's caches key on the spec's
    # *result identity* only, so a second prepare with a different
    # build-mode hint would (deliberately) reuse the first bind.

    @pytest.mark.parametrize("mode", ["thread"])
    def test_worker_modes_match_fused_memory(self, mode):
        database = uniform_database(3, 120, seed=21)
        fused = signature(
            Engine(database)
            .prepare(QUERY, shards=4, shard_parallel="fused")
            .iter()
        )
        physical = (
            Engine(database)
            .prepare(QUERY, shards=4, shard_parallel=mode)
            .bind()
        )
        if physical.mode != mode:  # pool unavailable -> graceful fallback
            assert any("fell back" in note or "downgraded" in note
                       for note in physical.notes)
        assert signature(physical.iter()) == fused

    @pytest.mark.parametrize("mode", ["thread"])
    def test_worker_modes_match_fused_sqlite(self, tmp_path, mode):
        backend = SQLiteBackend(str(tmp_path / "modes.db"))
        for relation in uniform_database(3, 120, seed=21):
            backend.ingest(relation)
        database = backend.database()
        fused = signature(
            Engine(database)
            .prepare(QUERY, shards=4, shard_parallel="fused")
            .iter()
        )
        physical = (
            Engine(database)
            .prepare(QUERY, shards=4, shard_parallel=mode)
            .bind()
        )
        if physical.mode != mode:  # pragma: no cover - env-dependent
            assert any("fell back" in note or "downgraded" in note
                       for note in physical.notes)
        assert signature(physical.iter()) == fused
        backend.close()

    def test_parallel_hint_shares_bind_and_stream(self, engine):
        """parallel/workers are build mechanics, not result identity."""
        a = engine.prepare(QUERY, shards=4)
        first = a.top(5)
        binds = engine.stats.binds
        b = engine.prepare(QUERY, shards=4, shard_parallel="thread",
                           shard_workers=2)
        assert b.top(5) == first
        assert engine.stats.binds == binds  # no second preprocessing
        assert a.physical_key == b.physical_key

    def test_fused_mode_reports_one_worker(self, engine):
        """The fused build runs inline: its plan and result say so."""
        prepared = engine.prepare(
            QUERY, shards=4, shard_parallel="fused", shard_workers=3
        )
        physical = prepared.bind()
        assert "mode=fused(1 worker(s))" in prepared.explain()
        assert physical.mode == "fused"
        assert physical.workers == physical.shard_plan.workers == 1


class TestPicklability:
    def test_shard_compiled_round_trips(self, engine):
        physical = engine.prepare(QUERY, shards=2).bind()
        fragment = physical.fragments[0]
        clone = pickle.loads(pickle.dumps(fragment.compiled))
        from repro.anyk.flat import make_flat_enumerator

        original = [
            (r.weight, r.states)
            for r in make_flat_enumerator(fragment.compiled, "recursive")
        ]
        copied = [
            (r.weight, r.states)
            for r in make_flat_enumerator(clone, "recursive")
        ]
        assert original == copied
        assert clone.tdp.dioid is fragment.compiled.tdp.dioid  # singleton

    def test_named_dioids_pickle_to_singletons(self):
        from repro.ranking.dioid import BOOLEAN, MAX_PLUS, MAX_TIMES, TROPICAL

        for dioid in (TROPICAL, MAX_PLUS, MAX_TIMES, BOOLEAN):
            assert pickle.loads(pickle.dumps(dioid)) is dioid


class TestServingIntegration:
    def test_open_cursor_with_shards(self, engine):
        from repro.serve.session import SessionManager

        manager = SessionManager(engine)
        text = "Q(x1,x2,x3,x4) :- R1(x1,x2), R2(x2,x3), R3(x3,x4)"
        _session, plain = manager.open_cursor("s", text)
        _session, sharded = manager.open_cursor("s", text, shards=4)
        a = manager.fetch("s", plain, 15)
        b = manager.fetch("s", sharded, 15)
        assert signature(a.results) == signature(b.results)
        stats = manager.stats()
        cursor_stats = stats["sessions"]["s"]["cursors"]
        assert "shards" not in cursor_stats[plain]
        assert cursor_stats[sharded]["shards"] == 4
        assert stats["engine"]["sharded_binds"] == 1

    def test_star_query_cursor(self, engine):
        prepared = engine.prepare(star_query(3), shards=3)
        cursor = prepared.cursor()
        page = cursor.fetch(10)
        reference = engine.prepare(star_query(3)).top(10)
        assert signature(page) == signature(reference)
