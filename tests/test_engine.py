"""Engine/plan-layer tests: equivalence vs. the legacy entry point,
plan-cache hit/miss behaviour, and invalidation after database mutation."""

import gc
import pickle

import pytest

from repro.data.database import Database
from repro.data.generators import uniform_database, worst_case_cycle_database
from repro.data.relation import Relation
from repro.engine import (
    ACYCLIC_TDP,
    ALL_WEIGHT_PROJECTION,
    FREE_CONNEX_MINWEIGHT,
    GENERIC_DECOMPOSITION,
    SIMPLE_CYCLE_UNION,
    Engine,
    bind,
    plan,
)
from repro.enumeration.api import ranked_enumerate
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_PLUS, MAX_TIMES, TROPICAL


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


# -- planning layer (pure) -----------------------------------------------------


class TestPlanner:
    def test_acyclic_strategy(self):
        logical = plan(path_query(3))
        assert logical.strategy == ACYCLIC_TDP
        assert logical.join_tree is not None

    def test_simple_cycle_strategy(self):
        logical = plan(cycle_query(4))
        assert logical.strategy == SIMPLE_CYCLE_UNION
        assert len(logical.cycle_walk) == 4

    def test_generic_strategy(self):
        q = parse_query(
            "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)"
        )
        assert plan(q).strategy == GENERIC_DECOMPOSITION

    def test_projection_wrapper(self):
        q = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)")
        logical = plan(q)
        assert logical.strategy == ALL_WEIGHT_PROJECTION
        assert logical.inner is not None
        assert logical.inner.strategy == ACYCLIC_TDP
        assert logical.inner.query.is_full()

    def test_min_weight_strategy(self):
        q = parse_query("Q(x1) :- R1(x1, x2)")
        assert plan(q, projection="min_weight").strategy == FREE_CONNEX_MINWEIGHT

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="projection"):
            plan(path_query(2), projection="nope")
        with pytest.raises(ValueError, match="algorithm"):
            plan(path_query(2), algorithm="nope")

    def test_explain_is_database_free(self):
        report = plan(cycle_query(4)).explain()
        assert "simple-cycle-union" in report
        assert "cycle walk" in report
        report = plan(path_query(3)).explain()
        assert "join tree" in report

    def test_physical_explain_has_stats(self):
        db = uniform_database(3, 20, domain_size=3, seed=1)
        physical = bind(plan(path_query(3)), db)
        report = physical.explain()
        assert "preprocessing took" in report
        assert "states" in report


# -- engine equivalence vs. legacy ranked_enumerate ----------------------------


class TestEquivalence:
    @pytest.mark.parametrize("algorithm", ["take2", "lazy", "recursive"])
    def test_acyclic(self, algorithm):
        db = uniform_database(3, 60, domain_size=6, seed=11)
        q = path_query(3)
        legacy = signature(ranked_enumerate(db, q, algorithm=algorithm))
        got = signature(Engine(db).prepare(q, algorithm=algorithm).iter())
        assert got == legacy

    def test_star(self):
        db = uniform_database(3, 50, domain_size=5, seed=12)
        q = star_query(3)
        assert signature(Engine(db).prepare(q).iter()) == signature(
            ranked_enumerate(db, q)
        )

    def test_simple_cycle(self):
        db = worst_case_cycle_database(4, 40, seed=13)
        q = cycle_query(4)
        legacy = signature(ranked_enumerate(db, q))
        got = signature(Engine(db).prepare(q).iter())
        assert got == legacy
        assert len(got) > 0

    def test_generic_decomposition(self):
        rels = [
            Relation(f"R{i}", 2, [(1, 2), (2, 1), (1, 1)], [0.5, 1.5, 2.5])
            for i in (1, 2, 3, 4, 5)
        ]
        db = Database(rels)
        q = parse_query(
            "Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)"
        )
        assert signature(Engine(db).prepare(q).iter()) == signature(
            ranked_enumerate(db, q)
        )

    def test_all_weight_projection(self):
        db = uniform_database(2, 30, domain_size=4, seed=14)
        q = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)")
        assert signature(Engine(db).prepare(q).iter()) == signature(
            ranked_enumerate(db, q)
        )

    def test_min_weight_projection(self):
        db = uniform_database(2, 30, domain_size=4, seed=15)
        q = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)")
        legacy = signature(
            ranked_enumerate(db, q, projection="min_weight")
        )
        got = signature(
            Engine(db).prepare(q, projection="min_weight").iter()
        )
        assert got == legacy

    def test_other_dioid(self):
        db = uniform_database(2, 25, domain_size=3, seed=16)
        q = path_query(2)
        legacy = signature(ranked_enumerate(db, q, dioid=MAX_PLUS))
        assert signature(
            Engine(db).prepare(q, dioid=MAX_PLUS).iter()
        ) == legacy

    def test_query_text_with_constants(self):
        db = uniform_database(2, 30, domain_size=4, seed=17)
        engine = Engine(db)
        prepared = engine.prepare("Q(x1) :- R1(x1, 2)")
        direct = [
            (round(r.weight, 6), r.output_tuple)
            for r in prepared.iter()
        ]
        brute = sorted(
            (round(w, 6), (t[0],))
            for t, w in zip(db["R1"].tuples, db["R1"].weights)
            if t[1] == 2
        )
        assert sorted(direct) == brute

    def test_top_matches_iter_prefix(self):
        db = uniform_database(3, 40, domain_size=5, seed=18)
        prepared = Engine(db).prepare(path_query(3))
        assert signature(prepared.top(7)) == signature(prepared.iter())[:7]

    def test_engine_execute_shortcut(self):
        db = uniform_database(2, 20, domain_size=3, seed=19)
        engine = Engine(db)
        top3 = engine.execute(path_query(2), k=3)
        assert len(top3) == 3
        assert signature(top3) == signature(
            ranked_enumerate(db, path_query(2))
        )[:3]


# -- cache behaviour -----------------------------------------------------------


class TestPlanCache:
    def test_hit_on_equal_query(self):
        db = uniform_database(2, 20, domain_size=3, seed=21)
        engine = Engine(db)
        p1 = engine.prepare(path_query(2))
        p2 = engine.prepare(path_query(2))  # equal but distinct object
        assert p1 is p2
        assert engine.stats.prepare_hits == 1
        assert engine.stats.prepare_misses == 1
        # ``shards`` is accepted and ignored: the cached plan, one more hit.
        assert engine.prepare(path_query(2), shards=4) is p1
        assert engine.stats.prepare_hits == 2

    def test_miss_on_different_options(self):
        db = uniform_database(2, 20, domain_size=3, seed=22)
        engine = Engine(db)
        engine.prepare(path_query(2), algorithm="take2")
        engine.prepare(path_query(2), algorithm="lazy")
        engine.prepare(path_query(2), dioid=MAX_PLUS)
        assert engine.stats.prepare_misses == 3
        assert engine.cached_plans() == 3

    def test_binding_happens_once_per_version(self):
        db = uniform_database(2, 20, domain_size=3, seed=23)
        engine = Engine(db)
        prepared = engine.prepare(path_query(2))
        list(prepared.iter())
        list(prepared.iter())
        prepared.top(5)
        assert engine.stats.binds == 1
        assert prepared.preprocess_seconds is not None

    def test_lru_eviction(self):
        db = uniform_database(4, 10, domain_size=2, seed=24)
        engine = Engine(db, max_cached_plans=2)
        engine.prepare(path_query(2))
        engine.prepare(path_query(3))
        engine.prepare(path_query(4))
        assert engine.cached_plans() == 2
        assert engine.stats.evictions == 1

    def test_fingerprint_is_name_independent(self):
        q1 = path_query(3)
        q2 = parse_query(
            "Renamed(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"
        )
        assert q1.fingerprint() == q2.fingerprint()
        assert q1 == q2
        q3 = star_query(3)
        assert q1.fingerprint() != q3.fingerprint()

    def test_physical_plan_shared_across_algorithms(self):
        db = uniform_database(3, 30, domain_size=4, seed=26)
        engine = Engine(db)
        take2 = engine.prepare(path_query(3), algorithm="take2")
        lazy = engine.prepare(path_query(3), algorithm="lazy")
        assert take2 is not lazy
        r1 = signature(take2.iter())
        r2 = signature(lazy.iter())
        # Only one preprocessing pass: the bound T-DP is shared.
        assert engine.stats.binds == 1
        assert take2.bind() is lazy.bind()
        assert r1 == r2

    def test_images_reused_on_rebind(self, monkeypatch):
        """A cycle's split reads each relation's column image: after one
        relation is mutated, the rebind extends that image and remakes none."""
        made = []
        real_read = Relation._read_image

        def read(self):
            made.append(self.name)
            return real_read(self)

        monkeypatch.setattr(Relation, "_read_image", read)
        db = worst_case_cycle_database(4, 30, seed=25)
        engine = Engine(db)
        prepared = engine.prepare(cycle_query(4))
        first = signature(prepared.iter())
        assert sorted(made) == sorted(db.relations)
        # A cheaper copy of the best answer's R1 tuple: a new best answer.
        best = first[0][1]
        db["R1"].add((best[0], best[1]), -1e6)
        made.clear()
        second = signature(prepared.iter())
        assert engine.stats.binds == 2
        assert made == []
        assert len(db["R1"].arrays) == len(db["R1"])
        assert second[0][1] == best and second[0][0] < first[0][0]
        assert second == signature(Engine(db).prepare(cycle_query(4)).iter())


# -- invalidation after mutation -----------------------------------------------


class TestInvalidation:
    def test_version_bumps(self):
        db = Database([Relation("R", 2, [(1, 2)], [1.0])])
        v0 = db.version
        db["R"].add((2, 3), 2.0)
        v1 = db.version
        assert v1 > v0
        db.add(Relation("S", 2, [(3, 4)], [0.5]))
        v2 = db.version
        assert v2 > v1
        db.remove("S")
        assert db.version > v2
        db.touch()
        assert db.version > v2 + 1

    def test_replacing_relation_is_monotone(self):
        db = Database([Relation("R", 2, [(1, 2)], [1.0])])
        db["R"].add((2, 3), 2.0)
        before = db.version
        db.add(Relation("R", 2, [(9, 9)], [9.0]))  # fresh, version 0
        assert db.version > before

    def test_relation_add_invalidates_plan(self):
        db = Database(
            [
                Relation("R", 2, [(1, 10)], [1.0]),
                Relation("S", 2, [(10, 7)], [2.0]),
            ]
        )
        engine = Engine(db)
        prepared = engine.prepare(parse_query("Q(a,b,c) :- R(a,b), S(b,c)"))
        assert len(list(prepared.iter())) == 1
        db["S"].add((10, 8), 0.5)
        results = signature(prepared.iter())
        assert len(results) == 2
        assert engine.stats.binds == 2
        assert results == signature(
            ranked_enumerate(db, parse_query("Q(a,b,c) :- R(a,b), S(b,c)"))
        )

    def test_database_add_invalidates_plan(self):
        db = uniform_database(2, 15, domain_size=3, seed=31)
        engine = Engine(db)
        prepared = engine.prepare(path_query(2))
        baseline = signature(prepared.iter())
        replacement = Relation("R1", 2, [(1, 1)], [0.0])
        db.add(replacement)
        fresh = signature(prepared.iter())
        assert fresh != baseline
        assert fresh == signature(ranked_enumerate(db, path_query(2)))

    def test_no_rebind_without_mutation(self):
        db = uniform_database(2, 15, domain_size=3, seed=32)
        engine = Engine(db)
        prepared = engine.prepare(path_query(2))
        first = prepared.bind()
        second = prepared.bind()
        assert first is second

    def test_explicit_invalidate(self):
        db = uniform_database(2, 15, domain_size=3, seed=33)
        engine = Engine(db)
        prepared = engine.prepare(path_query(2))
        prepared.bind()
        assert prepared.is_bound
        prepared.invalidate()
        assert not prepared.is_bound
        prepared.bind()
        assert engine.stats.binds == 2

    def test_aliased_rename_mutation_invalidates(self):
        # Database({"E": rel}) stores a rename() copy sharing storage
        # with rel; inserting through the *original* must still be seen.
        rel = Relation("edges", 2, [(1, 2)], [1.0])
        db = Database({"E": rel})
        engine = Engine(db)
        prepared = engine.prepare(parse_query("Q(x,y,z) :- E(x,y), E(y,z)"))
        assert len(list(prepared.iter())) == 0
        rel.add((2, 3), 0.5)  # mutation through the aliased original
        assert len(list(prepared.iter())) == 1
        assert engine.stats.binds == 2

    def test_same_cardinality_replacement_invalidates(self):
        db = Database([Relation("R", 2, [(1, 2)], [1.0])])
        engine = Engine(db)
        prepared = engine.prepare(parse_query("Q(x,y) :- R(x,y)"))
        assert signature(prepared.iter()) == [(1.0, (1, 2))]
        db.add(Relation("R", 2, [(7, 8)], [2.0]))  # same name, same len
        assert signature(prepared.iter()) == [(2.0, (7, 8))]

    def test_selection_refilters_on_mutation(self):
        db = Database(
            [Relation("R", 2, [(1, 2), (2, 2)], [1.0, 2.0])]
        )
        engine = Engine(db)
        prepared = engine.prepare("Q(x) :- R(x, 2)")
        assert len(list(prepared.iter())) == 2
        db["R"].add((3, 2), 0.1)
        assert len(list(prepared.iter())) == 3


# -- plan lifetime ---------------------------------------------------------------


class TestPicklability:
    def test_compiled_core_round_trips(self):
        from repro.anyk.flat import make_flat_enumerator

        engine = Engine(uniform_database(3, 120, seed=21))
        core = engine.prepare(path_query(3)).bind().tdp
        clone = pickle.loads(pickle.dumps(core))
        original = [
            (r.weight, r.states) for r in make_flat_enumerator(core, "recursive")
        ]
        copied = [
            (r.weight, r.states) for r in make_flat_enumerator(clone, "recursive")
        ]
        assert original == copied
        assert clone.dioid is core.dioid  # singleton

    def test_named_dioids_pickle_to_singletons(self):
        from repro.ranking.dioid import BOOLEAN

        for dioid in (TROPICAL, MAX_PLUS, MAX_TIMES, BOOLEAN):
            assert pickle.loads(pickle.dumps(dioid)) is dioid


def _live_cores() -> int:
    from repro.dp.flat import CompiledTDP

    return sum(1 for o in gc.get_objects() if isinstance(o, CompiledTDP))


class TestCoresGoByReferenceCounting:
    """A core refers to nothing that refers back to it, so a plan the LRU
    evicts, or a core nobody holds, is freed at once: the counts below
    are taken with the cycle collector off."""

    @pytest.mark.parametrize(
        "query, dioid",
        [(path_query(4), TROPICAL), (cycle_query(4), MAX_TIMES)],
        ids=["acyclic", "max_times_union"],
    )
    def test_an_evicted_plan_frees_its_cores(self, query, dioid):
        db = uniform_database(4, 200, domain_size=15, seed=41)
        gc.collect()
        gc.disable()
        try:
            before = _live_cores()
            engine = Engine(db, max_cached_plans=1)
            assert engine.prepare(query, dioid=dioid).top(5)
            assert _live_cores() > before
            # Binding another plan evicts the first: only its core is live.
            assert engine.prepare(path_query(3)).top(5)
            assert _live_cores() == before + 1
            engine.close()
        finally:
            gc.enable()

    def test_a_dropped_lowered_core_is_freed(self):
        from repro.anyk.base import make_enumerator
        from repro.dp.lower import lower_query
        from repro.query.jointree import build_join_tree

        db = uniform_database(4, 200, domain_size=15, seed=41)
        gc.collect()
        gc.disable()
        try:
            before = _live_cores()
            core = lower_query(db, build_join_tree(path_query(4)), TROPICAL)
            assert make_enumerator(core, "take2").top(3)
            assert _live_cores() == before + 1
            del core
            assert _live_cores() == before
        finally:
            gc.enable()
