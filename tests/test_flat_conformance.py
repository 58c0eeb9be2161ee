"""Differential conformance: compiled flat core vs. object-graph path.

The flat enumeration core (:mod:`repro.dp.flat` + :mod:`repro.anyk.flat`)
claims *bit-identical* ranked output to the object-graph enumerators —
same weights, same keys, same state vectors, same tie-breaking — for
every any-k variant, because every float operation it performs is the
exact ``key``-image of the corresponding ``times`` call and every heap
ordering decision is replicated.  This suite pins that claim:

* all 7 variants, flat (``flat=None`` auto) vs. forced object path
  (``flat=False``), on tropical and max-plus (both compile) and on the
  lexicographic dioid (no lane — must transparently fall
  back to the object path and still agree);
* a counted and an uncounted run produce the same stream (they are the
  same loop), op-counts match the object path exactly — also after a
  prefix, however it was pulled, and through the engine's stream;
* both storage backends (memory and SQLite) through the engine;
* a hypothesis sweep over random weighted databases.
"""

import copy
import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anyk.base import make_enumerator
from repro.anyk.flat import FlatAnyKPart, FlatRecursive
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.generators import uniform_database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp_for_query
from repro.dp.flat import CompiledTDP, compile_tdp
from repro.engine import Engine
from repro.query.builders import path_query, star_query
from repro.query.parser import parse_query
from repro.ranking.dioid import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    TROPICAL,
    LexicographicDioid,
    SelectiveDioid,
    lane_of,
)
from repro.util.counters import OpCounter

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
FAST_DIOIDS = [TROPICAL, MAX_PLUS]


def signature(results):
    """Exact stream fingerprint: weight, key, and state vector."""
    return [(r.weight, r.key, r.states) for r in results]


#: Ways to take ``k`` answers off one enumerator run.
PULLS = {
    "islice": lambda enum, k: list(itertools.islice(enum, k)),
    "next": lambda enum, k: [next(enum) for _ in range(k)],
    "step": lambda enum, k: enum.step(5) + enum.step(k - 5),
    "top": lambda enum, k: enum.top(k),
}


def build(shape: str, size: int, n: int, dioid, seed: int = 7):
    db = uniform_database(size, n, domain_size=max(2, n // 5), seed=seed)
    query = path_query(size) if shape == "path" else star_query(size)
    return build_tdp_for_query(db, query, dioid=dioid)


class TestFlatBitIdentical:
    @pytest.mark.parametrize("algorithm", ALL_VARIANTS)
    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_all_variants_tropical(self, algorithm, shape):
        tdp = build(shape, 4, 120, TROPICAL)
        reference = signature(make_enumerator(tdp, algorithm, flat=False))
        assert reference, "workload must not be empty"
        assert signature(make_enumerator(tdp, algorithm)) == reference

    @pytest.mark.parametrize("algorithm", ALL_VARIANTS)
    def test_all_variants_max_plus(self, algorithm):
        tdp = build("path", 3, 90, MAX_PLUS)
        reference = signature(make_enumerator(tdp, algorithm, flat=False))
        assert signature(make_enumerator(tdp, algorithm)) == reference

    @pytest.mark.parametrize("algorithm", ALL_VARIANTS)
    @pytest.mark.parametrize("shape", ["path", "star"])
    @pytest.mark.parametrize("dioid", FAST_DIOIDS, ids=["tropical", "max-plus"])
    def test_counting_variant_matches_and_counts_agree(
        self, algorithm, shape, dioid
    ):
        tdp = build(shape, 4, 60, dioid)
        flat_counter, object_counter = OpCounter(), OpCounter()
        flat = signature(make_enumerator(tdp, algorithm, counter=flat_counter))
        reference = signature(
            make_enumerator(tdp, algorithm, counter=object_counter, flat=False)
        )
        assert flat == reference
        assert flat_counter.as_dict() == object_counter.as_dict()
        # One loop per kernel: the counter-free run is the same run.
        assert signature(make_enumerator(tdp, algorithm)) == reference

    @pytest.mark.parametrize("pull", sorted(PULLS))
    @pytest.mark.parametrize("algorithm", ALL_VARIANTS)
    @pytest.mark.parametrize("shape", ["path", "star"])
    def test_prefix_counts_agree_however_pulled(self, algorithm, shape, pull):
        """After k answers the counter holds k answers' operations —
        not a batch's worth — whichever way the k were pulled."""
        k = 37
        tdp = build(shape, 4, 60, TROPICAL)
        object_counter, flat_counter = OpCounter(), OpCounter()
        reference = signature(itertools.islice(
            make_enumerator(tdp, algorithm, counter=object_counter, flat=False), k
        ))
        enum = make_enumerator(tdp, algorithm, counter=flat_counter)
        assert signature(PULLS[pull](enum, k)) == reference
        assert flat_counter.as_dict() == object_counter.as_dict()

    @pytest.mark.parametrize("algorithm", ["take2", "eager"])
    @pytest.mark.parametrize("shape", ["path", "star"])
    @pytest.mark.parametrize("dioid", FAST_DIOIDS, ids=["tropical", "max-plus"])
    def test_counts_agree_through_the_stream(self, algorithm, shape, dioid):
        """``prepared.top(k, counter)`` — direct lowering, compiled
        kernel, ``PrefixStream`` batch pull — spends what the
        object-graph enumerator spends on the same k answers."""
        db = uniform_database(4, 60, domain_size=12, seed=7)
        query = path_query(4) if shape == "path" else star_query(4)
        object_counter = OpCounter()
        reference = list(itertools.islice(
            make_enumerator(
                build_tdp_for_query(db, query, dioid=dioid), algorithm,
                counter=object_counter, flat=False,
            ),
            50,
        ))
        prepared = Engine(db).prepare(query, dioid=dioid, algorithm=algorithm)
        first, rest = OpCounter(), OpCounter()
        prepared.top(7, counter=first)
        answers = prepared.top(50, counter=rest)
        assert [a.weight for a in answers] == [r.weight for r in reference]
        assert [a.witness_ids for a in answers] == [
            r.witness_ids for r in reference
        ]
        spent = {
            op: getattr(first, op) + getattr(rest, op)
            for op in OpCounter.__slots__
        }
        assert spent == object_counter.as_dict()

    def test_interleaved_step_top_iter(self):
        tdp = build("path", 4, 60, TROPICAL)
        reference = signature(make_enumerator(tdp, "take2", flat=False))
        enum = make_enumerator(tdp, "take2")
        got = signature(enum.step(7)) + signature(enum.top(5))
        got += signature(enum)
        assert got == reference
        assert enum.exhausted


class TestGenericDioidFallback:
    """Dioids without a lane keep the object path, transparently."""

    def _lex_tdp(self, algorithm_seed: int = 0):
        dioid = LexicographicDioid(2)
        rng = random.Random(31 + algorithm_seed)
        rows_r = [((i, rng.randrange(6)), dioid.unit_vector(0, rng.random()))
                  for i in range(30)]
        rows_s = [((i % 6, rng.randrange(5)), dioid.unit_vector(1, rng.random()))
                  for i in range(30)]
        db = Database([
            Relation("R", 2, [v for v, _ in rows_r], [w for _, w in rows_r]),
            Relation("S", 2, [v for v, _ in rows_s], [w for _, w in rows_s]),
        ])
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        return build_tdp_for_query(db, query, dioid=dioid), dioid

    @pytest.mark.parametrize("algorithm", ALL_VARIANTS)
    def test_lexicographic_identical_through_fallback(self, algorithm):
        tdp, _dioid = self._lex_tdp()
        reference = signature(make_enumerator(tdp, algorithm, flat=False))
        assert reference
        # flat=None auto-falls back: identical stream, object enumerator.
        auto = make_enumerator(tdp, algorithm)
        assert not isinstance(auto, (FlatAnyKPart, FlatRecursive))
        assert signature(auto) == reference

    def test_compile_refuses_generic_dioid(self):
        tdp, _dioid = self._lex_tdp()
        assert compile_tdp(tdp) is None
        assert compile_tdp(tdp) is None  # memoized negative answer
        with pytest.raises(ValueError, match="declares no float lane"):
            make_enumerator(tdp, "take2", flat=True)

    def test_flat_forced_on_supported_dioid(self):
        tdp = build("path", 3, 40, TROPICAL)
        enum = make_enumerator(tdp, "take2", flat=True)
        assert isinstance(enum, FlatAnyKPart)


class TestLaneContract:
    """``lane_of`` is the one question the lowering asks about a dioid."""

    LANES = [(TROPICAL, False, False), (MAX_PLUS, False, True), (MAX_TIMES, True, True)]

    def test_lane_declarations(self):
        for dioid, multiply, negate in self.LANES:
            lane, why = lane_of(dioid)
            assert (lane.multiply, lane.negate, why) == (multiply, negate, "")

    def test_lane_is_times_and_key(self):
        rng = random.Random(5)
        for dioid, multiply, negate in self.LANES:
            for _ in range(50):
                a, b = rng.random() * 10, rng.random() * 10
                assert dioid.times(a, b) == (a * b if multiply else a + b)
                assert dioid.key(a) == (-a if negate else a)

    def test_inverse_is_has_inverse(self):
        """The sibling rule a core runs is the dioid's own ``has_inverse``."""
        assert [dioid.has_inverse for dioid, _m, _n in self.LANES] == [True, True, False]
        for dioid, _multiply, _negate in self.LANES:
            compiled = compile_tdp(build("path", 3, 30, dioid))
            assert compiled.inverse == dioid.has_inverse
            assert compiled.lane is lane_of(dioid)[0]

    def test_generic_dioids_have_no_lane(self):
        assert lane_of(LexicographicDioid(2)) == (
            None, "LexicographicDioid(2) declares no float lane"
        )
        assert lane_of(BOOLEAN)[0] is None
        assert SelectiveDioid.float_lane is None


class TestCompiledStructure:
    def test_compile_memoized_and_shared(self):
        tdp = build("path", 3, 40, TROPICAL)
        compiled = compile_tdp(tdp)
        assert isinstance(compiled, CompiledTDP)
        assert compile_tdp(tdp) is compiled
        # Shared by enumerators of different algorithms.
        e1 = make_enumerator(tdp, "take2")
        e2 = make_enumerator(tdp, "recursive")
        assert e1.compiled is compiled and e2.compiled is compiled

    def test_layout_matches_tdp(self):
        tdp = build("star", 4, 50, TROPICAL)
        compiled = compile_tdp(tdp)
        assert compiled.num_stages == tdp.num_stages
        assert not compiled.is_chain  # star is not a chain
        stats = compiled.stats()
        assert stats["states"] == tdp.num_states()
        total_entries = sum(
            len(compiled.pairs(uid)) for uid in range(compiled.num_connectors)
        )
        assert stats["entries"] == total_entries
        # CSR slices reproduce the ChoiceSet entry pairs, in order.
        conn = tdp.connector_for(0, None)
        assert compiled.pairs(conn.uid) == [
            (entry[0], entry[1]) for entry in conn.entries
        ]

    def test_chain_flag_on_paths(self):
        tdp = build("path", 4, 30, TROPICAL)
        assert compile_tdp(tdp).is_chain

    def test_empty_output(self):
        db = Database([
            Relation("R", 2, [(1, 2)], [1.0]),
            Relation("S", 2, [(99, 100)], [1.0]),
        ])
        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        tdp = build_tdp_for_query(db, query)
        for algorithm in ALL_VARIANTS:
            assert list(make_enumerator(tdp, algorithm)) == []

    def test_shared_static_structures_are_not_mutated(self):
        tdp = build("path", 3, 60, TROPICAL)
        compiled = compile_tdp(tdp)
        first = signature(make_enumerator(tdp, "take2"))
        uid = compiled.root_uid[0]
        heap_snapshot = copy.deepcopy(compiled.take2_heap(uid))
        sorted_snapshot = copy.deepcopy(compiled.sorted_order(uid))
        signature(make_enumerator(tdp, "take2"))
        signature(make_enumerator(tdp, "eager"))
        assert compiled.take2_heap(uid) == heap_snapshot
        assert compiled.sorted_order(uid) == sorted_snapshot
        assert signature(make_enumerator(tdp, "take2")) == first


class TestEngineBackends:
    """Flat vs. object parity holds through the engine on both backends."""

    QUERY = "Q(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"

    def _database(self):
        return uniform_database(2, 80, domain_size=12, seed=19)

    def _engine_prefix(self, database, algorithm, k=60):
        engine = Engine(database)
        prepared = engine.prepare(self.QUERY, algorithm=algorithm)
        return [
            (r.weight, r.output_tuple)
            for r in itertools.islice(prepared.iter(), k)
        ]

    @pytest.mark.parametrize("algorithm", ["take2", "recursive", "lazy"])
    def test_memory_vs_sqlite_on_flat_core(self, algorithm, tmp_path):
        memory = self._database()
        backend = SQLiteBackend(str(tmp_path / f"{algorithm}.db"))
        for relation in memory:
            backend.ingest(relation)
        reference = self._engine_prefix(memory, algorithm)
        assert reference
        assert self._engine_prefix(backend.database(), algorithm) == reference

    def test_engine_compiles_at_bind(self):
        engine = Engine(self._database())
        prepared = engine.prepare(self.QUERY, algorithm="take2")
        physical = prepared.bind()
        assert isinstance(physical.tdp, CompiledTDP)
        with pytest.raises(ValueError, match="no object graph"):
            make_enumerator(physical.tdp, "take2", flat=False)
        # Sibling algorithm shares the same physical plan and core.
        sibling = engine.prepare(self.QUERY, algorithm="recursive")
        assert sibling.bind().tdp is physical.tdp

    def test_prefix_stream_uses_counting_variant(self):
        engine = Engine(self._database())
        prepared = engine.prepare(self.QUERY, algorithm="take2")
        counter = OpCounter()
        top = prepared.top(10, counter=counter)
        assert len(top) == 10
        assert counter.pq_pop > 0  # compiled counting loop attributed ops


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    algorithm=st.sampled_from(["take2", "recursive", "lazy", "eager", "all"]),
)
def test_hypothesis_flat_matches_object(seed, algorithm):
    rng = random.Random(seed)
    size = rng.choice([2, 3])
    n = rng.randint(10, 40)
    db = uniform_database(
        size, n, domain_size=rng.randint(2, 8), seed=seed
    )
    query = path_query(size) if rng.random() < 0.5 else star_query(size)
    tdp = build_tdp_for_query(db, query, dioid=rng.choice(FAST_DIOIDS))
    assert signature(make_enumerator(tdp, algorithm)) == signature(
        make_enumerator(tdp, algorithm, flat=False)
    )


class TestDirectLoweringMatchesObjectLowering:
    """``lower_query`` emits the columns ``compile_tdp(build_tdp())`` emits.

    Column by column, not just output by output: same state arrays, same
    connector numbering, same entry pairs in the same (unsorted) order —
    so every tie-break the enumerators derive from pool order agrees.
    The object builder numbers join-key groups no parent references but
    only lowers the reachable ones; those uids are skipped here.
    """

    #: shape -> (query, relation count, rows per domain value)
    QUERIES = {
        "path4": (path_query(4), 4, 5),
        "star4": (star_query(4), 4, 5),
        "cartesian": (
            parse_query("Q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(d, e)"), 3, 5
        ),
        "selfjoin_repeat": (
            parse_query("Q(x, y, z) :- R1(x, y), R1(y, z), R1(z, z)"), 1, 20
        ),
    }

    @pytest.mark.parametrize("n", [60, 700])
    @pytest.mark.parametrize("dioid", FAST_DIOIDS, ids=["tropical", "max-plus"])
    @pytest.mark.parametrize("shape", list(QUERIES))
    def test_columns_identical(self, shape, dioid, n):
        from repro.dp.lower import lower_query
        from repro.query.jointree import build_join_tree

        query, relations, density = self.QUERIES[shape]
        db = uniform_database(
            relations, n, domain_size=max(2, n // density), seed=3
        )
        tree = build_join_tree(query)
        direct = lower_query(db, tree, dioid)
        tdp = build_tdp_for_query(db, query, dioid=dioid)
        reference = compile_tdp(tdp)

        assert not reference.empty
        assert direct.empty == reference.empty
        assert direct.best_key == reference.best_key
        assert direct.root_uid == reference.root_uid
        assert direct.num_connectors == reference.num_connectors
        assert direct.val_base == reference.val_base
        # The other per-state columns are typed arrays of the same numbers.
        for name, typecode in (
            ("pi1", "d"), ("child_uids", "q"), ("conn_of", "q"), ("tuple_ids", "q")
        ):
            assert getattr(direct, name) == [
                None if column is None else array(typecode, column)
                for column in getattr(reference, name)
            ], name
        # Rows are read from each stage's row store at the tuple id.
        assert [
            [rows[i] for i in ids] for rows, ids in zip(direct.tuples, direct.tuple_ids)
        ] == tdp.tuples
        assert [list(v) for v in direct.val_base] == tdp.values
        assert direct.best[0] == tdp.best_weight
        for uid, stage in enumerate(reference.conn_stage):
            if stage >= 0:
                assert direct.conn_stage[uid] == stage
                assert direct.pairs(uid) == reference.pairs(uid)
                assert direct.conn_size(uid) == reference.conn_size(uid)


class TestBatchOverThePool:
    """``FlatBatch`` over a lowered core — the numpy expansion, its only
    one — against the object path's :class:`~repro.anyk.batch.Batch`
    over ``build_tdp``: answer by answer in ``repr``, and the same
    ``OpCounter``."""

    @staticmethod
    def assert_batch_is_the_object_batch(core, tdp, sort: bool) -> int:
        from repro.anyk.batch import Batch
        from repro.anyk.flat import FlatBatch

        flat_counter, object_counter = OpCounter(), OpCounter()
        flat = [
            repr((r.weight, r.key, r.states))
            for r in FlatBatch(core, sort=sort, counter=flat_counter)
        ]
        objects = [
            repr((r.weight, r.key, r.states))
            for r in Batch(tdp, sort=sort, counter=object_counter)
        ]
        assert flat == objects
        assert flat_counter.as_dict() == object_counter.as_dict()
        assert flat_counter.intermediate_tuples > flat_counter.results == len(flat)
        return len(flat)

    @pytest.mark.parametrize("algorithm", ["batch", "batch_nosort"])
    @pytest.mark.parametrize(
        "dioid", [TROPICAL, MAX_PLUS, MAX_TIMES],
        ids=["tropical", "max-plus", "max-times"],
    )
    @pytest.mark.parametrize("shape", ["path4", "star4"])
    def test_flat_batch_is_the_object_batch(self, shape, dioid, algorithm):
        from repro.dp.lower import lower_query
        from repro.query.jointree import build_join_tree

        query = path_query(4) if shape == "path4" else star_query(4)
        db = uniform_database(4, 60, domain_size=12, seed=5)
        core = lower_query(db, build_join_tree(query), dioid)
        tdp = build_tdp_for_query(db, query, dioid=dioid)
        answers = self.assert_batch_is_the_object_batch(
            core, tdp, sort=algorithm == "batch"
        )
        assert answers > 1000

    @pytest.mark.parametrize("algorithm", ["batch", "batch_nosort"])
    @pytest.mark.parametrize("palette", ["floats", "ties"])
    @pytest.mark.parametrize("member", ["heavy_fan", "light_chain", "cycle6"])
    def test_a_tie_broken_member_batches_as_the_object_batch(
        self, member, palette, algorithm
    ):
        """A union member's core carries packed ranks: the expansion sums
        them as the object path's tie-breaking ``times`` does."""
        from repro.dp.flat import LaneCore
        from tests.test_lane_conformance import member_pair

        core, tdp = member_pair(member, palette, "max_times", "columns")
        assert isinstance(core, LaneCore) and core.val_rank is not None
        answers = self.assert_batch_is_the_object_batch(
            core, tdp, sort=algorithm == "batch"
        )
        assert answers > 10


@pytest.mark.parametrize("variant", ["take2", "lazy", "eager", "all"])
def test_an_all_zero_max_plus_sibling_differs_from_the_object_path_in_sign_only(
    variant,
):
    """Pinned, not fixed (ROADMAP item 6(d)).  The inverse kernels derive
    a sibling's key as ``total − entry + succ`` in key space, where the
    object path's ``divide`` works in value space: over an all-zero
    max-plus 2-path every sibling weighs ``-0.0`` flat and ``0.0`` on the
    object path.  Order, states and values agree; only the sign bit
    differs.  A fix moves the golden digests, so it needs its own
    recapture first."""
    database = Database([
        Relation("R1", 2, [(1, 1), (2, 1), (3, 1)], [0.0] * 3),
        Relation("R2", 2, [(1, 5), (1, 6)], [0.0] * 2),
    ])
    tdp = build_tdp_for_query(database, path_query(2), dioid=MAX_PLUS)
    objects = list(make_enumerator(tdp, variant, flat=False))
    flat = list(make_enumerator(tdp, variant))
    assert [r.states for r in flat] == [r.states for r in objects]
    assert [r.weight for r in flat] == [r.weight for r in objects] == [0.0] * 6
    assert [r.weight.hex() for r in objects] == ["0x0.0p+0"] * 6
    assert [r.weight.hex() for r in flat] == ["0x0.0p+0"] + ["-0x0.0p+0"] * 5


@pytest.mark.parametrize("entries", [40, 100])
def test_eager_orders_nan_keys_as_the_object_path(entries):
    """A connector of 64 entries or more sorts through ``lexsort``, which
    puts a NaN key last where ``sorted`` leaves it where it meets it: a
    connector with a NaN key keeps ``sorted``, on either side of 64."""
    import math

    rng = random.Random(entries)
    database = Database([
        Relation("R1", 2, [(0, 1)], [0.0]),
        Relation(
            "R2", 2, [(1, c) for c in range(entries)],
            [rng.choice([math.nan, 0.5, 1.0, 2.0]) for _ in range(entries)],
        ),
    ])
    tdp = build_tdp_for_query(database, path_query(2))
    flat = make_enumerator(compile_tdp(tdp), "eager")
    objects = make_enumerator(tdp, "eager", flat=False)
    assert [(repr(r.weight), r.states) for r in flat] == [
        (repr(r.weight), r.states) for r in objects
    ]
