"""Shard conformance: sharded enumeration is bit-identical to unsharded.

The sweep covers all 7 any-k variants x {memory, sqlite} backends x
{1, 2, 4, 7} shard counts, including shard counts that leave fragments
empty, on workloads whose weights are *witness-decoding* (every answer's
weight sum is unique), so the ranked order is unique and the comparison
is exact: same weights, same assignments, same witness ids, same
witness tuples, in the same sequence.

Weight-tie behaviour is covered separately: under the ``canonical``
tie-break the (weight, assignment) sequence must be identical for every
shard count (the Section 6.3 tie-breaking dioid makes the order
partition-independent), and under the default ``arrival`` tie-break the
weight sequence and the per-tie-group answer sets must match the
unsharded run.

A hypothesis sweep drives randomized shapes/sizes/weights through the
same assertions.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.flat import CompiledTDP
from repro.engine import Engine
from repro.query.builders import path_query, star_query
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_PLUS, LexicographicDioid

ALL_VARIANTS = ["take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort"]
SHARD_COUNTS = [1, 2, 4, 7]

#: Weight base making every answer's weight sum decode its witness:
#: tuple i of relation j weighs (i+1) * BASE**j, and with per-relation
#: cardinalities < BASE all sums are distinct and float-exact (< 2^53).
BASE = 64


def decoding_weights(n: int, relation_index: int) -> list[float]:
    assert n < BASE
    scale = float(BASE**relation_index)
    return [(i + 1) * scale for i in range(n)]


def decoding_database(num_relations: int, n: int, domain: int, seed: int) -> Database:
    rng = random.Random(seed)
    relations = []
    for j in range(num_relations):
        tuples = [
            (rng.randint(1, domain), rng.randint(1, domain)) for _ in range(n)
        ]
        relations.append(
            Relation(f"R{j + 1}", 2, tuples, decoding_weights(n, j))
        )
    return Database(relations)


def signature(results) -> list[tuple]:
    return [
        (
            result.weight,
            tuple(sorted(result.assignment.items())),
            result.witness_ids,
            result.witness,
        )
        for result in results
    ]


def run(engine: Engine, query, algorithm: str, k: int | None = None, **prepare_kwargs):
    prepared = engine.prepare(query, algorithm=algorithm, **prepare_kwargs)
    iterator = prepared.iter()
    if k is not None:
        iterator = itertools.islice(iterator, k)
    return signature(iterator)


def open_database(database: Database, backend: str, tmp_path, tag: str) -> Database:
    if backend == "memory":
        return database
    sqlite = SQLiteBackend(str(tmp_path / f"{tag}.db"))
    for relation in database:
        sqlite.ingest(relation)
    return sqlite.database()


class TestExactConformanceSweep:
    """7 variants x 2 backends x {1,2,4,7} shards, bit-exact."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_path_query_all_shard_counts(self, tmp_path, backend, variant):
        database = open_database(
            decoding_database(3, 40, domain=7, seed=5), backend, tmp_path, variant
        )
        engine = Engine(database)
        query = path_query(3)
        reference = run(engine, query, variant)
        assert reference, "workload must produce answers"
        for shards in SHARD_COUNTS:
            sharded = run(engine, query, variant, shards=shards)
            assert sharded == reference, (
                f"{variant} over {backend} diverged at shards={shards}"
            )

    @pytest.mark.parametrize("variant", ["take2", "recursive", "batch"])
    def test_star_query_all_shard_counts(self, tmp_path, variant):
        database = decoding_database(3, 30, domain=5, seed=11)
        engine = Engine(database)
        query = star_query(3)
        reference = run(engine, query, variant)
        assert reference
        for shards in SHARD_COUNTS:
            assert run(engine, query, variant, shards=shards) == reference

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_max_plus_dioid(self, shards):
        database = decoding_database(3, 25, domain=5, seed=23)
        engine = Engine(database)
        query = path_query(3)
        reference = run(engine, query, "take2", dioid=MAX_PLUS)
        assert reference
        assert (
            run(engine, query, "take2", dioid=MAX_PLUS, shards=shards)
            == reference
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_generic_dioid_object_path(self, shards):
        """Dioids without a lane shard through the object builder."""
        database = decoding_database(3, 20, domain=5, seed=31)
        # One-dimensional lexicographic vectors: the decoding sums, boxed.
        for relation in database:
            relation.weights = [(w,) for w in relation.weights]
        dioid = LexicographicDioid(1)
        engine = Engine(database)
        query = path_query(3)
        reference = run(engine, query, "take2", dioid=dioid)
        assert reference
        sharded = run(engine, query, "take2", dioid=dioid, shards=shards)
        prepared = engine.prepare(query, dioid=dioid, shards=shards)
        assert not isinstance(prepared.bind().fragments[0].tdp, CompiledTDP)
        assert sharded == reference

    @pytest.mark.parametrize("shards", [2, 4])
    def test_projection_query(self, shards):
        database = decoding_database(3, 30, domain=6, seed=41)
        engine = Engine(database)
        query = parse_query("Q(x1, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)")
        reference = run(engine, query, "take2")
        assert reference
        assert run(engine, query, "take2", shards=shards) == reference

    def test_self_join_anchor(self):
        """Per-stage restriction keeps self-joins shardable (arrival mode).

        One weight vector serves both atoms, so symmetric witness pairs
        tie by construction (``w_i + w_j == w_j + w_i``) — the exact
        comparison relaxes to weight sequence + answer multiset.
        """
        rng = random.Random(3)
        edges = [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(35)]
        database = Database(
            [Relation("E", 2, edges, decoding_weights(35, 0))]
        )
        engine = Engine(database)
        query = parse_query("Q(x, y, z) :- E(x, y), E(y, z)")
        reference = run(engine, query, "take2")
        assert reference
        for shards in (2, 4):
            sharded = run(engine, query, "take2", shards=shards)
            assert [r[0] for r in sharded] == [r[0] for r in reference]
            assert sorted(sharded) == sorted(reference)


class TestEmptyAndEdgeFragments:
    def test_more_shards_than_rows(self):
        database = decoding_database(2, 5, domain=3, seed=7)
        engine = Engine(database)
        query = path_query(2)
        reference = run(engine, query, "take2")
        prepared = engine.prepare(query, shards=7)
        assert signature(prepared.iter()) == reference
        physical = prepared.bind()
        assert physical.shard_count == 7
        assert physical.shard_stats()["empty_fragments"] >= 2

    def test_fragment_with_all_dead_rows(self):
        """A fragment whose anchor rows all fail to join is empty."""
        r1 = Relation(
            "R1", 2,
            [(1, 1), (2, 1), (3, 99), (4, 99)],   # last two never join
            [1.0, 2.0, 3.0, 4.0],
        )
        r2 = Relation("R2", 2, [(1, 5)], [10.0])
        engine = Engine(Database([r1, r2]))
        query = path_query(2)
        reference = run(engine, query, "take2")
        assert len(reference) == 2
        prepared = engine.prepare(query, shards=2)
        assert signature(prepared.iter()) == reference
        stats = prepared.bind().shard_stats()
        assert stats["empty_fragments"] == 1
        assert stats["fragment_states"] == [2, 0]

    def test_globally_empty_output(self):
        r1 = Relation("R1", 2, [(1, 1)], [1.0])
        r2 = Relation("R2", 2, [(9, 9)], [1.0])
        engine = Engine(Database([r1, r2]))
        for shards in (1, 3):
            prepared = engine.prepare(path_query(2), shards=shards)
            assert list(prepared.iter()) == []

    def test_empty_anchor_relation(self):
        r1 = Relation("R1", 2)
        r2 = Relation("R2", 2, [(1, 2)], [1.0])
        engine = Engine(Database([r1, r2]))
        prepared = engine.prepare(path_query(2), shards=3)
        assert list(prepared.iter()) == []


class TestTieBehaviour:
    def _tie_database(self, seed: int = 5) -> Database:
        rng = random.Random(seed)
        return Database(
            [
                Relation(
                    f"R{j}", 2,
                    [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(30)],
                    [float(rng.randint(0, 2)) for _ in range(30)],
                )
                for j in (1, 2, 3)
            ]
        )

    @pytest.mark.parametrize("variant", ["take2", "recursive", "eager"])
    def test_canonical_order_is_shard_count_independent(self, variant):
        """The canonical (weight, assignment) sequence never depends on N."""
        engine = Engine(self._tie_database())
        query = path_query(3)
        sequences = {}
        witness_multisets = {}
        for shards in SHARD_COUNTS:
            results = list(
                engine.prepare(
                    query, algorithm=variant, shards=shards,
                    shard_tie_break="canonical",
                ).iter()
            )
            sequences[shards] = [
                (r.weight, tuple(sorted(r.assignment.items()))) for r in results
            ]
            witness_multisets[shards] = sorted(
                (r.weight, r.witness_ids) for r in results
            )
        for shards in SHARD_COUNTS[1:]:
            assert sequences[shards] == sequences[1]
            assert witness_multisets[shards] == witness_multisets[1]

    def test_canonical_matches_legacy_weights_and_answers(self):
        engine = Engine(self._tie_database())
        query = path_query(3)
        legacy = list(engine.prepare(query).iter())
        canonical = list(
            engine.prepare(query, shards=4, shard_tie_break="canonical").iter()
        )
        assert [r.weight for r in canonical] == [r.weight for r in legacy]
        assert sorted(
            (r.weight, tuple(sorted(r.assignment.items()))) for r in canonical
        ) == sorted(
            (r.weight, tuple(sorted(r.assignment.items()))) for r in legacy
        )

    def test_arrival_mode_tie_groups_match(self):
        """Arrival mode: same weight sequence, same per-tie-group answers."""
        engine = Engine(self._tie_database(seed=13))
        query = path_query(3)
        legacy = list(engine.prepare(query).iter())
        sharded = list(engine.prepare(query, shards=3).iter())
        assert [r.weight for r in sharded] == [r.weight for r in legacy]
        assert sorted(signature(sharded)) == sorted(signature(legacy))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    shape=st.sampled_from(["path", "star"]),
    size=st.integers(2, 3),
    n=st.integers(1, 45),
    domain=st.integers(2, 8),
    shards=st.sampled_from([2, 3, 5]),
    variant=st.sampled_from(["take2", "recursive", "batch"]),
)
def test_hypothesis_sharded_equals_unsharded(
    seed, shape, size, n, domain, shards, variant
):
    """Randomized sweep: exact equality under witness-decoding weights."""
    rng = random.Random(seed)
    relations = []
    for j in range(size):
        tuples = [
            (rng.randint(1, domain), rng.randint(1, domain)) for _ in range(n)
        ]
        relations.append(Relation(f"R{j + 1}", 2, tuples, decoding_weights(n, j)))
    database = Database(relations)
    query = path_query(size) if shape == "path" else star_query(size)
    engine = Engine(database)
    reference = run(engine, query, variant)
    assert run(engine, query, variant, shards=shards) == reference


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 30),
    domain=st.integers(2, 5),
    weight_levels=st.integers(1, 3),
    shards=st.sampled_from([2, 4]),
)
def test_hypothesis_ties_canonical_independent(
    seed, n, domain, weight_levels, shards
):
    """Randomized tie-heavy data: canonical order independent of N."""
    rng = random.Random(seed)
    relations = [
        Relation(
            f"R{j}", 2,
            [(rng.randint(1, domain), rng.randint(1, domain)) for _ in range(n)],
            [float(rng.randint(0, weight_levels)) for _ in range(n)],
        )
        for j in (1, 2)
    ]
    engine = Engine(Database(relations))
    query = path_query(2)

    def canonical_sequence(num_shards: int):
        return [
            (r.weight, tuple(sorted(r.assignment.items())))
            for r in engine.prepare(
                query, shards=num_shards, shard_tie_break="canonical"
            ).iter()
        ]

    assert canonical_sequence(shards) == canonical_sequence(1)
