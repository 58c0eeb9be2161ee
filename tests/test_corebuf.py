"""Zero-copy compiled cores: persistence, vector kernels.

Covers the ``repro.dp.corebuf`` subsystem end to end:

* warm-start differential — a plan loaded from a ``.core`` file is
  bit-identical (weights, assignments, witness ids, witness tuples, in
  sequence) to a cold rebuild, for all 7 any-k variants x two
  persistable dioids x {unsharded, 1 shard, 4 shards};
* staleness — mutating a relation invalidates the entry, the rebuild
  rewrites it, and the rewritten entry hits again;
* resource hygiene — ``Engine.close()`` releases the core file's mmap;
* numpy independence — the vectorized kernels are gated behind
  ``repro.util.vec`` and the pure-``array`` fallback produces identical
  output (also for mmap-loaded cores);
* robustness — a corrupt ``.core`` file is treated as a miss, never an
  error; in-memory backends simply run without persistence.
"""

import itertools
import os
import random

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.corebuf import CoreCache, core_key, dioid_core_name
from repro.engine import Engine
from repro.query.builders import path_query
from repro.ranking.dioid import (
    MAX_PLUS,
    MAX_TIMES,
    NAMED_DIOIDS,
    TROPICAL,
    TieBreakingDioid,
)
from repro.util import vec

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
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


def sqlite_database(tmp_path, tag: str, seed: int = 5) -> str:
    path = str(tmp_path / f"{tag}.db")
    backend = SQLiteBackend(path)
    for relation in decoding_database(4, 40, domain=7, seed=seed):
        backend.ingest(relation)
    backend.close()
    return path


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


def run(engine: Engine, query, algorithm: str, k: int | None = 200, **kwargs):
    prepared = engine.prepare(query, algorithm=algorithm, **kwargs)
    iterator = prepared.iter()
    if k is not None:
        iterator = itertools.islice(iterator, k)
    return signature(iterator)


def core_stats(engine: Engine) -> dict:
    return {
        k: v for k, v in engine.stats.as_dict().items() if k.startswith("core")
    }


class TestWarmStartDifferential:
    """mmap-loaded cores are bit-identical to a cold rebuild."""

    @pytest.mark.parametrize("dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"])
    @pytest.mark.parametrize("shards", [None, 1, 4])
    def test_all_variants_bit_identical(self, tmp_path, dioid, shards):
        path = sqlite_database(tmp_path, "diff")
        query = path_query(4)
        cold = {}
        with Engine.from_backend(SQLiteBackend(path), core_cache="off") as engine:
            for variant in ALL_VARIANTS:
                cold[variant] = run(
                    engine, query, variant, dioid=dioid, shards=shards
                )
                assert cold[variant], "workload must produce answers"
        # Cold bind with persistence on: writes the entry.
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(query, dioid=dioid, shards=shards).bind()
            stats = core_stats(engine)
            assert stats["core_writes"] == 1 and stats["core_hits"] == 0
        # Fresh process-equivalent: a new backend + engine, warm bind.
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            for variant in ALL_VARIANTS:
                warm = run(engine, query, variant, dioid=dioid, shards=shards)
                assert warm == cold[variant], (
                    f"{variant} warm start diverged "
                    f"(dioid={dioid!r}, shards={shards})"
                )
            stats = core_stats(engine)
            assert stats["core_hits"] == 1 and stats["core_writes"] == 0

    def test_warm_sharded_physical_reports_mmap_mode(self, tmp_path):
        path = sqlite_database(tmp_path, "mode")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(query, shards=4).bind()
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            physical = engine.prepare(query, shards=4).bind()
            assert physical.mode == "mmap"
            assert physical.shard_count == 4
            assert "warm start" in " ".join(physical.notes)

    def test_warm_start_replays_stored_plans(self, tmp_path):
        path = sqlite_database(tmp_path, "boot")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(query).bind()
            engine.prepare(query, shards=2).bind()
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert engine.warm_start() == 2
            assert core_stats(engine)["core_hits"] == 2


class TestStaleness:
    def test_mutation_invalidates_then_rewrites(self, tmp_path):
        path = sqlite_database(tmp_path, "stale")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(query).bind()
            assert core_stats(engine)["core_writes"] == 1
        backend = SQLiteBackend(path)
        backend.append("R1", (1, 2), float(BASE**4))
        with Engine.from_backend(backend) as engine:
            reference = run(engine, query, "take2")
            stats = core_stats(engine)
            assert stats["core_stale"] == 1 and stats["core_hits"] == 0
            assert stats["core_writes"] == 1, "stale entry must be rewritten"
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert run(engine, query, "take2") == reference
            assert core_stats(engine)["core_hits"] == 1

    def test_key_excludes_non_persistable_dioids(self):
        query = path_query(3)
        tie = TieBreakingDioid(TROPICAL, 3)
        assert dioid_core_name(TROPICAL) == "tropical"
        assert dioid_core_name(MAX_PLUS) == "max-plus"
        assert dioid_core_name(MAX_TIMES) is None, "key is not the value"
        assert dioid_core_name(tie) is None
        assert core_key(query, MAX_TIMES, None) is None
        assert core_key(query, TROPICAL, None) != core_key(
            query, TROPICAL, (4, None, "range", "arrival")
        )

    def test_non_persistable_dioid_still_runs(self, tmp_path):
        path = sqlite_database(tmp_path, "npd")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert run(engine, query, "take2", dioid=NAMED_DIOIDS["max-times"])
            stats = core_stats(engine)
            assert stats == {
                "core_hits": 0, "core_misses": 0,
                "core_stale": 0, "core_writes": 0,
            }
            assert not os.path.exists(path + ".core")


class TestNoNumpy:
    """Pure-``array`` fallback conformance (also exercised by CI no-numpy)."""

    def test_vectorized_paths_match_scalar(self, tmp_path, monkeypatch):
        path = sqlite_database(tmp_path, "nonp")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            with_numpy = {
                variant: run(engine, query, variant)
                for variant in ALL_VARIANTS
            }
        monkeypatch.setattr(vec, "np", None)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            for variant in ALL_VARIANTS:
                assert run(engine, query, variant) == with_numpy[variant]
            assert core_stats(engine)["core_hits"] == 1, (
                "mapped cores must load without numpy"
            )

    def test_sharded_build_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vec, "np", None)
        database = decoding_database(3, 30, domain=6, seed=9)
        engine = Engine(database)
        query = path_query(3)
        reference = run(engine, query, "take2")
        assert run(engine, query, "take2", shards=4) == reference


class TestRobustness:
    def test_corrupt_core_file_is_a_miss(self, tmp_path):
        path = sqlite_database(tmp_path, "corrupt")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            reference = run(engine, query, "take2")
        with open(path + ".core", "wb") as handle:
            handle.write(b"not a core file at all")
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert run(engine, query, "take2") == reference
            stats = core_stats(engine)
            assert stats["core_hits"] == 0
            assert stats["core_writes"] == 1, "rewritten after corruption"
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert run(engine, query, "take2") == reference
            assert core_stats(engine)["core_hits"] == 1

    def test_old_format_core_file_is_a_miss_and_rewritten(self, tmp_path):
        import struct

        from repro.dp.corebuf import CORE_FORMAT, CORE_MAGIC

        path = sqlite_database(tmp_path, "oldfmt")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            reference = run(engine, query, "take2")
        # Stamp the previous container version into an otherwise intact
        # file: what a process upgraded in place finds next to its db.
        with open(path + ".core", "r+b") as handle:
            handle.seek(len(CORE_MAGIC))
            handle.write(struct.pack("<I", CORE_FORMAT - 1))
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert run(engine, query, "take2") == reference
            stats = core_stats(engine)
            assert stats["core_hits"] == 0 and stats["core_writes"] == 1
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert run(engine, query, "take2") == reference
            assert core_stats(engine)["core_hits"] == 1

    def test_foreign_entry_under_our_key_is_a_miss(self, tmp_path):
        from repro.dp.corebuf import CoreFile

        path = sqlite_database(tmp_path, "foreign")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            reference = run(engine, query, "take2")
            version = engine.database.version
        # Same key and db version, but a meta this build does not write
        # (wrong kind, no layout fields): must miss, never raise.
        key = core_key(query, TROPICAL, None)
        CoreFile(path + ".core").write({key: ({"kind": "tdp"}, version, b"x" * 64)})
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert run(engine, query, "take2") == reference
            stats = core_stats(engine)
            assert stats["core_hits"] == 0 and stats["core_writes"] == 1

    def test_memory_backend_has_no_core_cache(self):
        engine = Engine(decoding_database(3, 20, domain=5, seed=1))
        assert engine.core_cache is None
        assert run(engine, path_query(3), "take2")

    def test_close_releases_the_mmap(self, tmp_path):
        path = sqlite_database(tmp_path, "close")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(query).bind()
        engine = Engine.from_backend(SQLiteBackend(path))
        run(engine, query, "take2")
        assert core_stats(engine)["core_hits"] == 1
        engine.close()
        assert not engine.core_cache._maps, "close() must unmap the core file"
        os.remove(path + ".core")

    def test_explicit_core_cache_path(self, tmp_path):
        database = decoding_database(3, 20, domain=5, seed=2)
        core_path = str(tmp_path / "explicit.core")
        query = path_query(3)
        engine = Engine(database, core_cache=core_path)
        reference = run(engine, query, "take2")
        assert os.path.exists(core_path)
        engine2 = Engine(database, core_cache=CoreCache(core_path))
        assert run(engine2, query, "take2") == reference
        assert core_stats(engine2)["core_hits"] == 1


class TestExportFromThePool:
    """A ``.core`` export writes the entry pool column by column, roots
    after it, and cuts no connector: its bytes are those of the object
    lowering (``compile_tdp(build_tdp(...))``) over the same plan."""

    @staticmethod
    def _database():
        """Dense enough that every join-key group has a parent (the object
        builder numbers a group nobody references but stores no entries)."""
        from repro.data.generators import uniform_database

        return uniform_database(4, 700, domain_size=20, seed=3)

    @pytest.mark.parametrize("dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"])
    def test_unsharded_bytes_equal_the_object_lowering(self, dioid):
        from repro.dp.builder import build_tdp
        from repro.dp.corebuf import export_fragments
        from repro.dp.flat import compile_tdp
        from repro.dp.lower import lower_query
        from repro.query.jointree import build_join_tree

        database = self._database()
        tree = build_join_tree(path_query(4))
        core = lower_query(database, tree, dioid)
        reference = compile_tdp(build_tdp(database, tree, dioid=dioid))
        assert -1 not in reference.conn_stage
        assert export_fragments([core], 0) == export_fragments([reference], 0)
        pooled = len(core.conn_offsets) - 1
        assert core._pairs[:pooled] == [None] * pooled  # nothing was cut

    @pytest.mark.parametrize("dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"])
    def test_arrival_shard_bytes_equal_the_object_lowering(self, dioid):
        from array import array
        from itertools import accumulate

        from repro.dp.builder import build_tdp
        from repro.dp.corebuf import SectionView, export_fragments
        from repro.dp.flat import compile_tdp
        from repro.parallel.build import build_object_fragment

        database = self._database()
        query = path_query(4)
        physical = Engine(database).prepare(query, dioid=dioid, shards=4).bind()
        plan = physical.shard_plan
        anchor = plan.anchor_stage
        cores = [fragment.compiled for fragment in physical.fragments]
        meta, data = export_fragments(cores, anchor)
        pooled = len(cores[0].conn_offsets) - 1
        assert cores[0]._pairs[:pooled] == [None] * pooled  # nothing was cut

        # Phase A's connectors are the whole relation's non-root ones;
        # each fragment's root is its own object build's.
        whole = compile_tdp(build_tdp(database, plan.join_tree, dioid=dioid))
        assert whole.root_uid == {anchor: pooled} == {0: whole.num_connectors - 1}
        expected = [whole.pairs(uid) for uid in range(pooled)]
        relation = database[query.atoms[plan.anchor_atom].relation_name]
        for fragment in plan.fragments:
            rows = (
                relation.tuples[fragment.lo:fragment.hi],
                relation.weights[fragment.lo:fragment.hi],
            )
            part = compile_tdp(
                build_object_fragment(database, plan, fragment, dioid, None, rows, None)
            )
            expected.append(part.pairs(part.root_uid[anchor]))
        assert len(expected) == meta["num_connectors"] == pooled + 4

        sections = SectionView(data, meta["manifest"])
        for section, typecode, column in (
            ("entry_key", "d", [key for pairs in expected for key, _ in pairs]),
            ("entry_state", "q", [state for pairs in expected for _, state in pairs]),
            ("conn_offsets", "q", list(accumulate(map(len, expected), initial=0))),
        ):
            assert sections.view(section).tobytes() == array(typecode, column).tobytes()
