"""Zero-copy compiled cores: persistence.

Covers the ``repro.dp.corebuf`` subsystem end to end:

* warm-start differential — a plan loaded from a ``.core`` file is
  bit-identical (weights, assignments, witness ids, witness tuples, in
  sequence) to a cold rebuild, for all 7 any-k variants x two
  persistable dioids;
* layout — the exported sections of a fixed plan hash to the digest the
  one-fragment layout of earlier builds wrote, and their entries and
  replay recipes still warm-start;
* staleness — mutating a relation invalidates the entry, the rebuild
  rewrites it, and the rewritten entry hits again;
* resource hygiene — ``Engine.close()`` releases the core file's mmap;
* robustness — a corrupt ``.core`` file is treated as a miss, never an
  error; in-memory backends simply run without persistence.
"""

import hashlib
import itertools
import os
import pickle
import random
import sys
import types

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.corebuf import CoreCache, core_key, dioid_core_name, export_core
from repro.engine import Engine
from repro.query.builders import path_query
from repro.ranking.dioid import (
    MAX_PLUS,
    MAX_TIMES,
    NAMED_DIOIDS,
    TROPICAL,
    TieBreakingDioid,
)

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
BASE = 64
#: ``pickle.dumps(ShardSpec(2))`` as an earlier build wrote it into a
#: replay recipe: it names ``repro.parallel.sharder``, a module this build
#: no longer has.
OLDER_SHARD_SPEC = (
    b"\x80\x05\x95\x89\x00\x00\x00\x00\x00\x00\x00\x8c\x16repro.parallel.sharder"
    b"\x94\x8c\tShardSpec\x94\x93\x94)\x81\x94}\x94(\x8c\x06shards\x94K\x02\x8c"
    b"\x04atom\x94N\x8c\x08strategy\x94\x8c\x05range\x94\x8c\ttie_break\x94\x8c"
    b"\x07arrival\x94\x8c\x08parallel\x94\x8c\x04auto\x94\x8c\x07workers\x94Nub."
)


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
        k: getattr(engine.stats, k)
        for k in ("core_hits", "core_misses", "core_stale", "core_writes")
    }


class TestWarmStartDifferential:
    """mmap-loaded cores are bit-identical to a cold rebuild."""

    @pytest.mark.parametrize("dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"])
    def test_all_variants_bit_identical(self, tmp_path, dioid):
        path = sqlite_database(tmp_path, "diff")
        query = path_query(4)
        cold = {}
        with Engine.from_backend(SQLiteBackend(path), core_cache="off") as engine:
            for variant in ALL_VARIANTS:
                cold[variant] = run(engine, query, variant, dioid=dioid)
                assert cold[variant], "workload must produce answers"
        # Cold bind with persistence on: writes the entry.
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(query, dioid=dioid).bind()
            stats = core_stats(engine)
            assert stats["core_writes"] == 1 and stats["core_hits"] == 0
        # Fresh process-equivalent: a new backend + engine, warm bind.
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            for variant in ALL_VARIANTS:
                warm = run(engine, query, variant, dioid=dioid)
                assert warm == cold[variant], (
                    f"{variant} warm start diverged (dioid={dioid!r})"
                )
            stats = core_stats(engine)
            assert stats["core_hits"] == 1 and stats["core_writes"] == 0

    def test_warm_physical_reports_mmap_mode(self, tmp_path):
        path = sqlite_database(tmp_path, "mode")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            prepared = engine.prepare(query)
            assert not prepared.bind().tdp.mapped
            assert "(mapped warm start)" not in prepared.explain()
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            prepared = engine.prepare(query)
            assert prepared.bind().tdp.mapped
            assert "(mapped warm start)" in prepared.explain()

    def test_warm_start_replays_stored_plans(self, tmp_path):
        path = sqlite_database(tmp_path, "boot")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(query).bind()
            engine.prepare(query, dioid=MAX_PLUS).bind()
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert engine.warm_start() == 2
            assert core_stats(engine)["core_hits"] == 2

    def test_a_recipe_naming_a_removed_class_is_a_miss(self, tmp_path, monkeypatch):
        """A ``.core`` whose TOC pickles ``repro.parallel.sharder.ShardSpec``
        (a sharded plan's replay recipe, as earlier builds stored it)
        cannot be read by this build: ``warm_start`` warms nothing and
        does not raise, and the cold bind answers as it would without the
        file and rewrites it."""
        path = sqlite_database(tmp_path, "removed")
        query = path_query(4)
        # A stand-in for the removed module, so the TOC pickles the class
        # by the name the earlier build's file holds.
        sharder = types.ModuleType("repro.parallel.sharder")
        sharder.ShardSpec = type("ShardSpec", (), {"__module__": sharder.__name__})
        with Engine.from_backend(SQLiteBackend(path), core_cache="off") as engine:
            prepared = engine.prepare(query)
            expected = signature(prepared.iter())
            meta, data = export_core(prepared.bind().tdp)
            cache = CoreCache(engine.database.backend.core_path)
            with monkeypatch.context() as patch:
                patch.setitem(sys.modules, sharder.__name__, sharder)
                assert cache.store(
                    repr((query.fingerprint(), "tropical", (2, None, "arrival"))),
                    engine.database, meta, data,
                    warm={
                        "query": query, "dioid": "tropical",
                        "shards": pickle.loads(OLDER_SHARD_SPEC),
                    },
                )
            cache.close()
        with open(path + ".core", "rb") as handle:
            assert b"repro.parallel.sharder" in handle.read()
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert engine.warm_start() == 0
            assert signature(engine.prepare(query).iter()) == expected
            stats = core_stats(engine)
            assert stats["core_hits"] == 0 and stats["core_writes"] == 1
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert engine.warm_start() == 1
            assert signature(engine.prepare(query).iter()) == expected
            assert core_stats(engine)["core_hits"] == 1


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
        assert core_key(query, MAX_TIMES) is None
        assert core_key(query, TROPICAL) == repr(
            (query.fingerprint(), "tropical", None)
        ), "the key earlier builds wrote for the plan"

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
        key = core_key(query, TROPICAL)
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
    """A ``.core`` export writes the entry pool's columns as they are,
    the root last, and ranks no connector: its bytes are those of the
    object lowering (``compile_tdp(build_tdp(...))``) over the same plan."""

    @staticmethod
    def _database():
        """Dense enough that every join-key group has a parent (the object
        builder numbers a group nobody references but stores no entries)."""
        from repro.data.generators import uniform_database

        return uniform_database(4, 700, domain_size=20, seed=3)

    @pytest.mark.parametrize("dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"])
    def test_unsharded_bytes_equal_the_object_lowering(self, dioid):
        from repro.dp.builder import build_tdp
        from repro.dp.flat import compile_tdp
        from repro.dp.lower import lower_query
        from repro.query.jointree import build_join_tree

        database = self._database()
        tree = build_join_tree(path_query(4))
        core = lower_query(database, tree, dioid)
        reference = compile_tdp(build_tdp(database, tree, dioid=dioid))
        assert -1 not in reference.conn_stage
        heaps = list(core._take2_heaps)
        assert export_core(core) == export_core(reference)
        # Exporting ranks nothing and sorts nothing (Eager's cache: none).
        assert core._caches == [heaps, None]


class TestLayout:
    """One core's layout: per stage its state columns and its rows, one
    section per attribute.  ``CORE_FORMAT`` is 4 since the rows went in;
    a format-3 file is a miss
    (``test_old_format_core_file_is_a_miss_and_rewritten``)."""

    #: ``sha256(repr(meta) + data)`` of the tropical 4-path export below,
    #: recaptured when the rows sections went in (format 4).
    DIGEST = "89ccc7196873984af5f4ba2decbc2c3185620f703a1e3fe5ca9f17b7b3640ba5"

    def test_export_matches_the_pinned_digest(self):
        from repro.data.generators import uniform_database
        from repro.dp.corebuf import CORE_FORMAT

        database = uniform_database(4, 700, domain_size=20, seed=3)
        physical = Engine(database).prepare(path_query(4)).bind()
        meta, data = export_core(physical.tdp)
        manifest = meta["manifest"]
        for stage in range(4):
            assert {f"vk{stage}", f"pk{stage}", f"cu{stage}", f"ids{stage}"} <= set(manifest)
            # Integer values: one int64 column per attribute, a row per state.
            for attribute in range(2):
                _offset, count, typecode = manifest[f"rows{stage}.{attribute}"]
                assert typecode == "q" and count == manifest[f"ids{stage}"][1]
        assert hashlib.sha256(repr(meta).encode() + data).hexdigest() == self.DIGEST
        assert CORE_FORMAT == 4

    def test_a_recipe_written_unsharded_still_warm_starts(self, tmp_path):
        """A replay recipe as earlier builds stored an unsharded plan's,
        ``"shards": None`` included, under the key they wrote: it maps."""
        path = sqlite_database(tmp_path, "recipe")
        query = path_query(4)
        with Engine.from_backend(SQLiteBackend(path), core_cache="off") as engine:
            prepared = engine.prepare(query)
            expected = signature(prepared.iter())
            meta, data = export_core(prepared.bind().tdp)
            cache = CoreCache(engine.database.backend.core_path)
            assert cache.store(
                repr((query.fingerprint(), "tropical", None)),
                engine.database, meta, data,
                warm={"query": query, "dioid": "tropical", "shards": None},
            )
            cache.close()
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            assert engine.warm_start() == 1
            physical = engine.prepare(query).bind()
            assert physical.tdp.mapped
            assert signature(engine.prepare(query).iter()) == expected
            stats = core_stats(engine)
            assert stats["core_hits"] == 1 and stats["core_writes"] == 0
