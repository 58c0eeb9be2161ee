"""Concurrency-safety regressions: engine caches and SQLite backends.

The serving layer multiplexes one engine (and often one ``.db`` file)
across threads and asyncio tasks.  These tests drive the two retrofitted
layers directly with real threads:

* the engine's plan/physical/stream LRU caches under concurrent
  ``prepare`` pressure past ``max_cached_plans`` (lock-guarded
  eviction must never corrupt the cache or lose a binding);
* ``SQLiteBackend``'s per-thread connections: concurrent lazy streams
  over one file, including two engine sessions enumerating from the
  same ``.db`` simultaneously.
"""

from __future__ import annotations

import itertools
import os
import threading

import pytest

from repro.data.backend import SQLiteBackend
from repro.data.generators import uniform_database
from repro.engine import Engine
from repro.query.builders import path_query, star_query
from repro.serve.session import SessionManager
from tests.conftest import stored_rows


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


class Barrier2:
    """A tiny start-line: threads block until everyone arrived."""

    def __init__(self, parties: int):
        self._barrier = threading.Barrier(parties, timeout=30)

    def wait(self) -> None:
        self._barrier.wait()


# -- engine caches under concurrency -------------------------------------------


class TestEngineCacheConcurrency:
    def test_eviction_under_concurrent_prepare(self):
        """Two tasks prepare distinct queries past ``max_cached_plans``."""
        db = uniform_database(6, 12, domain_size=3, seed=31)
        engine = Engine(db, max_cached_plans=3)
        queries = [path_query(i) for i in range(2, 7)] + [
            star_query(i) for i in range(2, 7)
        ]
        barrier = Barrier2(2)
        errors: list[Exception] = []

        def worker(offset: int) -> None:
            try:
                barrier.wait()
                for _ in range(5):
                    for query in queries[offset::2]:
                        prepared = engine.prepare(query)
                        # Value equality, not identity: the sibling
                        # thread may evict the stream between the two
                        # calls, re-enumerating fresh (equal) results.
                        assert signature(prepared.top(2)) == signature(
                            prepared.top(2)
                        )
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert engine.cached_plans() <= 3
        assert len(engine._physicals) <= 3
        assert len(engine._streams) <= 3
        assert engine.stats.evictions > 0
        # The caches still serve correct answers after the storm.
        assert signature(engine.prepare(path_query(2)).top(3)) == signature(
            Engine(db).prepare(path_query(2)).top(3)
        )

    def test_concurrent_prepare_same_query_binds_once(self):
        db = uniform_database(3, 30, domain_size=4, seed=32)
        engine = Engine(db)
        barrier = Barrier2(4)
        outputs: list[list] = []
        errors: list[Exception] = []

        def worker() -> None:
            try:
                barrier.wait()
                prepared = engine.prepare(path_query(3))
                outputs.append(signature(prepared.top(20)))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert engine.stats.binds == 1
        assert engine.stats.stream_misses == 1
        assert all(rows == outputs[0] for rows in outputs)

    def test_shared_cursor_partitions_stream_exactly_once(self):
        """Concurrent fetches on ONE cursor must partition the ranked
        stream into contiguous, exactly-once pages (no loss, no dupes)."""
        db = uniform_database(3, 40, domain_size=5, seed=35)
        engine = Engine(db)
        prepared = engine.prepare(path_query(3))
        total = 200
        # Generous baseline: racing workers may overshoot `total` by up
        # to one page each, and all of it must still be exactly-once.
        baseline = signature(prepared.top(total + 4 * 7))
        cursor = prepared.cursor()
        barrier = Barrier2(4)
        pages: list[list] = []
        errors: list[Exception] = []

        def worker() -> None:
            try:
                barrier.wait()
                while cursor.position < total:
                    page = cursor.fetch(7)
                    if not page:
                        break
                    pages.append(signature(page))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        flat = [row for page in pages for row in page]
        assert len(flat) >= total
        # Exactly once, no gaps: the multiset of served rows is exactly
        # the ranked prefix of the stream of the same length.
        assert sorted(flat) == sorted(baseline[: len(flat)])

    def test_shared_stream_extension_race(self):
        """Many threads pulling one stream see one consistent prefix."""
        db = uniform_database(3, 40, domain_size=5, seed=33)
        engine = Engine(db)
        prepared = engine.prepare(path_query(3))
        baseline = signature(itertools.islice(prepared.iter(), 120))
        barrier = Barrier2(6)
        errors: list[Exception] = []

        def worker(k: int) -> None:
            try:
                barrier.wait()
                assert signature(prepared.top(k)) == baseline[:k]
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(20 * (i + 1),))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert prepared.stream().produced == 120


# -- SQLite under concurrency --------------------------------------------------


@pytest.fixture
def sqlite_db_path(tmp_path) -> str:
    path = os.path.join(str(tmp_path), "data.db")
    database = uniform_database(3, 60, domain_size=5, seed=34)
    with SQLiteBackend(path) as backend:
        for relation in database:
            backend.ingest(relation)
    return path


class TestSQLiteConcurrency:
    def test_interleaved_lazy_streams_across_threads(
        self, sqlite_db_path, monkeypatch
    ):
        # Small batches, so each cursor steps many times between the other's.
        monkeypatch.setattr("repro.data.backend.FETCH_BATCH", 7)
        backend = SQLiteBackend(sqlite_db_path)
        try:
            expected = stored_rows(backend, "R1")
            barrier = Barrier2(4)
            errors: list[Exception] = []

            def worker() -> None:
                try:
                    barrier.wait()
                    # Interleave two open cursors within the thread while
                    # other threads do the same against the same file.
                    a = backend.fetch_rows("R1")
                    b = backend.fetch_rows("R1")
                    rows, again = [], []
                    for batch_a, batch_b in zip(a, b):
                        rows.extend((row[:-1], row[-1]) for row in batch_a)
                        again.extend((row[:-1], row[-1]) for row in batch_b)
                    assert rows == again == expected
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
        finally:
            backend.close()

    def test_two_sessions_stream_same_db_concurrently(self, sqlite_db_path):
        """The ISSUE's regression: two serving sessions, one ``.db``."""
        backend = SQLiteBackend(sqlite_db_path)
        engine = Engine.from_backend(backend)
        baseline = {
            2: signature(engine.prepare(path_query(2)).iter()),
            3: signature(engine.prepare(path_query(3)).iter()),
        }
        engine.clear_caches()
        manager = SessionManager(engine, slice_size=8)
        _, c2 = manager.open_cursor(
            "s2", "Q(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"
        )
        _, c3 = manager.open_cursor(
            "s3", "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"
        )
        barrier = Barrier2(2)
        collected: dict[str, list] = {}
        errors: list[Exception] = []

        def worker(session: str, cursor_id: str, arity: int) -> None:
            try:
                barrier.wait()
                rows = []
                while True:
                    outcome = manager.fetch(session, cursor_id, 16)
                    rows.extend(outcome.results)
                    if outcome.exhausted or not outcome.results:
                        break
                collected[session] = signature(rows)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("s2", c2, 2)),
            threading.Thread(target=worker, args=("s3", c3, 3)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert collected["s2"] == baseline[2]
        assert collected["s3"] == baseline[3]
        engine.close()

    def test_writer_and_reader_threads(self, sqlite_db_path):
        """WAL mode: a writer appending does not break lazy readers."""
        backend = SQLiteBackend(sqlite_db_path)
        try:
            before = backend.cardinality("R2")
            barrier = Barrier2(2)
            errors: list[Exception] = []

            def reader() -> None:
                try:
                    barrier.wait()
                    for _ in range(5):
                        rows = stored_rows(backend, "R1")
                        assert len(rows) >= 60
                except Exception as exc:
                    errors.append(exc)

            def writer() -> None:
                try:
                    barrier.wait()
                    for i in range(20):
                        backend.append("R2", (100 + i, 200 + i), float(i))
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader),
                threading.Thread(target=writer),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, errors
            assert backend.cardinality("R2") == before + 20
            assert backend.version("R2") >= 20
        finally:
            backend.close()

    def test_dead_thread_connections_are_reclaimed(self, sqlite_db_path):
        """Thread churn must not leak one sqlite handle per dead thread."""
        backend = SQLiteBackend(sqlite_db_path)
        try:
            for _ in range(10):
                thread = threading.Thread(
                    target=lambda: stored_rows(backend, "R1")
                )
                thread.start()
                thread.join(timeout=30)
            # Each new per-thread connection prunes its dead
            # predecessors, so the pool stays bounded (main thread's
            # connection + at most the last dead thread's) instead of
            # growing by one handle per exited thread.
            assert len(backend._connections) <= 2
        finally:
            backend.close()

    def test_memory_backend_stays_single_connection(self):
        backend = SQLiteBackend(":memory:")
        backend.create("R", 2)
        backend.append("R", (1, 2), 0.5)

        seen: list[int] = []

        def worker() -> None:
            seen.append(len(stored_rows(backend, "R")))

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
        # A per-thread connection to ":memory:" would see an empty db.
        assert seen == [1]
        backend.close()
