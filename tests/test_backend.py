"""Storage-backend layer: protocol conformance, SQLite persistence,
version-counter soundness, and the sql_baseline identifier hardening."""

import sqlite3

import numpy as np
import pytest

from repro.data.backend import (
    SQLiteBackend,
    StorageBackend,
    quote_identifier,
    validate_identifier,
)
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine
from tests.conftest import stored_rows

ROWS = [((1, 2), 0.5), ((1, 3), 1.5), ((2, 3), 0.25)]


def filled(backend, name="R"):
    backend.create(name, 2)
    backend.extend(name, ROWS)
    return backend


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    """A throwaway ``":memory:"`` store (one shared connection) or a
    SQLite file (a connection per thread)."""
    if request.param == "memory":
        backend = SQLiteBackend(":memory:")
    else:
        backend = SQLiteBackend(str(tmp_path / "t.db"))
    yield backend
    backend.close()


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    """Where a query's relations live: a plain in-memory ``Database``
    (``None``), or a SQLite file."""
    if request.param == "memory":
        yield None
    else:
        backend = SQLiteBackend(str(tmp_path / "t.db"))
        yield backend
        backend.close()


class TestProtocol:
    def test_both_backends_satisfy_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_create_and_read_back(self, backend):
        filled(backend)
        assert backend.relation_names() == ["R"]
        assert backend.arity("R") == 2
        assert backend.cardinality("R") == 3
        assert stored_rows(backend, "R") == ROWS

    def test_iteration_preserves_insertion_order(self, backend):
        filled(backend)
        backend.append("R", (9, 9), 0.0)
        assert [v for v, _w in stored_rows(backend, "R")] == [
            (1, 2), (1, 3), (2, 3), (9, 9),
        ]

    def test_image_codes_count_the_degrees(self, backend):
        """A bind counts degrees over a relation's column image; both
        stores number the values alike."""
        filled(backend)
        backend.extend("R", [(("a", None), 1.0), (("a", 2), 2.0)])
        image = backend.relation("R").arrays
        values = {code: value for value, code in image.code.items()}
        for column, expected in ((0, {1: 2, 2: 1, "a": 2}), (1, {2: 2, 3: 2, None: 1})):
            codes, counts = np.unique(image.codes[column], return_counts=True)
            assert {values[c]: n for c, n in zip(codes.tolist(), counts.tolist())} == expected

    def test_version_bumps_on_mutation(self, backend):
        filled(backend)
        v0 = backend.version("R")
        backend.append("R", (5, 5), 2.0)
        assert backend.version("R") > v0

    def test_missing_relation_raises(self, backend):
        with pytest.raises(KeyError, match="Nope"):
            backend.arity("Nope")

    def test_duplicate_create_rejected_unless_replace(self, backend):
        filled(backend)
        with pytest.raises(ValueError, match="already exists"):
            backend.create("R", 2)
        backend.create("R", 3, replace=True)
        assert backend.cardinality("R") == 0
        assert backend.arity("R") == 3

    def test_drop(self, backend):
        filled(backend)
        backend.drop("R")
        assert "R" not in backend.relation_names()
        with pytest.raises(KeyError):
            backend.drop("R")

    def test_arity_mismatch_rejected(self, backend):
        filled(backend)
        with pytest.raises(ValueError, match="arity"):
            backend.append("R", (1, 2, 3), 0.0)
        with pytest.raises(ValueError, match="arity"):
            backend.extend("R", [((1,), 0.0)])

    def test_ingest_copies_a_relation(self, backend):
        relation = Relation("S", 2, [t for t, _ in ROWS], [w for _, w in ROWS])
        backend.ingest(relation)
        assert stored_rows(backend, "S") == ROWS

    def test_database_view(self, backend):
        filled(backend)
        db = backend.database()
        assert db.backend is backend
        assert set(db.relations) == {"R"}
        assert len(db["R"]) == 3
        assert list(db["R"].rows()) == ROWS

    def test_replace_is_observed_by_database_views(self, backend):
        """Re-ingesting a relation must reach existing views and bump
        the (len + version) invalidation stamp on both backends."""
        filled(backend)
        db = backend.database()
        view = db["R"]
        assert len(view) == 3
        v0 = db.version
        backend.ingest(Relation("R", 2, [(8, 8)], [8.0]))
        assert view.tuples == [(8, 8)]
        assert db.version > v0

    def test_failed_extend_leaves_no_partial_batch(self, backend):
        filled(backend)
        v0 = backend.version("R")

        def poisoned():
            yield (7, 7), 0.1
            yield (8, 8), 0.2
            raise RuntimeError("source died mid-stream")

        with pytest.raises(RuntimeError):
            backend.extend("R", poisoned())
        # Later unrelated writes must not resurrect the partial rows.
        backend.append("R", (9, 9), 0.3)
        rows = [v for v, _w in stored_rows(backend, "R")]
        assert (7, 7) not in rows and (8, 8) not in rows
        assert rows[-1] == (9, 9)
        assert backend.version("R") == v0 + 1

    def test_hostile_names_rejected(self, backend):
        for bad in ('R"; DROP TABLE R; --', "a b", "1R", "", "sqlite_x",
                    "repro_relations"):
            with pytest.raises(ValueError):
                backend.create(bad, 2)

    def test_empty_relation_reads_no_rows(self, backend):
        backend.create("E", 2)
        assert list(backend.fetch_rows("E")) == []
        view = backend.relation("E")
        assert list(view.rows()) == []
        assert view.tuples == [] and view.weights == []


class TestBatchedReads:
    """``fetch_rows`` is the one read: a view's ``rows()`` streams its
    batches and a view's lists are filled from them, whatever the batch
    boundaries (one row, a remainder, an exact multiple, one batch)."""

    ROWS = [((i, i % 3), float(i) / 4) for i in range(12)]

    @pytest.fixture(params=[1, 5, 6, 13])
    def stored(self, request, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.data.backend.FETCH_BATCH", request.param)
        with SQLiteBackend(str(tmp_path / "b.db")) as backend:
            backend.create("R", 2)
            backend.extend("R", self.ROWS)
            yield backend

    def test_rows_stream_every_batch_in_order(self, stored):
        view = stored.relation("R")
        assert list(view.rows()) == self.ROWS
        assert not view.is_materialized

    def test_lists_refresh_from_every_batch(self, stored):
        view = stored.relation("R")
        assert view.tuples == [t for t, _w in self.ROWS]
        stored.relation("R").add((99, 0), 9.5)
        assert view.tuples[-1] == (99, 0)
        assert view.weights == [w for _t, w in self.ROWS] + [9.5]
        assert list(view.rows()) == self.ROWS + [((99, 0), 9.5)]


class TestSQLitePersistence:
    def test_reopen_sees_data_and_versions(self, tmp_path):
        path = str(tmp_path / "p.db")
        with SQLiteBackend(path) as backend:
            filled(backend)
            backend.append("R", (7, 7), 9.0)
            version = backend.version("R")
        with SQLiteBackend(path) as reopened:
            assert reopened.relation_names() == ["R"]
            assert reopened.version("R") == version
            assert stored_rows(reopened, "R")[-1] == ((7, 7), 9.0)

    def test_value_types_round_trip(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "v.db"))
        backend.create("T", 3)
        backend.append("T", (1, 2.5, "hello"), 0.75)
        ((values, weight),) = stored_rows(backend, "T")
        assert values == (1, 2.5, "hello")
        assert isinstance(values[0], int)
        assert isinstance(values[1], float)
        assert weight == 0.75
        backend.close()

    def test_closed_backend_raises(self, tmp_path):
        backend = filled(SQLiteBackend(str(tmp_path / "c.db")))
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            stored_rows(backend, "R")

    def test_replace_keeps_len_plus_version_monotone(self, tmp_path):
        backend = filled(SQLiteBackend(str(tmp_path / "m.db")))
        stamp = backend.cardinality("R") + backend.version("R")
        backend.create("R", 2, replace=True)  # now empty
        assert backend.cardinality("R") + backend.version("R") > stamp
        backend.close()

    def test_lazy_relation_is_not_materialized_up_front(self, tmp_path):
        backend = filled(SQLiteBackend(str(tmp_path / "l.db")))
        relation = backend.relation("R")
        assert not relation.is_materialized
        assert len(relation) == 3           # COUNT(*), still lazy
        assert not relation.is_materialized
        assert list(relation.rows()) == ROWS  # streamed, still lazy
        assert not relation.is_materialized
        assert relation.tuples == [t for t, _ in ROWS]  # now materialised
        assert relation.is_materialized
        backend.close()


class TestVersionSoundness:
    """Mutating stored relations must invalidate engine caches, as
    mutating in-memory ones does."""

    def query_db(self, store):
        relations = [
            Relation("R", 2, [(1, 2), (2, 2)], [1.0, 5.0]),
            Relation("S", 2, [(2, 9)], [2.0]),
        ]
        if store is None:
            return Database(relations)
        for relation in relations:
            store.ingest(relation)
        return store.database()

    def test_mutation_bumps_database_version(self, store):
        db = self.query_db(store)
        v0 = db.version
        db["R"].add((3, 2), 0.5)
        assert db.version > v0

    def test_mutation_invalidates_prepared_query(self, store):
        db = self.query_db(store)
        engine = Engine(db)
        prepared = engine.prepare("Q(x, y, z) :- R(x, y), S(y, z)")
        first = prepared.top(10)
        assert len(first) == 2
        assert engine.stats.binds == 1
        db["R"].add((3, 2), 0.1)
        again = prepared.top(10)
        assert len(again) == 3
        assert engine.stats.binds == 2
        assert again[0].weight == pytest.approx(2.1)

    def test_aliased_rename_copy_mutation_is_observed(self, store):
        db = self.query_db(store)
        engine = Engine(db)
        prepared = engine.prepare("Q(x, y, z) :- R(x, y), S(y, z)")
        assert len(prepared.top(10)) == 2
        alias = db["R"].rename("R_alias")
        alias.add((3, 2), 0.1)  # writes through to the shared storage
        assert len(prepared.top(10)) == 3
        assert engine.stats.binds == 2

    def test_two_views_of_one_table_stay_coherent(self, tmp_path):
        backend = filled(SQLiteBackend(str(tmp_path / "w.db")))
        view_a = backend.relation("R")
        view_b = backend.relation("R")
        assert view_a.tuples == view_b.tuples  # both materialised
        view_b.add((4, 4), 4.0)
        assert view_a.version == view_b.version
        assert view_a.tuples[-1] == (4, 4)  # refreshed, not stale
        backend.close()

    def test_len_and_rows_see_cross_view_mutations(self, tmp_path):
        """A materialised view must not serve stale len/rows after the
        table was mutated through another view."""
        backend = filled(SQLiteBackend(str(tmp_path / "st.db")))
        view = backend.relation("R")
        assert view.tuples  # materialise
        backend.relation("R").add((6, 6), 6.0)
        assert len(view) == 4
        assert list(view.rows())[-1] == ((6, 6), 6.0)
        backend.close()

    def test_no_spurious_rebinds_without_mutation(self, store):
        db = self.query_db(store)
        engine = Engine(db)
        prepared = engine.prepare("Q(x, y, z) :- R(x, y), S(y, z)")
        for _ in range(3):
            prepared.top(5)
        assert engine.stats.binds == 1

    @pytest.mark.parametrize("field", ["tuples", "weights"])
    def test_assigning_a_stored_relations_lists_raises(self, tmp_path, field):
        """A stored table is append-only: a list assigned to a view would
        reach neither the table nor a version counter, so the engine
        would keep answering from the old rows.  The assignment raises."""
        query = "Q(x, y, z) :- R(x, y), S(y, z)"
        replacement = {"tuples": [(2, 2), (1, 2)], "weights": [7.0, 0.5]}[field]
        with SQLiteBackend(str(tmp_path / "a.db")) as backend:
            db = self.query_db(backend)
            engine = Engine(db)
            before = [(r.weight, r.output_tuple) for r in engine.prepare(query).top(5)]
            version = db.version
            with pytest.raises(TypeError, match="add|ingest"):
                setattr(db["R"], field, replacement)
            assert db.version == version
            assert stored_rows(backend, "R") == [((1, 2), 1.0), ((2, 2), 5.0)]
            assert db["R"].weights == [1.0, 5.0]
            again = [(r.weight, r.output_tuple) for r in engine.prepare(query).top(5)]
            assert again == before
            # The supported ways to change stored data still reach the engine.
            db["R"].add((3, 2), 0.25)
            assert engine.prepare(query).top(1)[0].weight == pytest.approx(2.25)
            backend.ingest(Relation("R", 2, [(2, 2)], [0.5]))
            assert [r.weight for r in engine.prepare(query).top(5)] == [2.5]

    @pytest.mark.parametrize("field", ["tuples", "weights"])
    def test_assigning_an_in_memory_relations_lists_rebinds(self, field):
        """An in-memory relation's lists are its storage: assigning one
        bumps the version, so a prepared query rebinds on the new rows."""
        query = "Q(x, y, z) :- R(x, y), S(y, z)"
        replacement = {"tuples": [(2, 2), (1, 2)], "weights": [7.0, 0.5]}[field]
        db = self.query_db(None)
        engine = Engine(db)
        assert [r.weight for r in engine.prepare(query).top(5)] == [3.0, 7.0]
        version = db.version
        setattr(db["R"], field, replacement)
        assert db.version > version
        assert [r.weight for r in engine.prepare(query).top(5)] == [
            {"tuples": 3.0, "weights": 2.5}[field],
            {"tuples": 7.0, "weights": 9.0}[field],
        ]
        assert engine.stats.binds == 2


class TestIdentifierHelpers:
    def test_validate_accepts_sane_names(self):
        for name in ("R", "edges_2", "_tmp", "A1B2"):
            assert validate_identifier(name) == name

    def test_validate_rejects_injection_attempts(self):
        for bad in ('R"; DROP TABLE R; --', "R S", "1abc", "", "répro",
                    "sqlite_master", "repro_relations", None, 42):
            with pytest.raises(ValueError):
                validate_identifier(bad)

    def test_quote_wraps_in_double_quotes(self):
        assert quote_identifier("R") == '"R"'


class TestSqlBaselineHardening:
    def base_db(self):
        return Database([
            Relation("R", 2, [(1, 2), (2, 3)], [0.5, 0.25]),
            Relation("S", 2, [(2, 4)], [1.0]),
        ])

    def test_load_sqlite_creates_indexes(self):
        from repro.experiments.sql_baseline import load_sqlite

        conn = load_sqlite(self.base_db(), ["R", "S"])
        indexes = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        assert {"idx_R_a1", "idx_S_a1"} <= indexes
        # And the index is actually usable as an access path.
        plan = conn.execute(
            "EXPLAIN QUERY PLAN SELECT * FROM R WHERE a1 = 1"
        ).fetchall()
        assert any("idx_R_a1" in str(row) for row in plan)
        conn.close()

    def test_load_sqlite_rejects_hostile_relation_name(self):
        from repro.experiments.sql_baseline import load_sqlite

        bad = 'R(a1, w); DROP TABLE R; --'
        db = Database([Relation(bad, 1, [(1,)], [0.0])])
        with pytest.raises(ValueError, match="unsafe relation name"):
            load_sqlite(db, [bad])

    def test_query_to_sql_still_executes(self):
        from repro.experiments.sql_baseline import time_sqlite
        from repro.query.parser import parse_query

        query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
        _elapsed, count = time_sqlite(self.base_db(), query)
        assert count == 1


def test_sqlite_backend_is_plain_sqlite(tmp_path):
    """The .db file is readable by any sqlite3 client (no private format)."""
    path = str(tmp_path / "open.db")
    with SQLiteBackend(path) as backend:
        filled(backend)
    conn = sqlite3.connect(path)
    assert conn.execute("SELECT COUNT(*) FROM R").fetchone() == (3,)
    assert conn.execute(
        "SELECT arity FROM repro_relations WHERE name = 'R'"
    ).fetchone() == (2,)
    conn.close()
