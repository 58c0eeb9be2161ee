"""Storage-backend layer: protocol conformance, SQLite persistence,
version-counter soundness, and the sql_baseline identifier hardening."""

import sqlite3

import numpy as np
import pytest

from repro.data.backend import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    quote_identifier,
    validate_identifier,
)
from repro.data.database import Database
from repro.data.relation import Relation
from repro.engine import Engine

ROWS = [((1, 2), 0.5), ((1, 3), 1.5), ((2, 3), 0.25)]


def filled(backend, name="R"):
    backend.create(name, 2)
    backend.extend(name, ROWS)
    return backend


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
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
        assert list(backend.iter_rows("R")) == ROWS

    def test_iteration_preserves_insertion_order(self, backend):
        filled(backend)
        backend.append("R", (9, 9), 0.0)
        assert [v for v, _w in backend.iter_rows("R")] == [
            (1, 2), (1, 3), (2, 3), (9, 9),
        ]

    def test_sorted_rows(self, backend):
        filled(backend)
        weights = [w for _v, w in backend.sorted_rows("R")]
        assert weights == sorted(weights)
        weights_desc = [w for _v, w in backend.sorted_rows("R", descending=True)]
        assert weights_desc == sorted(weights, reverse=True)

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
        assert list(backend.iter_rows("S")) == ROWS

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
        rows = [v for v, _w in backend.iter_rows("R")]
        assert (7, 7) not in rows and (8, 8) not in rows
        assert rows[-1] == (9, 9)
        assert backend.version("R") == v0 + 1

    def test_hostile_names_rejected(self, backend):
        for bad in ('R"; DROP TABLE R; --', "a b", "1R", "", "sqlite_x",
                    "repro_relations"):
            with pytest.raises(ValueError):
                backend.create(bad, 2)


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
            assert list(reopened.iter_rows("R"))[-1] == ((7, 7), 9.0)

    def test_value_types_round_trip(self, tmp_path):
        backend = SQLiteBackend(str(tmp_path / "v.db"))
        backend.create("T", 3)
        backend.append("T", (1, 2.5, "hello"), 0.75)
        ((values, weight),) = list(backend.iter_rows("T"))
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
            list(backend.iter_rows("R"))

    def test_replace_keeps_len_plus_version_monotone(self, tmp_path):
        backend = filled(SQLiteBackend(str(tmp_path / "m.db")))
        stamp = backend.cardinality("R") + backend.version("R")
        backend.create("R", 2, replace=True)  # now empty
        assert backend.cardinality("R") + backend.version("R") > stamp
        backend.close()

    def test_create_index_access_path(self, tmp_path):
        backend = filled(SQLiteBackend(str(tmp_path / "i.db")))
        name = backend.create_index("R", (0,))
        backend.create_index("R", (0,))  # idempotent
        indexes = {
            row[0]
            for row in backend.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            )
        }
        assert name in indexes
        with pytest.raises(ValueError, match="column"):
            backend.create_index("R", (5,))
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

    def test_sorted_by_weight_pushes_down(self, tmp_path):
        backend = filled(SQLiteBackend(str(tmp_path / "s.db")))
        relation = backend.relation("R")
        ordered = relation.sorted_by_weight()
        assert ordered.weights == [0.25, 0.5, 1.5]
        assert not relation.is_materialized  # ORDER BY ran server-side
        backend.close()


class TestVersionSoundness:
    """Mutating backend-loaded relations must invalidate engine caches."""

    def query_db(self, backend):
        backend.create("R", 2)
        backend.extend("R", [((1, 2), 1.0), ((2, 2), 5.0)])
        backend.create("S", 2)
        backend.extend("S", [((2, 9), 2.0)])
        return backend.database()

    def test_mutation_bumps_database_version(self, backend):
        db = self.query_db(backend)
        v0 = db.version
        db["R"].add((3, 2), 0.5)
        assert db.version > v0

    def test_mutation_invalidates_prepared_query(self, backend):
        db = self.query_db(backend)
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

    def test_aliased_rename_copy_mutation_is_observed(self, backend):
        db = self.query_db(backend)
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

    def test_no_spurious_rebinds_without_mutation(self, backend):
        db = self.query_db(backend)
        engine = Engine(db)
        prepared = engine.prepare("Q(x, y, z) :- R(x, y), S(y, z)")
        for _ in range(3):
            prepared.top(5)
        assert engine.stats.binds == 1


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
