"""Round trips through CSV and storage backends (property-based).

The invariant: once a value has been parsed into its canonical Python
form (int where possible, else float, else string), any chain of
CSV-write -> CSV-read -> backend-ingest -> export preserves tuples and
weights exactly.  The hypothesis strategies therefore generate values
already in canonical form (a string that *looks* numeric, like "007",
is excluded — CSV cannot represent that distinction, which the edge-case
tests below document explicitly).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.backend import SQLiteBackend
from repro.data.io import (
    ingest_csv,
    load_database,
    read_relation_csv,
    save_database,
    write_relation_csv,
)
from repro.data.relation import Relation
from tests.conftest import stored_rows

# -- strategies ---------------------------------------------------------------

ints = st.integers(min_value=-(10 ** 9), max_value=10 ** 9)
floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
).filter(lambda x: not float(x).is_integer())
#: Strings that can never be mistaken for numbers by the type inference.
words = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzXYZ_", min_size=1, max_size=8
).filter(lambda s: s.strip() == s)
values = st.one_of(ints, floats, words)
weights = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@st.composite
def relations(draw, min_rows=0):
    arity = draw(st.integers(min_value=1, max_value=4))
    rows = draw(
        st.lists(
            st.tuples(
                st.tuples(*[values] * arity), weights
            ),
            min_size=min_rows,
            max_size=12,
        )
    )
    return Relation(
        "R",
        arity,
        [t for t, _w in rows],
        [float(w) for _t, w in rows],
    )


def assert_same_rows(left, right):
    assert list(left.rows()) == list(right.rows())
    assert left.arity == right.arity


# -- property-based round trips ----------------------------------------------


class TestCsvRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(relation=relations())
    def test_csv_preserves_tuples_and_weights(self, relation, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("csv") / "R.csv")
        write_relation_csv(relation, path)
        loaded = read_relation_csv(path, has_header=True)
        assert_same_rows(relation, loaded)

    @settings(max_examples=25, deadline=None)
    @given(relation=relations())
    def test_csv_to_sqlite_to_csv(self, relation, tmp_path_factory):
        root = tmp_path_factory.mktemp("sql")
        csv_in = str(root / "R.csv")
        csv_out = str(root / "R_out.csv")
        write_relation_csv(relation, csv_in)
        with SQLiteBackend(str(root / "r.db")) as backend:
            ingest_csv(backend, csv_in, has_header=True)
            stored = backend.relation("R")
            assert_same_rows(relation, stored)
            write_relation_csv(stored, csv_out)
        assert_same_rows(relation, read_relation_csv(csv_out, has_header=True))

    @settings(max_examples=25, deadline=None)
    @given(relation=relations())
    def test_memory_backend_round_trip(self, relation, tmp_path_factory):
        """CSV into a memory-resident SQLite database and back out."""
        path = str(tmp_path_factory.mktemp("mem") / "R.csv")
        write_relation_csv(relation, path)
        with SQLiteBackend(":memory:") as backend:
            ingest_csv(backend, path, has_header=True)
            assert_same_rows(relation, backend.relation("R"))


# -- explicit edge cases ------------------------------------------------------


class TestMissingWeightColumn:
    def test_read_without_weights(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("1,2\n3,4\n")
        relation = read_relation_csv(str(path), weight_column=None)
        assert relation.tuples == [(1, 2), (3, 4)]
        assert relation.weights == [0.0, 0.0]

    def test_ingest_without_weights(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("1,2\n3,4\n")
        with SQLiteBackend(":memory:") as backend:
            ingest_csv(backend, str(path), weight_column=None)
            assert stored_rows(backend, "E") == [((1, 2), 0.0), ((3, 4), 0.0)]

    def test_header_without_w_column(self, tmp_path):
        path = tmp_path / "H.csv"
        path.write_text("src,dst\n1,2\n")
        relation = read_relation_csv(
            str(path), weight_column=None, has_header=True
        )
        assert relation.tuples == [(1, 2)]
        assert relation.weights == [0.0]


class TestTypeInference:
    @pytest.mark.parametrize("token,expected", [
        ("5", 5),
        ("-5", -5),
        ("5.0", 5.0),
        ("1e3", 1000.0),
        ("-2.5e-1", -0.25),
        ("hello", "hello"),
        ("5a", "5a"),
        ("0x10", "0x10"),     # int() base-10 only: stays a string
    ])
    def test_scalar_parsing(self, tmp_path, token, expected):
        path = tmp_path / "T.csv"
        path.write_text(f"{token},0.5\n")
        relation = read_relation_csv(str(path))
        value = relation.tuples[0][0]
        assert value == expected
        assert type(value) is type(expected)

    def test_numeric_looking_string_is_lossy(self, tmp_path):
        """'007' cannot survive CSV: it reads back as the int 7."""
        relation = Relation("R", 1, [("007",)], [0.0])
        path = str(tmp_path / "R.csv")
        write_relation_csv(relation, path)
        assert read_relation_csv(path, has_header=True).tuples == [(7,)]

    def test_inference_matches_between_memory_and_sqlite(self, tmp_path):
        path = tmp_path / "M.csv"
        path.write_text("1,2.5,hello,9\n")
        relation = read_relation_csv(str(path))
        with SQLiteBackend(str(tmp_path / "m.db")) as backend:
            ingest_csv(backend, str(path))
            assert stored_rows(backend, "M") == list(relation.rows())


class TestEmptyRelations:
    def test_header_only_csv_reads_as_empty(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("a1,a2,w\n")
        relation = read_relation_csv(str(path), has_header=True)
        assert len(relation) == 0
        assert relation.arity == 2

    def test_empty_relation_round_trips(self, tmp_path):
        relation = Relation("E", 3)
        path = str(tmp_path / "E.csv")
        write_relation_csv(relation, path)
        loaded = read_relation_csv(path, has_header=True)
        assert len(loaded) == 0
        assert loaded.arity == 3

    def test_ingest_header_only_csv(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("a1,a2,w\n")
        with SQLiteBackend(str(tmp_path / "e.db")) as backend:
            ingest_csv(backend, str(path), has_header=True)
            assert backend.cardinality("E") == 0
            assert backend.arity("E") == 2

    def test_truly_empty_file_still_rejected(self, tmp_path):
        path = tmp_path / "E.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no tuples"):
            read_relation_csv(str(path))
        with SQLiteBackend(":memory:") as backend:
            with pytest.raises(ValueError, match="no tuples"):
                ingest_csv(backend, str(path))

    def test_ragged_ingest_rolls_back(self, tmp_path):
        path = tmp_path / "Bad.csv"
        path.write_text("1,2,0.5\n1,2,3,0.5\n")
        with SQLiteBackend(":memory:") as backend:
            with pytest.raises(ValueError, match="inconsistent arity"):
                ingest_csv(backend, str(path))
            assert "Bad" not in backend.relation_names()

    def test_directory_ingest_is_all_or_nothing(self, tmp_path):
        """A malformed file mid-directory must not leave a half-loaded
        backend that a later warm start would mistake for complete."""
        directory = tmp_path / "d"
        os.makedirs(directory)
        (directory / "A.csv").write_text("1,2,0.5\n")
        (directory / "M.csv").write_text("1,2,0.5\n1,2,3,0.5\n")  # ragged
        (directory / "Z.csv").write_text("3,4,0.5\n")
        with SQLiteBackend(str(tmp_path / "d.db")) as backend:
            with pytest.raises(ValueError, match="inconsistent arity"):
                load_database(str(directory), backend=backend)
            assert backend.relation_names() == []


class TestDatabaseLevel:
    def test_load_database_into_backend(self, tmp_path):
        from repro.data.database import Database

        db = Database([
            Relation("R", 2, [(1, 2)], [1.0]),
            Relation("S", 2, [(2, 3)], [2.0]),
        ])
        save_database(db, str(tmp_path / "d"))
        with SQLiteBackend(str(tmp_path / "d.db")) as backend:
            loaded = load_database(str(tmp_path / "d"), backend=backend)
            assert loaded.backend is backend
            assert set(loaded.relations) == {"R", "S"}
            assert list(loaded["R"].rows()) == [((1, 2), 1.0)]
            # And the loaded database answers queries.
            from repro.engine import Engine

            results = Engine(loaded).execute(
                "Q(a, b, c) :- R(a, b), S(b, c)"
            )
            assert len(results) == 1 and results[0].weight == 3.0

    def test_save_database_streams_from_backend(self, tmp_path):
        with SQLiteBackend(str(tmp_path / "s.db")) as backend:
            backend.create("R", 2)
            backend.extend("R", [((1, 2), 0.5)])
            out = str(tmp_path / "out")
            save_database(backend.database(), out)
            assert os.path.exists(os.path.join(out, "R.csv"))
            loaded = read_relation_csv(
                os.path.join(out, "R.csv"), has_header=True
            )
            assert list(loaded.rows()) == [((1, 2), 0.5)]
