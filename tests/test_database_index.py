"""Unit tests for Database."""

import pytest

from repro.data.database import Database
from repro.data.relation import Relation


def _rel(name, tuples):
    return Relation(name, len(tuples[0]), tuples, [0.0] * len(tuples))


class TestDatabase:
    def test_add_and_get(self):
        db = Database()
        db.add(_rel("R", [(1, 2)]))
        assert db["R"].tuples == [(1, 2)]
        assert "R" in db
        assert "S" not in db

    def test_missing_relation_raises(self):
        db = Database()
        with pytest.raises(KeyError, match="no relation named 'X'"):
            db["X"]

    def test_init_from_iterable(self):
        db = Database([_rel("A", [(1,)]), _rel("B", [(2,)])])
        assert len(db) == 2
        assert {r.name for r in db} == {"A", "B"}

    def test_init_from_mapping_renames(self):
        base = _rel("orig", [(1, 2)])
        db = Database({"renamed": base})
        assert db["renamed"].tuples == [(1, 2)]
        assert db["renamed"].name == "renamed"

    def test_max_cardinality(self):
        db = Database([_rel("A", [(1,), (2,)]), _rel("B", [(3,)])])
        assert db.max_cardinality() == 2
        assert db.max_cardinality(["B"]) == 1
        assert Database().max_cardinality() == 0

    def test_total_tuples(self):
        db = Database([_rel("A", [(1,), (2,)]), _rel("B", [(3,)])])
        assert db.total_tuples() == 3
