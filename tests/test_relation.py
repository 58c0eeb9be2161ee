"""Unit tests for the relational substrate (Relation)."""

import pytest

from repro.data.relation import Relation


def test_construction_and_len():
    r = Relation("R", 2, [(1, 2), (3, 4)], [1.0, 2.0])
    assert len(r) == 2
    assert r.arity == 2
    assert list(r) == [(1, 2), (3, 4)]
    assert list(r.rows()) == [((1, 2), 1.0), ((3, 4), 2.0)]


def test_default_weights_are_zero():
    r = Relation("R", 1, [(1,), (2,)])
    assert r.weights == [0.0, 0.0]


def test_arity_validation():
    with pytest.raises(ValueError):
        Relation("R", 0)
    with pytest.raises(ValueError):
        Relation("R", 2, [(1,)])
    r = Relation("R", 2)
    with pytest.raises(ValueError):
        r.add((1, 2, 3))


def test_weight_length_validation():
    with pytest.raises(ValueError):
        Relation("R", 1, [(1,)], [1.0, 2.0])


def test_from_pairs():
    r = Relation.from_pairs("E", [(1, 2), (2, 3)], [0.5, 0.7])
    assert r.arity == 2
    assert r.tuples == [(1, 2), (2, 3)]


def test_add_appends():
    r = Relation("R", 2)
    r.add((1, 2), 3.5)
    assert r.tuples == [(1, 2)]
    assert r.weights == [3.5]


def test_rename_shares_storage():
    r = Relation("R", 2, [(1, 2)], [1.0])
    s = r.rename("S")
    assert s.name == "S"
    r.add((3, 4), 2.0)
    assert s.tuples == [(1, 2), (3, 4)], "rename must share tuple storage"


def test_filter():
    r = Relation("R", 2, [(1, 2), (2, 2), (3, 1)], [1.0, 2.0, 3.0])
    f = r.filter(lambda t: t[1] == 2)
    assert f.tuples == [(1, 2), (2, 2)]
    assert f.weights == [1.0, 2.0]


def test_project_distinct_default_weight():
    r = Relation("R", 2, [(1, 2), (1, 3), (2, 3)], [5.0, 6.0, 7.0])
    p = r.project([0], name="P", default_weight=0.0)
    assert p.tuples == [(1,), (2,)]
    assert p.weights == [0.0, 0.0]


def test_project_keeps_duplicates_when_asked():
    r = Relation("R", 2, [(1, 2), (1, 3)], [5.0, 6.0])
    p = r.project([0], distinct=False)
    assert p.tuples == [(1,), (1,)]


def test_project_column_order():
    r = Relation("R", 3, [(1, 2, 3)], [0.0])
    p = r.project([2, 0])
    assert p.tuples == [(3, 1)]


def test_column_values():
    r = Relation("R", 2, [(1, 2), (1, 3), (4, 2)], [0, 0, 0])
    assert r.column_values(0) == {1, 4}
    assert r.column_values(1) == {2, 3}


def test_repr_contains_name_and_size():
    r = Relation("Edges", 2, [(1, 2)], [0.0])
    assert "Edges" in repr(r)
    assert "n=1" in repr(r)
