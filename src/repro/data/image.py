"""A relation's column image: what every lane bind reads.

Section 5 of the source paper counts in the RAM model, where a value is
atomic, so numbering the values changes nothing it counts.  A
:class:`ColumnImage` is one relation version as columns:

* ``codes`` — per attribute an int64 array.  An ``int`` within int64 is
  its own code; once a relation holds any other value every value is
  numbered, in :func:`~repro.ranking.dioid.ranking_order`, values equal
  under ``==`` and ``hash`` sharing a code as a dict join matches them
  (``code``: value -> code);
* ``weights`` — float64;
* ``values`` — where the codes are not the values, per attribute the
  value objects as read (``1.0`` stays ``1.0``), else ``None``;
* ``objects`` — the weight objects where some is not a ``float``
  (``weight_type`` names the first such type) or a relation's own list
  holds them, else ``None``.
"""

from __future__ import annotations

from itertools import chain
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

from repro.ranking.dioid import ranking_order


def _numbering(values: Iterable) -> dict:
    """Value -> code over the distinct ``values``, in ranking order."""
    return {value: code for code, value in enumerate(ranking_order(values))}


def object_table(rows: Sequence[Sequence], width: int) -> np.ndarray:
    """``rows`` (each ``width`` fields) as an ``(n, width)`` object array."""
    flat = np.fromiter(chain.from_iterable(rows), object, len(rows) * width)
    return flat.reshape(-1, width)


def code_table(table: np.ndarray) -> tuple[tuple, tuple | None, dict | None]:
    """``(codes, values, code)`` of ``table``, an ``(n, arity)`` object
    array of values (``values`` and ``code`` ``None`` where every value
    is an ``int`` within int64, its own code)."""
    if not set(map(type, table.ravel())) - {int}:
        try:
            return tuple(table.T.astype(np.int64, order="C")), None, None
        except OverflowError:
            pass
    code = _numbering(table.ravel())
    flat = table.T.ravel()  # attribute by attribute
    codes = np.fromiter(map(code.__getitem__, flat), np.int64, flat.size)
    return tuple(codes.reshape(table.shape[::-1])), tuple(table.T), code


class ColumnImage:
    """One relation version as columns (see the module docstring)."""

    __slots__ = ("codes", "weights", "values", "code", "objects", "weight_type")

    def __init__(self, codes, weights, values=None, code=None, objects=None,
                 weight_type=None):
        self.codes = tuple(codes)
        self.weights = weights
        self.values = None if values is None else tuple(values)
        self.code = code
        self.objects = objects
        self.weight_type = weight_type

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def read(cls, name: str, table: np.ndarray, weights: Sequence) -> "ColumnImage":
        """The image of ``table`` (an ``(n, arity)`` object array) and its
        ``weights``; a weight that is not a real number is a
        ``TypeError`` naming ``name``."""
        kinds = sorted(set(map(type, weights)) - {float}, key=lambda k: k.__name__)
        for kind in kinds:
            if not issubclass(kind, Real):
                raise TypeError(f"{name} holds a weight of type {kind.__name__}")
        codes, values, code = code_table(table)
        return cls(
            codes, np.array(weights, np.float64).reshape(-1), values, code,
            list(weights) if kinds else None, kinds[0].__name__ if kinds else None,
        )

    @classmethod
    def fetched(cls, name: str, batches: Iterable[list], arity: int) -> "ColumnImage":
        """The image of a backend's ``batches`` of flat rows (the weight
        last), made once the last batch is in."""
        parts = [object_table(batch, arity + 1) for batch in batches]
        table = np.concatenate(parts) if parts else np.empty((0, arity + 1), object)
        return cls.read(name, np.ascontiguousarray(table[:, :-1]), table[:, -1])

    def extended(self, name: str, tuples: Sequence[tuple], weights: Sequence):
        """This image with ``tuples`` and ``weights`` appended, or ``None``
        where a rebuild must number a new value or name a weight that is
        not a real number."""
        table = object_table(tuples, len(self.codes))
        try:
            more = ColumnImage.read(name, table, weights)
        except TypeError:
            return None
        codes, values = more.codes, None
        if (self.code is None) != (more.code is None):
            return None
        if self.code is not None:
            if not more.code.keys() <= self.code.keys():
                return None
            remap = np.fromiter(map(self.code.__getitem__, more.code), np.int64)
            codes = [remap[column] for column in codes]
            values = map(np.concatenate, zip(self.values, more.values))
        objects = None
        if self.objects is not None or more.objects is not None:
            objects = [*(self.objects or self.weights.tolist()),
                       *(more.objects or more.weights.tolist())]
        return ColumnImage(
            map(np.concatenate, zip(self.codes, codes)),
            np.concatenate([self.weights, more.weights]), values, self.code, objects,
            min(filter(None, (self.weight_type, more.weight_type)), default=None),
        )

    def weight_list(self, ids=None) -> list:
        """The stored weights of rows ``ids`` (``None``: every row)."""
        if self.objects is None:
            return (self.weights if ids is None else self.weights[ids]).tolist()
        if ids is None:
            return list(self.objects)
        return list(map(self.objects.__getitem__, ids.tolist()))


def shared_codes(coded: Sequence[tuple]) -> tuple[list[tuple], dict | None]:
    """``coded`` — a ``(codes, code)`` pair per relation of a bind — over
    one code space: ``(codes per pair, code)``.

    Kept where no pair numbers its values, or where all share one
    numbering; else the distinct values of every pair are numbered
    together in ranking order and each pair's codes remapped: O(distinct)
    Python work, the rows moved by one numpy gather each.
    """
    if len({id(code) for _codes, code in coded}) <= 1:
        return [codes for codes, _code in coded], coded[0][1] if coded else None
    distinct = [
        list(code) if code is not None else np.unique(np.concatenate(codes)).tolist()
        for codes, code in coded
    ]
    number = _numbering(chain.from_iterable(distinct))
    shared = []
    for (codes, code), values in zip(coded, distinct):
        remap = np.fromiter(map(number.__getitem__, values), np.int64, len(values))
        if code is None:  # an int's position among the distinct ints, ascending
            ints = np.array(values, np.int64)
            codes = [ints.searchsorted(column) for column in codes]
        shared.append(tuple(remap[column] for column in codes))
    return shared, number
