"""Linear-time hash indexes for constant-time tuple lookup (Section 2.3).

The paper's cost model assumes a structure "built in linear time to
support tuple lookups in constant time"; in practice this is hashing.
:class:`HashIndex` maps the projection of a tuple onto an attribute
subset to the list of matching tuple positions.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.data.relation import Relation


def _key_tuples(rows: Sequence[tuple], columns: tuple[int, ...]) -> Iterator[tuple]:
    """Each row's projection onto ``columns``, as a tuple (one C pass)."""
    if not columns:
        return iter([()] * len(rows))
    return zip(*(map(itemgetter(c), rows) for c in columns))


class HashIndex:
    """Hash index of a relation on a subset of its columns.

    ``index[key]`` returns the (possibly empty) list of tuple positions
    whose projection onto ``columns`` equals ``key``.  Keys are tuples,
    even for single columns, so composite equi-joins are uniform.
    """

    __slots__ = ("relation", "columns", "_buckets")

    def __init__(self, relation: Relation, columns: Sequence[int]):
        self.relation = relation
        self.columns = tuple(columns)
        buckets: dict[tuple, list[int]] = {}
        for position, key in enumerate(_key_tuples(relation.tuples, self.columns)):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [position]
            else:
                bucket.append(position)
        self._buckets = buckets

    def lookup(self, key: tuple) -> list[int]:
        """Positions of tuples matching ``key`` (empty list if none)."""
        return self._buckets.get(key, [])

    def __getitem__(self, key: tuple) -> list[int]:
        return self.lookup(key)

    def __contains__(self, key: tuple) -> bool:
        return key in self._buckets

    def keys(self) -> Iterable[tuple]:
        """All distinct join keys present in the relation."""
        return self._buckets.keys()

    def __len__(self) -> int:
        return len(self._buckets)
