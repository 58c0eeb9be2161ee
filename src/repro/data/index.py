"""Linear-time hash indexes for constant-time tuple lookup (Section 2.3).

The paper's cost model assumes a structure "built in linear time to
support tuple lookups in constant time"; in practice this is hashing.
:class:`HashIndex` maps the projection of a tuple onto an attribute
subset to the list of matching tuple positions.
"""

from __future__ import annotations

from collections import Counter
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

    def items(self) -> Iterable[tuple[tuple, list[int]]]:
        """``(key, positions)`` pairs — e.g. for degree statistics."""
        return self._buckets.items()

    def __len__(self) -> int:
        return len(self._buckets)

    def max_bucket(self) -> int:
        """Size of the largest bucket (degree statistics for heavy/light)."""
        return max(map(len, self._buckets.values()), default=0)


class IndexCache:
    """Memoised :class:`HashIndex` builds, keyed by relation content.

    The cache key is ``(relation name, columns)``; each entry is stamped
    with ``(id(relation), len(relation), relation.version)`` at build
    time and is rebuilt transparently when the stamp no longer matches:
    ``version``/``len`` catch :meth:`Relation.add`, and the object
    identity catches replacing a relation with a fresh same-name,
    same-cardinality one.  (The cached :class:`HashIndex` holds a
    reference to the stamped relation, so its ``id`` cannot be recycled
    while the entry lives.)  One instance lives on each
    :class:`~repro.engine.engine.Engine`, letting repeated preparations
    share the linear-time index builds of Section 2.3.
    """

    __slots__ = ("_indexes", "_degrees", "hits", "misses", "pushdowns")

    def __init__(self):
        self._indexes: dict[tuple, tuple[tuple, HashIndex]] = {}
        #: Memoised degree statistics: ``(stamp, counts, relation)``.
        self._degrees: dict[tuple, tuple[tuple, dict[tuple, int], Relation]] = {}
        self.hits = 0
        self.misses = 0
        #: Degree-statistics requests answered server-side by a backend.
        self.pushdowns = 0

    def get(self, relation: Relation, columns: Sequence[int]) -> HashIndex:
        """The index of ``relation`` on ``columns`` (built at most once)."""
        columns = tuple(columns)
        key = (relation.name, columns)
        stamp = (id(relation), len(relation), relation.version)
        entry = self._indexes.get(key)
        if entry is not None and entry[0] == stamp:
            self.hits += 1
            return entry[1]
        index = HashIndex(relation, columns)
        self._indexes[key] = (stamp, index)
        self.misses += 1
        return index

    def degrees(self, relation: Relation, columns: Sequence[int]) -> dict[tuple, int]:
        """Occurrence count per distinct key of ``relation`` on ``columns``.

        This is the degree information behind the heavy/light threshold
        of the cycle decomposition (Section 5.2).  For a backend-stored,
        not-yet-materialised relation the counts are computed *server
        side* (SQL ``GROUP BY`` for SQLite) so asking for statistics
        does not force the relation into memory.  Otherwise they are
        counted over the key column in one pass, building no index.
        Either way they are memoised, stamped like the indexes.
        """
        columns = tuple(columns)
        backend = relation.backend
        in_memory = backend is None or relation.is_materialized
        if in_memory:
            stamp = (id(relation), len(relation), relation.version)
        else:
            stamp = (id(relation), relation.version)
        key = (relation.name, columns, in_memory)
        entry = self._degrees.get(key)
        if entry is not None and entry[0] == stamp:
            self.hits += 1
            return entry[1]
        if not in_memory:
            self.pushdowns += 1
            counts = backend.degree_statistics(relation.table, columns)
        else:
            self.misses += 1
            counts = dict(Counter(_key_tuples(relation.tuples, columns)))
        # The entry holds the relation, so its ``id`` stays its own.
        self._degrees[key] = (stamp, counts, relation)
        return counts

    def clear(self) -> None:
        self._indexes.clear()
        self._degrees.clear()

    def __len__(self) -> int:
        return len(self._indexes)
