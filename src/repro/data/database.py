"""A database is a name-indexed collection of relations."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.data.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.backend import StorageBackend


class Database:
    """Named relations plus the derived statistics the algorithms need.

    ``n`` in the paper's cost model is the maximum cardinality of any
    relation referenced by the query; :meth:`max_cardinality` provides it.

    A database may be a plain in-memory collection (the default) or a
    view over a :class:`~repro.data.backend.StorageBackend`
    (:meth:`from_backend`), in which case its relations read lazily from
    the backing store and :attr:`version` still observes every mutation
    made through any view of the store.
    """

    def __init__(self, relations: Mapping[str, Relation] | Iterable[Relation] | None = None):
        self.relations: dict[str, Relation] = {}
        #: The storage backend this database was opened from (if any).
        self.backend: StorageBackend | None = None
        self._structure_version = 0
        if relations is None:
            return
        if isinstance(relations, Mapping):
            for name, relation in relations.items():
                if name != relation.name:
                    relation = relation.rename(name)
                self.relations[name] = relation
        else:
            for relation in relations:
                self.add(relation)

    @classmethod
    def from_backend(cls, backend: "StorageBackend") -> "Database":
        """Open every relation stored in ``backend`` as one database.

        Relations come back as the backend's lazy views, so no tuples
        are read until an execution needs them — opening a large
        persistent ``.db`` file is O(#relations), not O(data).  (An
        in-memory database needs no backend: build it from relations.)
        """
        database = cls(
            [backend.relation(name) for name in backend.relation_names()]
        )
        database.backend = backend
        return database

    def close(self) -> None:
        """Close the owning backend, if any (idempotent)."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def version(self) -> int:
        """Monotone mutation counter covering the whole database.

        Bumped by structural changes (:meth:`add`, :meth:`remove`) and by
        tuple insertions on any contained relation.  The sum includes
        each relation's *cardinality* as well as its mutation counter, so
        insertions are observed even through an aliased :meth:`Relation.rename`
        copy that shares tuple storage (as ``Database({"E": rel})``
        creates).  The engine stamps prepared queries with this value, so
        any mutation soundly invalidates cached plans, T-DPs, and indexes
        on the next execution.
        """
        return self._structure_version + sum(
            len(relation) + relation.version
            for relation in self.relations.values()
        )

    def touch(self) -> None:
        """Force a version bump (for out-of-band mutation of relations,
        such as a list changed in place): the column image of every
        relation that keeps lists is dropped, to be made anew."""
        self._structure_version += 1
        for relation in self.relations.values():
            if relation.is_materialized:
                relation._image = None

    def add(self, relation: Relation) -> None:
        """Register ``relation`` under its own name (replacing any old one)."""
        old = self.relations.get(relation.name)
        self.relations[relation.name] = relation
        # Replacing a relation may *lower* the summed (len + version)
        # contribution; compensate so the total stays strictly monotone.
        self._structure_version += 1 + (
            len(old) + old.version if old is not None else 0
        )

    def remove(self, name: str) -> None:
        """Drop the relation called ``name`` (KeyError if absent)."""
        relation = self[name]
        del self.relations[name]
        self._structure_version += 1 + len(relation) + relation.version

    def __getitem__(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r} in database") from None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)

    def max_cardinality(self, names: Iterable[str] | None = None) -> int:
        """The paper's ``n``: the largest referenced relation."""
        if names is None:
            names = self.relations.keys()
        sizes = [len(self.relations[name]) for name in names]
        return max(sizes, default=0)

    def total_tuples(self) -> int:
        """Total number of stored tuples across all relations."""
        return sum(len(r) for r in self.relations.values())

    def __repr__(self) -> str:
        def size(relation: Relation) -> object:
            try:
                return len(relation)
            except Exception:  # e.g. the owning backend was closed
                return "?"

        inner = ", ".join(
            f"{name}[{size(rel)}]" for name, rel in self.relations.items()
        )
        return f"Database({inner})"
