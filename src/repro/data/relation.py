"""Relations with per-tuple weights, over pluggable storage.

A :class:`Relation` is an ordered multiset of fixed-arity tuples, each
carrying a weight from the ranking domain (Definition 4 assigns result
weights by aggregating input-tuple weights).  Tuples are plain Python
tuples of hashable values; weights default to ``0.0`` (the tropical
``one``) when not given.

Tuples either live directly in Python lists (the default, and the
in-memory fast path the algorithms were written against) or in a
:class:`~repro.data.backend.StorageBackend` (e.g. a SQLite file), in
which case the relation is a *lazy view*: ``rows()`` streams the
backend's ``fetch_rows`` batches without materialising, while
``tuples``/``weights`` materialise from them on first access and
transparently refresh when the backend-side version counter shows the
table changed underneath them.  A view changes its table only by
:meth:`Relation.add`; assigning its ``tuples`` or ``weights`` raises.

Every lane bind reads a relation's **column image** (:attr:`Relation.arrays`,
:mod:`repro.data.image`), made once per relation version — from the
lists, or from one batched ``fetch_rows`` of a backend view — and kept
only once whole.  :meth:`Relation.add` extends it; assigning an
in-memory relation's ``tuples`` or ``weights`` drops it and bumps
:attr:`Relation.version` (a list
changed in place is out-of-band: :meth:`~repro.data.database.Database.touch`).  A weight
that is not a real number makes reading it a ``TypeError``.  A
*column-backed* relation (:meth:`Relation.from_columns`, the cycle
decomposition's bags) is stored as its image, and ``tuples`` /
``weights`` are made from it only when something reads them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.data.image import ColumnImage, object_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.backend import StorageBackend


class Relation:
    """A named relation: fixed arity, list of tuples, parallel weight list.

    The tuple order is meaningful only as an identity (tuple index ``i``
    is the stable id used by witnesses); the relation itself is a
    multiset, so duplicate tuples are allowed and keep distinct weights.
    """

    __slots__ = (
        "name", "arity", "backend", "_table", "_tuples", "_weights",
        "_version", "_cardinality", "_image", "_image_version",
    )

    def __init__(
        self,
        name: str,
        arity: int,
        tuples: Sequence[tuple] | None = None,
        weights: Sequence[Any] | None = None,
    ):
        if arity < 1:
            raise ValueError("relation arity must be at least 1")
        self.name = name
        self.arity = arity
        #: Storage backend this relation is a view of (None = plain lists).
        self.backend: StorageBackend | None = None
        #: Backend-side table name (may differ from ``name`` after
        #: :meth:`rename`, which aliases the same stored table).
        self._table = name
        self._cardinality: tuple[int, int] | None = None
        #: The column image, and the :attr:`version` it was made at.
        self._image: ColumnImage | None = None
        self._image_version = 0
        self._tuples: list[tuple] | None = [tuple(t) for t in (tuples or [])]
        for t in self._tuples:
            if len(t) != arity:
                raise ValueError(
                    f"tuple {t!r} does not match arity {arity} of {name}"
                )
        if weights is None:
            self._weights: list[Any] | None = [0.0] * len(self._tuples)
        else:
            self._weights = list(weights)
        if len(self._weights) != len(self._tuples):
            raise ValueError(
                f"{name}: {len(self._tuples)} tuples but "
                f"{len(self._weights)} weights"
            )
        self._version = 0

    # -- backend plumbing ------------------------------------------------------

    @classmethod
    def from_backend(
        cls, backend: "StorageBackend", name: str, table: str | None = None
    ) -> "Relation":
        """A lazy view of the stored relation ``table`` (default: ``name``).

        Nothing is read up front beyond the arity; tuples materialise on
        first ``tuples``/``weights`` access, and ``rows()`` streams the
        fetched batches without materialising at all.
        """
        table = table or name
        relation = cls(name, backend.arity(table))
        relation.backend = backend
        relation._table = table
        relation._tuples = None
        relation._weights = None
        relation._version = backend.version(table)
        return relation

    @classmethod
    def from_columns(cls, name: str, image: ColumnImage) -> "Relation":
        """A relation stored as ``image``; ``tuples`` / ``weights`` are
        materialised from it on first read (see :attr:`arrays`)."""
        relation = cls(name, len(image.codes))
        relation._tuples = relation._weights = None
        relation._image = image
        return relation

    @property
    def arrays(self) -> ColumnImage:
        """The column image of this version, made on first read (rows
        appended to the lists since then extend it)."""
        image, version = self._image, self.version
        stale = self.backend is not None and self._image_version != version
        if image is None or stale:
            image = self._read_image()
        elif self._tuples is not None and len(image) < len(self._tuples):
            n = len(image)
            image = image.extended(
                self.name, self._tuples[n:], self._weights[n:]
            ) or self._read_image()
        if self._weights is not None:
            # The stored objects: a lowered core's state values share them.
            image.objects = self._weights
        self._image, self._image_version = image, version
        return image

    def _read_image(self) -> ColumnImage:
        """A new image: from the backend's one ``fetch_rows`` for an
        unmaterialised view, else from the lists."""
        if self.backend is not None and self._tuples is None:
            rows = self.backend.fetch_rows(self._table)
            return ColumnImage.fetched(self.name, rows, self.arity)
        tuples = self.tuples
        table = object_table(tuples, self.arity)
        return ColumnImage.read(self.name, table, self.weights)

    def _from_image(self) -> None:
        """Materialise ``tuples`` / ``weights`` from the image."""
        image = self._image
        columns = image.codes if image.values is None else image.values
        self._tuples = list(zip(*[column.tolist() for column in columns]))
        self._weights = image.weight_list()

    @property
    def table(self) -> str:
        """The backend-side table this relation reads (== name unless aliased)."""
        return self._table

    @property
    def is_materialized(self) -> bool:
        """Whether the tuples currently live in local Python lists."""
        return self._tuples is not None

    def _refresh(self) -> None:
        """(Re)materialise from the backend when absent or stale."""
        current = self.backend.version(self._table)
        if self._tuples is not None and self._version == current:
            return
        self.arity = self.backend.arity(self._table)
        tuples: list[tuple] = []
        weights: list[Any] = []
        for batch in self.backend.fetch_rows(self._table):
            tuples.extend(row[:-1] for row in batch)
            weights.extend(row[-1] for row in batch)
        self._tuples = tuples
        self._weights = weights
        self._version = current
        self._cardinality = None

    @property
    def tuples(self) -> list[tuple]:
        if self.backend is not None:
            self._refresh()
        elif self._tuples is None:
            self._from_image()
        return self._tuples

    @tuples.setter
    def tuples(self, value: list[tuple]) -> None:
        self._replace("tuples")
        self._tuples = value
        self._cardinality = None

    @property
    def weights(self) -> list[Any]:
        if self.backend is not None:
            self._refresh()
        elif self._weights is None:
            self._from_image()
        return self._weights

    @weights.setter
    def weights(self, value: list[Any]) -> None:
        self._replace("weights")
        self._weights = value

    def _replace(self, field: str) -> None:
        """Before a list is replaced: the lists become the storage, the
        image is dropped and the version bumps.

        A stored relation's rows are append-only and their position is
        their identity, so its lists cannot be replaced: the new list
        would reach neither the table nor any version counter.
        """
        if self.backend is not None:
            raise TypeError(
                f"cannot assign {field} of {self.name!r}: it is stored in "
                f"{self.backend!r}; append with add(), or replace the "
                "whole relation with the backend's ingest()"
            )
        if self._tuples is None:
            self._from_image()
        self._image = None
        self._version += 1

    @property
    def version(self) -> int:
        """Mutation counter: bumped by :meth:`add` and by assigning
        ``tuples`` or ``weights``.

        Together with ``len(self)`` this stamps the relation's content
        for cache invalidation (engine plan cache, column image).  For a
        backend-stored relation the counter is the *backend's*, so
        mutations through any view of the same table — including
        ``rename``-aliased copies — are observed by every view.
        """
        if self.backend is not None:
            return self.backend.version(self._table)
        return self._version

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_pairs(
        cls,
        name: str,
        pairs: Iterable[tuple],
        weights: Sequence[Any] | None = None,
    ) -> "Relation":
        """Build a binary relation (the common case for graph edges)."""
        tuples = [tuple(p) for p in pairs]
        return cls(name, 2, tuples, weights)

    def add(self, values: tuple, weight: Any = 0.0) -> None:
        """Append one tuple with its weight (write-through when backed)."""
        values = tuple(values)
        if len(values) != self.arity:
            raise ValueError(
                f"tuple {values!r} does not match arity {self.arity}"
            )
        if self.backend is not None:
            before = self.backend.version(self._table)
            self.backend.append(self._table, values, weight)
            if self._image is not None and self._image_version == before:
                self._image = self._image.extended(self.name, [values], [weight])
                self._image_version = self.backend.version(self._table)
            if self._tuples is not None:
                if self._version == before:
                    # Local copy was current: extend it in place and
                    # stamp it valid for the new backend version.
                    self._tuples.append(values)
                    self._weights.append(weight)
                    self._version = self.backend.version(self._table)
                else:
                    # An aliased view mutated the table since we
                    # materialised; drop the stale copy instead of
                    # appending to it.
                    self._tuples = None
                    self._weights = None
            self._cardinality = None
            return
        if self._tuples is None:
            self._from_image()
        self._tuples.append(values)
        self._weights.append(weight)
        self._version += 1

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        if self.backend is None:
            if self._tuples is None:
                return len(self._image)
            return len(self._tuples)
        if self._tuples is not None:
            # Materialised view: refresh if another view of the same
            # table mutated it (no-op when the version still matches).
            self._refresh()
            return len(self._tuples)
        # Unmaterialised: COUNT(*) on the backend, cached per version.
        current = self.backend.version(self._table)
        if self._cardinality is None or self._cardinality[0] != current:
            self._cardinality = (
                current, self.backend.cardinality(self._table)
            )
        return self._cardinality[1]

    def __iter__(self) -> Iterator[tuple]:
        if self._tuples is None and self.backend is not None:
            return (values for values, _weight in self.rows())
        return iter(self.tuples)

    def rows(self) -> Iterator[tuple[tuple, Any]]:
        """Iterate ``(tuple, weight)`` pairs.

        For an unmaterialised backend relation this streams the
        backend's ``fetch_rows`` batches — the single pass the T-DP
        bottom-up build needs — without pulling the relation into
        memory.
        """
        if self.backend is None:
            return zip(self.tuples, self._weights)
        if self._tuples is None:
            batches = self.backend.fetch_rows(self._table)
            return ((row[:-1], row[-1]) for batch in batches for row in batch)
        self._refresh()
        return zip(self._tuples, self._weights)

    def __repr__(self) -> str:
        where = "" if self.backend is None else f", backend={self.backend!r}"
        try:
            n: object = len(self)
        except Exception:  # e.g. the owning backend was closed
            n = "?"
        return f"Relation({self.name!r}, arity={self.arity}, n={n}{where})"

    # -- relational operations -------------------------------------------------

    def rename(self, name: str) -> "Relation":
        """A shallow copy under a different name (for self-joins).

        The copy shares storage: the tuple/weight lists in memory, or
        the backend table for a backend-stored relation (where version
        counters keep every alias coherent — see :attr:`version`).
        """
        copy = Relation(name, self.arity)
        copy.backend = self.backend
        copy._table = self._table
        copy._tuples = self._tuples
        copy._weights = self._weights
        copy._image = self._image
        copy._image_version = self._image_version
        copy._version = self._version
        return copy

    def filter(self, predicate: Callable[[tuple], bool], name: str | None = None) -> "Relation":
        """Selection: keep tuples satisfying ``predicate`` (materialised)."""
        out = Relation(name or self.name, self.arity)
        for values, weight in self.rows():
            if predicate(values):
                out._tuples.append(values)
                out._weights.append(weight)
        return out

    def project(
        self,
        columns: Sequence[int],
        name: str | None = None,
        distinct: bool = True,
        default_weight: Any = 0.0,
    ) -> "Relation":
        """Projection onto ``columns``.

        Projected relations are structural (e.g. the extra atoms a
        free-connex join tree introduces, Example 19), so by default the
        result is duplicate-free and all weights are ``default_weight`` —
        weights must not be double counted across atoms.
        """
        out = Relation(name or f"{self.name}_proj", len(columns))
        seen: set[tuple] = set()
        for values in self:
            projected = tuple(values[c] for c in columns)
            if distinct:
                if projected in seen:
                    continue
                seen.add(projected)
            out._tuples.append(projected)
            out._weights.append(default_weight)
        return out

    def column_values(self, column: int) -> set:
        """Distinct values appearing in ``column``."""
        return {values[column] for values in self}
