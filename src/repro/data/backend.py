"""Storage backends: where relation tuples physically live.

The any-k algorithms only need one sequential pass over each relation's
``(tuple, weight)`` rows plus cheap cardinality statistics (Section
2.3's linear-time preprocessing assumes nothing more); they are
agnostic to *where* the rows are stored.  This module makes that
boundary explicit:

* :class:`StorageBackend` is the protocol a backend implements —
  create/drop/append/extend for writes, and one batched read,
  :meth:`~StorageBackend.fetch_rows`, that every reader of a stored
  relation goes through.
* :class:`SQLiteBackend` persists relations to a ``.db`` file via the
  stdlib ``sqlite3`` module, using the paper's Appendix-B schema
  (columns ``a1..a_arity`` plus a weight column ``w``).  Relations
  loaded from it materialise lazily, so a prepared query can bind
  against a persistent dataset without an up-front full scan, and a
  second process gets a *cross-process warm start*: it reopens the
  ``.db`` file and skips CSV ingestion entirely.

Relations held in memory need no backend: a plain
:class:`~repro.data.database.Database` of list-backed
:class:`~repro.data.relation.Relation` objects is the in-memory store.

Backends store scalar values (int / float / str / bytes / None).
Richer weight domains (e.g. the lexicographic tuple weights) stay
in-memory only.

Every mutation through a backend bumps a per-relation *version
counter* that is persisted with the data.
:class:`~repro.data.relation.Relation` objects constructed from a
backend consult that counter, so the engine's prepared-query
invalidation (and each relation's column image, remade when its version
moves) stay sound even when several ``Relation`` views — including
``rename``-aliased copies — share one table.  Mutations through a
*different* backend instance (another process) are picked up on the
next open; within one process, route writes through one backend.
"""

from __future__ import annotations

import itertools
import re
import sqlite3
import threading
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.util import faults, resilience

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.data.database import Database
    from repro.data.relation import Relation

#: Shared retrier for transient SQLite errors (``locked`` / ``busy``).
_SQLITE_RETRIER = resilience.Retrier(
    attempts=4,
    base_delay=0.005,
    max_delay=0.1,
    retryable=resilience.transient_sqlite,
    label="sqlite",
)

#: Rows per ``fetchmany`` of :meth:`SQLiteBackend.fetch_rows`.
FETCH_BATCH = 4096

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
#: Table names a backend may never hand to user data.
_RESERVED_PREFIXES = ("sqlite_", "repro_")


def validate_identifier(name: str) -> str:
    """Return ``name`` if it is a safe SQL identifier, else raise.

    Relation names end up inside ``CREATE TABLE`` / ``INSERT`` /
    ``CREATE INDEX`` statements, where placeholders cannot be used;
    restricting them to ``[A-Za-z_][A-Za-z0-9_]*`` (minus reserved
    prefixes) closes the injection hole instead of trusting callers.
    """
    if not isinstance(name, str) or not _IDENTIFIER.match(name):
        raise ValueError(
            f"unsafe relation name {name!r}: must match "
            "[A-Za-z_][A-Za-z0-9_]*"
        )
    lowered = name.lower()
    if lowered.startswith(_RESERVED_PREFIXES):
        raise ValueError(
            f"relation name {name!r} uses a reserved prefix "
            f"{_RESERVED_PREFIXES}"
        )
    return name


def quote_identifier(name: str) -> str:
    """Validate ``name`` and wrap it in SQL double quotes."""
    return f'"{validate_identifier(name)}"'


@runtime_checkable
class StorageBackend(Protocol):
    """What a storage backend must provide to host relations.

    The contract mirrors what the paper's preprocessing phase consumes:
    one sequential pass over each relation (:meth:`fetch_rows`) — plus
    enough bookkeeping (arity, cardinality, a monotone per-relation
    version counter) for the engine's cache invalidation to observe
    every mutation.

    Row *position* is identity: the ``i``-th row of :meth:`fetch_rows`
    (counting across its batches) is tuple id ``i``, which witnesses and
    a stage's stored rows reference, so a backend reads in stable
    insertion order and never reorders or deletes rows in place; rows
    change only by appending, or by replacing a whole relation.
    """

    @property
    def core_path(self) -> str | None:
        """Where compiled enumeration cores persist for this store.

        ``None`` (the default) means the backend has no durable home for
        a ``.core`` sidecar — the engine's ``core_cache="auto"`` mode
        then disables warm-start persistence.  File-backed backends
        return a path *next to* their data file so the core travels
        (and is deleted) with it.
        """
        return None

    def relation_names(self) -> list[str]:
        """Names of all stored relations, in creation order."""
        ...

    def arity(self, name: str) -> int:
        """Number of value columns (excluding the weight) of ``name``."""
        ...

    def cardinality(self, name: str) -> int:
        """Number of stored rows of ``name`` (no materialisation)."""
        ...

    def version(self, name: str) -> int:
        """Monotone mutation counter for ``name`` (cache invalidation)."""
        ...

    def create(self, name: str, arity: int, replace: bool = False) -> None:
        """Create an empty relation (``replace=True`` drops any old one)."""
        ...

    def drop(self, name: str) -> None:
        """Remove the relation called ``name`` (KeyError if absent)."""
        ...

    def append(self, name: str, values: tuple, weight: Any = 0.0) -> None:
        """Append one row; bumps the relation's version counter."""
        ...

    def extend(self, name: str, rows: Iterable[tuple[tuple, Any]]) -> int:
        """Bulk-append ``(tuple, weight)`` rows (streaming; one version
        bump for the whole batch).  Returns the number of rows added."""
        ...

    def fetch_rows(self, name: str) -> Iterator[list[tuple]]:
        """Every row in insertion order, each as one flat tuple with the
        weight in the trailing position, in batches (lists of rows).

        The protocol's only read: a relation's column image
        (:mod:`repro.data.image`), the object builder and a view's
        ``tuples`` / ``rows()`` all read a backend-stored relation
        through this one call.  It is one statement in SQLite, fetched
        :data:`FETCH_BATCH` rows at a time, so no per-row Python call
        sits in the preprocessing hot loop and the rows of one batch at
        most are held at once.
        """
        ...

    def ingest(self, relation: "Relation", name: str | None = None) -> str:
        """Copy ``relation``'s rows in (replacing ``name``); returns name."""
        ...

    def relation(self, name: str) -> "Relation":
        """A :class:`Relation` view of the stored relation ``name``."""
        ...

    def database(self) -> "Database":
        """A :class:`Database` over every stored relation."""
        ...

    def close(self) -> None:
        """Release any held resources (idempotent)."""
        ...


class SQLiteBackend:
    """Relations persisted in one SQLite file (or ``:memory:``).

    Each relation is a table ``"name"(a1, .., a_arity, w)`` — the
    paper's Appendix-B schema.  Value columns are declared without a
    type, giving them BLOB affinity so ints, floats, and strings round
    trip unchanged.  Insertion order is identity: rows are only ever
    appended, so ``rowid == position + 1``, and ``ORDER BY rowid`` reads
    them in tuple-id order.

    A catalog table ``repro_relations`` records each relation's arity
    and a monotone version counter; the counter is mirrored in memory so
    the engine's per-execution version checks cost a dict lookup, not a
    query.  Reopening the file in another process reads the persisted
    counters back — the basis of cross-process warm starts.

    **Concurrency.**  A file-backed backend hands each thread its own
    connection (created on first use, WAL journal so concurrent readers
    never block the writer), which is what lets many serving sessions
    stream lazily from one ``.db`` at once — sqlite3 connections must
    not be stepped from two threads simultaneously, but one connection
    per thread side-steps that entirely.  ``:memory:`` databases exist
    per-connection, so they keep a single shared connection
    (``check_same_thread=False``; the sqlite library serialises access
    internally).  Catalog/metadata mutations are guarded by a lock in
    both modes.
    """

    CATALOG = "repro_relations"

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._closed = False
        self._lock = threading.RLock()
        self._local = threading.local()
        #: Open connections with their owning thread (None = shared),
        #: so dead threads' connections are reclaimed (see connection)
        #: and close() can shut every one down.
        self._connections: list[
            tuple[threading.Thread | None, sqlite3.Connection]
        ] = []
        #: Single shared connection for ":memory:" (per-thread
        #: connections would each see a distinct empty database).
        self._shared: sqlite3.Connection | None = None
        if path == ":memory:":
            self._shared = sqlite3.connect(path, check_same_thread=False)
            self._connections.append((None, self._shared))
        conn = self.connection
        conn.execute(
            f"CREATE TABLE IF NOT EXISTS {self.CATALOG} "
            "(name TEXT PRIMARY KEY, arity INTEGER NOT NULL, "
            "version INTEGER NOT NULL DEFAULT 0)"
        )
        conn.commit()
        #: In-memory mirror of the catalog: name -> [arity, version].
        self._meta: dict[str, list[int]] = {
            row[0]: [row[1], row[2]]
            for row in conn.execute(
                f"SELECT name, arity, version FROM {self.CATALOG} ORDER BY rowid"
            )
        }

    @property
    def core_path(self) -> str | None:
        """``<db-file>.core`` for file-backed stores, ``None`` in memory."""
        return None if self.path == ":memory:" else self.path + ".core"

    # -- internals -------------------------------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        """The calling thread's connection (raises after :meth:`close`).

        File-backed: one connection per thread, opened lazily.  Memory:
        the single shared connection.
        """
        if self._closed:
            raise RuntimeError(f"SQLiteBackend({self.path!r}) is closed")
        if self._shared is not None:
            return self._shared
        conn = getattr(self._local, "conn", None)
        if conn is None:
            # check_same_thread=False so close() (from whichever thread
            # owns the backend) may close connections opened by others;
            # each connection is still *used* by its opening thread only.
            conn = sqlite3.connect(self.path, check_same_thread=False)
            conn.execute("PRAGMA busy_timeout = 10000")
            conn.execute("PRAGMA journal_mode = WAL")
            with self._lock:
                if self._closed:
                    conn.close()
                    raise RuntimeError(
                        f"SQLiteBackend({self.path!r}) is closed"
                    )
                # Reclaim connections whose owning thread exited (a
                # serve process sees steady thread churn; without this
                # the handle count grows until EMFILE).
                dead = [
                    entry
                    for entry in self._connections
                    if entry[0] is not None and not entry[0].is_alive()
                ]
                for entry in dead:
                    self._connections.remove(entry)
                self._connections.append((threading.current_thread(), conn))
            for _owner, stale in dead:
                stale.close()
            self._local.conn = conn
        return conn

    def _execute(self, sql: str, params: Sequence | None = None) -> sqlite3.Cursor:
        """Run one statement, retrying transient locked/busy errors.

        The ``sqlite.execute`` fault site sits *inside* the retried
        callable, so an injected ``database is locked`` storm exercises
        the same recovery path real WAL contention does.
        """
        conn = self.connection

        def attempt() -> sqlite3.Cursor:
            faults.hit("sqlite.execute")
            if params is None:
                return conn.execute(sql)
            return conn.execute(sql, params)

        return _SQLITE_RETRIER.call(attempt)

    def _executemany(self, sql: str, rows: Iterable[tuple]) -> sqlite3.Cursor:
        # No retry here: the row source may be a one-shot generator, so a
        # second attempt would silently insert a shorter batch.  Callers
        # roll back on failure instead.  Distinct fault site on purpose —
        # a ``sqlite.execute`` storm must only land on retried statements.
        faults.hit("sqlite.executemany")
        return self.connection.executemany(sql, rows)

    def _meta_of(self, name: str) -> list[int]:
        try:
            return self._meta[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r} in backend") from None

    def _bump(self, name: str) -> None:
        meta = self._meta_of(name)
        meta[1] += 1
        self._execute(
            f"UPDATE {self.CATALOG} SET version = ? WHERE name = ?",
            (meta[1], name),
        )

    @staticmethod
    def _columns(arity: int) -> list[str]:
        return [f"a{i + 1}" for i in range(arity)]

    # -- protocol --------------------------------------------------------------

    def relation_names(self) -> list[str]:
        return list(self._meta)

    def arity(self, name: str) -> int:
        return self._meta_of(name)[0]

    def cardinality(self, name: str) -> int:
        table = quote_identifier(name)
        self._meta_of(name)
        (count,) = self._execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        return count

    def version(self, name: str) -> int:
        return self._meta_of(name)[1]

    def create(self, name: str, arity: int, replace: bool = False) -> None:
        if arity < 1:
            raise ValueError("relation arity must be at least 1")
        with self._lock:
            self._create_locked(name, arity, replace)

    def _create_locked(self, name: str, arity: int, replace: bool) -> None:
        table = quote_identifier(name)
        conn = self.connection
        if name in self._meta:
            if not replace:
                raise ValueError(f"relation {name!r} already exists")
            # Replacement may shrink the cardinality; compensate in the
            # version counter so the (len + version) stamp the engine
            # sums for invalidation stays strictly monotone.
            (old_count,) = self._execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()
            old_version = self._meta[name][1] + old_count
            self._execute(f"DROP TABLE {table}")
            self._execute(
                f"DELETE FROM {self.CATALOG} WHERE name = ?", (name,)
            )
        else:
            old_version = -1
        columns = ", ".join(self._columns(arity) + ["w"])
        self._execute(f"CREATE TABLE {table} ({columns})")
        self._execute(
            f"INSERT INTO {self.CATALOG} (name, arity, version) VALUES (?, ?, ?)",
            (name, arity, old_version + 1),
        )
        conn.commit()
        self._meta[name] = [arity, old_version + 1]

    def drop(self, name: str) -> None:
        with self._lock:
            table = quote_identifier(name)
            self._meta_of(name)
            self._execute(f"DROP TABLE {table}")
            self._execute(f"DELETE FROM {self.CATALOG} WHERE name = ?", (name,))
            self.connection.commit()
            del self._meta[name]

    def append(self, name: str, values: tuple, weight: Any = 0.0) -> None:
        with self._lock:
            arity = self.arity(name)
            if len(values) != arity:
                raise ValueError(
                    f"tuple {values!r} does not match arity {arity} of {name}"
                )
            table = quote_identifier(name)
            placeholders = ", ".join("?" for _ in range(arity + 1))
            self._execute(
                f"INSERT INTO {table} VALUES ({placeholders})",
                tuple(values) + (weight,),
            )
            self._bump(name)
            self.connection.commit()

    def extend(self, name: str, rows: Iterable[tuple[tuple, Any]]) -> int:
        with self._lock:
            arity = self.arity(name)
            table = quote_identifier(name)
            placeholders = ", ".join("?" for _ in range(arity + 1))
            counter = itertools.count(1)
            count = 0

            def flat() -> Iterator[tuple]:
                nonlocal count
                for values, weight in rows:
                    if len(values) != arity:
                        raise ValueError(
                            f"tuple {values!r} does not match arity {arity} "
                            f"of {name}"
                        )
                    count = next(counter)
                    yield tuple(values) + (weight,)

            # executemany consumes the generator lazily: ingestion streams
            # through SQLite without materialising the batch in Python.
            try:
                self._executemany(
                    f"INSERT INTO {table} VALUES ({placeholders})", flat()
                )
            except BaseException:
                # A failing row source must not leave a partial batch in
                # the open transaction (the next unrelated commit would
                # persist it without any version bump).
                self.connection.rollback()
                raise
            if count:
                self._bump(name)
            self.connection.commit()
            return count

    def fetch_rows(self, name: str) -> Iterator[list[tuple]]:
        table = quote_identifier(name)
        self._meta_of(name)
        # ORDER BY rowid pins the insertion order the T-DP state
        # identity relies on.
        cursor = self._execute(f"SELECT * FROM {table} ORDER BY rowid")
        return iter(lambda: cursor.fetchmany(FETCH_BATCH), [])

    def ingest(self, relation: "Relation", name: str | None = None) -> str:
        name = name or relation.name
        self.create(name, relation.arity, replace=True)
        self.extend(name, relation.rows())
        return name

    def relation(self, name: str) -> "Relation":
        from repro.data.relation import Relation

        return Relation.from_backend(self, name)

    def database(self) -> "Database":
        from repro.data.database import Database

        return Database.from_backend(self)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections, self._connections = self._connections, []
            self._shared = None
        for _owner, conn in connections:
            conn.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self._meta)} relations"
        return f"SQLiteBackend({self.path!r}, {state})"
