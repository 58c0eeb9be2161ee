"""Compiled-core buffers: mmap persistence.

A :class:`~repro.dp.flat.CompiledTDP` is, deliberately, a bundle of flat
arrays (see that module's docstring) — the direct lowering of
:mod:`repro.dp.lower` produces nothing else.  This module gives those
arrays a zero-copy lifecycle:

* **Section buffers** — :class:`SectionWriter` packs named typed arrays
  into one contiguous, 8-byte-aligned buffer with a ``{name: (offset,
  count, typecode)}`` manifest; :class:`SectionView` hands back
  ``memoryview.cast`` views over *any* buffer (bytes, ``mmap``)
  without copying.  Indexing a cast view yields native Python
  ``float``/``int`` — never a wrapper type — which is what keeps
  warm-started enumeration bit-identical to a cold rebuild.
* **mmap persistence** (:class:`CoreFile` / :class:`CoreCache`) — the
  same sections serialize to a ``<db>.core`` file next to the SQLite
  database.  Entries are keyed by the plan fingerprint and the dioid's
  registry name, and stamped with the
  ``Database.version`` they were built from; a cold process warm-starts
  by ``mmap``-ing the file and skips the bottom-up pass entirely, while a
  version mismatch reads as a miss and the rebuild rewrites the entry
  (atomic temp-file + ``os.replace``).

Only dioids registered in ``NAMED_DIOIDS`` whose lane has an inverse
(tropical min-plus, max-plus) are persistable: their cores are the
state and ``pi1`` value columns, the child uids, the entry pool's
``entry_key`` / ``entry_state`` columns and the rows result assembly
reads (a core without an inverse also holds entry values, least
entries and ranks, which no section stores; no section stores Take2's
heap layout either, so a mapped core heapifies a connector on first
touch), and the dioid must travel by registry name — ``id()`` and
pickled instances are not stable across processes.  The ``vk`` /
``pk`` sections hold *values* under the dioid's lane (a max-plus
weight, not its negation).

Preprocessing is a pure function of the database (Section 5), so its
output is stored whole: each stage's rows, state by state, are one
section per attribute — an int64 ``q`` column where every value is an
``int`` within int64 (:func:`~repro.data.image.code_table` says which),
else the attribute's value objects as one pickled ``B`` section (the
TOC is a pickle already; ``1.0`` stays ``1.0``).  A mapped core holds
what a cold bind holds: the kernels' typed columns are
``memoryview.cast`` views of the mapping, while the two things a held
answer's assembler captures — each stage's row store (a
:class:`~repro.dp.lower.ColumnRows`) and its tuple ids — are copied out,
so nothing reads a backend after the bind and no answer pins the mmap.

A ``.core`` entry is one plan's core (:func:`export_core` /
:func:`load_core`), rebuilt through :meth:`CompiledTDP.assemble`; stage
``s``'s sections are ``vk{s}`` / ``pk{s}`` / ``cu{s}`` / ``ids{s}`` and
``rows{s}.{attribute}``.  A file of an earlier ``CORE_FORMAT`` is a
miss, rewritten by the next cold bind.
"""

from __future__ import annotations

import gc
import mmap
import os
import pickle
import struct
import threading
from array import array

import numpy as np

from repro.data.image import code_table, object_table
from repro.dp.flat import CompiledTDP
from repro.dp.lower import ColumnRows
from repro.obs.metrics import Counter
from repro.ranking.dioid import NAMED_DIOIDS, SelectiveDioid, lane_of
from repro.util import faults
from repro.util.resilience import Retrier

#: Shared retrier for transient ``.core`` read errors.
_CORE_RETRIER = Retrier(
    attempts=3,
    base_delay=0.005,
    max_delay=0.05,
    # A missing file is a plain cache miss, not a transient fault —
    # retrying it would tax every cold start.
    retryable=lambda exc: isinstance(exc, OSError)
    and not isinstance(exc, FileNotFoundError),
    label="core_read",
)

#: ``<db>.core`` container magic + format version.  Bump the version on
#: any layout change: readers treat unknown versions as a cache miss.
CORE_MAGIC = b"RPROCORE"
CORE_FORMAT = 4

_ALIGN = 8
_HEADER = struct.Struct("<8sII")  # magic, format, TOC length


def _pad(size: int) -> int:
    return (-size) % _ALIGN


# -- section buffers -----------------------------------------------------------


#: Section typecode -> the numpy type its values are written as.
_DTYPES = {"d": np.float64, "q": np.int64}


class SectionWriter:
    """Packs named typed arrays into one aligned buffer + manifest.

    A typed column (an ``array``, a numpy array, a cast view) is held by
    reference until :meth:`getvalue` copies it, once, into the buffer.
    """

    def __init__(self):
        self._chunks: list = []
        self._size = 0
        self.manifest: dict[str, tuple[int, int, str]] = {}

    def add(self, name: str, typecode: str, values) -> None:
        """``values`` (numbers, or bytes under ``"B"``) as section ``name``."""
        if typecode == "B":
            data = np.frombuffer(values, np.uint8)
        else:
            data = np.ascontiguousarray(values, _DTYPES[typecode])
        pad = _pad(self._size)
        if pad:
            self._chunks.append(b"\x00" * pad)
            self._size += pad
        self.manifest[name] = (self._size, len(data), typecode)
        self._chunks.append(memoryview(data).cast("B"))
        self._size += data.nbytes

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


class SectionView:
    """Zero-copy typed views over a section buffer (any buffer protocol)."""

    def __init__(self, buffer, manifest: dict, base: int = 0):
        self._mv = memoryview(buffer)
        self._manifest = manifest
        self._base = base

    def view(self, name: str) -> memoryview:
        offset, count, typecode = self._manifest[name]
        itemsize = array(typecode).itemsize
        start = self._base + offset
        return self._mv[start:start + count * itemsize].cast(typecode)


# -- persistence keys ----------------------------------------------------------


def dioid_core_name(dioid: SelectiveDioid) -> str | None:
    """The registry name a persistable dioid travels under, or ``None``."""
    if lane_of(dioid)[0] is None or not dioid.has_inverse:
        return None
    for name, registered in NAMED_DIOIDS.items():
        if registered is dioid:
            return name
    return None


def core_key(query, dioid: SelectiveDioid) -> str | None:
    """A stable cache key for one (query, dioid) plan.

    ``None`` when the plan is not persistable (an unregistered dioid, or
    one whose lane has no inverse).  The query contributes its canonical
    fingerprint (PYTHONHASHSEED-independent).  The third slot is always
    ``None``, as earlier builds wrote it, so their entries still match.
    """
    name = dioid_core_name(dioid)
    if name is None:
        return None
    return repr((query.fingerprint(), name, None))


# -- export: compiled core -> sections + meta ----------------------------------


def _require_persistable(dioid: SelectiveDioid) -> str:
    name = dioid_core_name(dioid)
    if name is None:
        raise ValueError(f"{dioid!r} is not core-persistable")
    return name


def _state_rows(core: CompiledTDP, stage: int) -> list:
    """Stage ``stage``'s rows, state by state, as one column per
    attribute: int64 where every value is an ``int`` within int64, else
    the value objects."""
    rows = core.tuples[stage]
    if core.rows_by_id:  # a row store: keep the rows of the states
        ids = np.asarray(core.tuple_ids[stage], np.int64)
        if isinstance(rows, ColumnRows):
            return [column[ids] for column in rows.columns]
        rows = list(map(rows.__getitem__, ids.tolist()))
    arity = len(core.query.atoms[core.atom_of_stage[stage]].variables)
    codes, values, _code = code_table(object_table(rows, arity))
    return list(codes if values is None else values)


def export_core(core: CompiledTDP) -> tuple[dict, bytes]:
    """Serialize one core to ``(meta, sections)``.

    The file's pool is the core's columns as they are, stage 0's root
    connector last; stage ``s``'s state columns are ``vk{s}`` /
    ``pk{s}`` / ``cu{s}`` / ``ids{s}``, its rows ``rows{s}.{attribute}``
    (:func:`_state_rows`: ``q``, or a pickled ``B`` column of objects).
    """
    name = _require_persistable(core.dioid)
    writer = SectionWriter()
    writer.add("entry_key", "d", core.entry_key)
    writer.add("entry_state", "q", core.entry_state)
    writer.add("conn_offsets", "q", core.conn_offsets)
    writer.add("conn_stage", "q", core.conn_stage)
    for stage in range(core.num_stages):
        writer.add(f"vk{stage}", "d", core.val_base[stage])
        writer.add(f"pk{stage}", "d", core.pi1[stage])
        writer.add(f"cu{stage}", "q", core.child_uids[stage])
        writer.add(f"ids{stage}", "q", core.tuple_ids[stage])
        for attribute, column in enumerate(_state_rows(core, stage)):
            section = f"rows{stage}.{attribute}"
            if column.dtype == np.int64:
                writer.add(section, "q", column)
            else:
                payload = pickle.dumps(column, protocol=pickle.HIGHEST_PROTOCOL)
                writer.add(section, "B", payload)
    meta = {
        "dioid": name,
        "num_stages": core.num_stages,
        "order": list(core.atom_of_stage),
        "parent_stage": list(core.parent_stage),
        "root_uid": dict(core.root_uid),
        "best": core.best[0],
        "empty": core.empty,
        "manifest": writer.manifest,
    }
    return meta, writer.getvalue()


# -- import: sections + meta -> a mapped core ------------------------------------


def load_core(meta: dict, buffer, base: int, query, join_tree) -> CompiledTDP:
    """Rehydrate a stored core over the mapping.

    Every typed column the kernels read is a ``memoryview.cast`` view
    here; each stage's rows (a :class:`~repro.dp.lower.ColumnRows` read
    state by state) and tuple ids are copies, so a held answer's
    assembler holds no view of the mapping.  A ``KeyError`` where
    ``meta`` is not :func:`export_core`'s layout.
    """
    dioid = NAMED_DIOIDS[meta["dioid"]]
    sections = SectionView(buffer, meta["manifest"], base)
    order = list(meta["order"])
    stages = range(meta["num_stages"])

    def stage_views(kind: str) -> list:
        return [sections.view(f"{kind}{stage}") for stage in stages]

    def column(name: str):
        view = sections.view(name)
        return pickle.loads(view) if view.format == "B" else np.array(view)

    def row_store(stage: int) -> ColumnRows:
        arity = len(query.atoms[order[stage]].variables)
        return ColumnRows([column(f"rows{stage}.{a}") for a in range(arity)])

    def ids(view: memoryview) -> array:
        copied = array("q")
        copied.frombytes(view.cast("B"))
        return copied

    return CompiledTDP.assemble(
        dioid=dioid,
        query=query,
        join_tree=join_tree,
        atom_of_stage=order,
        parent_stage=list(meta["parent_stage"]),
        tuples=[row_store(stage) for stage in stages],
        tuple_ids=[ids(view) for view in stage_views("ids")],
        rows_by_id=False,
        lane=lane_of(dioid)[0],
        one=dioid.one,
        val_base=stage_views("vk"),
        pi1=stage_views("pk"),
        child_uids=stage_views("cu"),
        conn_stage=sections.view("conn_stage"),
        root_uid=dict(meta["root_uid"]),
        best=(meta["best"], 0),
        empty=meta["empty"],
        conn_offsets=sections.view("conn_offsets"),
        entry_key=sections.view("entry_key"),
        entry_state=sections.view("entry_state"),
    )


# -- the <db>.core container ---------------------------------------------------


class CoreFile:
    """Read/write access to one ``<db>.core`` container.

    Layout: ``RPROCORE`` magic + format + TOC length, a pickled TOC
    (``{key: {"meta", "db_version", "offset", "length"}}``), then the
    8-byte-aligned section blobs.  Rewrites are whole-file and atomic
    (temp file + ``os.replace``): concurrent writers last-write-win,
    concurrent readers keep their mapping of the replaced inode.
    """

    def __init__(self, path: str):
        self.path = path

    def read_toc_and_map(self):
        """``(toc, mmap)`` of the current file, or ``None`` if absent/bad.

        Transient I/O errors (injected via the ``core.read`` fault site
        or real ``EIO``-style failures) are retried with backoff; a
        persistent failure — like any corrupt/truncated container —
        degrades to a graceful miss and the caller rebuilds.
        """
        try:
            return _CORE_RETRIER.call(self._read_once)
        except Exception:
            return None

    def _read_once(self):
        faults.hit("core.read")
        try:
            fd = open(self.path, "rb")
        except FileNotFoundError:
            return None
        with fd:
            try:
                mapped = mmap.mmap(fd.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # empty file
                return None
        try:
            magic, fmt, toc_len = _HEADER.unpack_from(mapped, 0)
            if magic != CORE_MAGIC or fmt != CORE_FORMAT:
                raise ValueError("unknown core format")
            toc_bytes = faults.corrupt(
                "core.read", mapped[_HEADER.size:_HEADER.size + toc_len]
            )
            toc = pickle.loads(toc_bytes)
            if not isinstance(toc, dict):
                raise ValueError("malformed core TOC")
        except Exception:
            mapped.close()
            return None
        return toc, mapped

    def write(self, entries: dict[str, tuple[dict, int, bytes]]) -> None:
        """Atomically rewrite the container with ``entries``.

        ``entries`` maps key -> ``(meta, db_version, data)``; previously
        stored entries the caller wants kept must be included (use
        :meth:`read_entries` to collect them).
        """
        toc: dict[str, dict] = {}
        blobs: list[bytes] = []
        # First pass with placeholder offsets to size the TOC, second
        # pass with real offsets: pickle output length depends only on
        # the int values' magnitudes, so pad the TOC to a fixed slot by
        # pickling twice and asserting stability.
        offset = 0
        order = list(entries.items())
        for key, (meta, db_version, data) in order:
            toc[key] = {
                "meta": meta,
                "db_version": db_version,
                "offset": 0,
                "length": len(data),
            }
        for _ in range(4):
            toc_bytes = pickle.dumps(toc, protocol=pickle.HIGHEST_PROTOCOL)
            base = _HEADER.size + len(toc_bytes)
            base += _pad(base)
            offset = base
            stable = True
            for key, (meta, db_version, data) in order:
                if toc[key]["offset"] != offset:
                    toc[key]["offset"] = offset
                    stable = False
                offset += len(data) + _pad(len(data))
            if stable:
                break
        else:  # pragma: no cover - pickle size oscillation
            raise RuntimeError("could not stabilise core TOC layout")
        self._sweep_stale_tmp()
        tmp_path = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as fd:
                fd.write(_HEADER.pack(CORE_MAGIC, CORE_FORMAT, len(toc_bytes)))
                fd.write(toc_bytes)
                fd.write(b"\x00" * _pad(fd.tell()))
                # The fault site sits mid-file: a chaos test can kill the
                # writer there and assert the half-written bytes only
                # ever land in the ``.tmp`` sibling, never in the
                # ``.core`` readers map.  The blobs go out as they are,
                # with no copy of the whole file in memory.
                faults.hit("core.write")
                for key, (meta, db_version, data) in order:
                    assert fd.tell() == toc[key]["offset"]
                    fd.write(data)
                    fd.write(b"\x00" * _pad(len(data)))
                fd.flush()
                os.fsync(fd.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _sweep_stale_tmp(self) -> None:
        """Remove ``.tmp.<pid>`` siblings left by crashed writers."""
        directory, base = os.path.split(self.path)
        prefix = f"{base}.tmp."
        try:
            names = os.listdir(directory or ".")
        except OSError:
            return
        for name in names:
            if not name.startswith(prefix):
                continue
            pid_text = name[len(prefix):]
            if not pid_text.isdigit() or int(pid_text) == os.getpid():
                continue
            try:
                os.kill(int(pid_text), 0)
            except ProcessLookupError:
                try:
                    os.unlink(os.path.join(directory, name))
                except OSError:
                    pass
            except OSError:
                # Alive but not ours to signal — leave its tmp alone.
                pass

    def read_entries(self) -> dict[str, tuple[dict, int, bytes]]:
        """Every stored entry as ``key -> (meta, db_version, data)``."""
        current = self.read_toc_and_map()
        if current is None:
            return {}
        toc, mapped = current
        try:
            return {
                key: (
                    entry["meta"],
                    entry["db_version"],
                    bytes(
                        mapped[entry["offset"]:entry["offset"] + entry["length"]]
                    ),
                )
                for key, entry in toc.items()
            }
        finally:
            mapped.close()


class CoreCache:
    """The engine-facing warm-start cache over one :class:`CoreFile`.

    :meth:`load` returns a mapped core on a hit, ``None``
    on a miss; a ``Database.version`` mismatch counts as *stale* (the
    caller rebuilds and :meth:`store` rewrites the entry).  Its counters
    are the only count of these events: ``EngineStats.core_*`` read them
    and :meth:`~repro.engine.Engine.register_metrics` exports them as
    ``repro_core_cache_*_total``.  The mmap behind a hit stays open as
    long as loaded cores reference its views; :meth:`close` releases
    mappings that are no longer referenced and leaves the rest to
    garbage collection.
    """

    def __init__(self, path: str):
        self.path = path
        self.hits = Counter(
            "repro_core_cache_hits_total", "Core-cache warm-start hits."
        )
        self.misses = Counter(
            "repro_core_cache_misses_total", "Core-cache misses."
        )
        self.stale = Counter(
            "repro_core_cache_stale_total", "Core-cache version mismatches."
        )
        self.writes = Counter(
            "repro_core_cache_writes_total", "Core-cache entry writes."
        )
        self._file = CoreFile(path)
        self._lock = threading.Lock()
        self._maps: list[mmap.mmap] = []
        self._stamp: tuple | None = None
        self._toc: dict | None = None
        self._map: mmap.mmap | None = None

    # -- container access ------------------------------------------------------

    def _current(self):
        """The TOC + mapping of the file as it exists right now."""
        try:
            stat = os.stat(self.path)
            stamp = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            self._stamp = None
            self._toc = None
            self._map = None
            return None
        if self._toc is not None and stamp == self._stamp:
            return self._toc, self._map
        loaded = self._file.read_toc_and_map()
        if loaded is None:
            return None
        self._toc, self._map = loaded
        self._stamp = stamp
        self._maps.append(self._map)
        return loaded

    def _entry(self, key: str | None, db_version: int):
        if key is None:
            return None
        current = self._current()
        if current is None:
            self.misses += 1
            return None
        toc, mapped = current
        entry = toc.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry["db_version"] != db_version:
            self.stale += 1
            return None
        if entry["offset"] + entry["length"] > len(mapped):
            # A truncated container can keep an intact TOC whose blobs
            # run past EOF (the TOC sits at the front of the file).
            # That is corruption, not staleness: miss and rebuild.
            self.misses += 1
            return None
        # The hit is counted by the caller once the blob actually
        # decodes — the counter is monotone, so a decode failure must
        # never have to "take a hit back".
        return entry["meta"], mapped, entry["offset"]

    # -- engine API ------------------------------------------------------------

    def load(self, key: str | None, database, query, join_tree):
        """The mapped core for ``key``, or ``None`` on any mismatch."""
        with self._lock:
            found = self._entry(key, database.version)
            if found is None:
                return None
            meta, mapped, offset = found
            try:
                core = load_core(meta, mapped, offset, query, join_tree)
            except Exception:
                # A foreign entry under our key, or mangled section data
                # inside an in-bounds blob: a cold rebuild beats serving
                # garbage.
                self.misses += 1
                return None
            self.hits += 1
            return core

    def store(
        self, key: str | None, database, meta: dict, data: bytes,
        warm: dict | None = None,
    ) -> bool:
        """Write (or replace) one entry; keeps every other stored plan."""
        if key is None:
            return False
        meta = dict(meta)
        if warm is not None:
            meta["warm"] = warm
        with self._lock:
            try:
                entries = self._file.read_entries()
                entries[key] = (meta, database.version, data)
                self._file.write(entries)
            except (OSError, pickle.PicklingError):
                return False
            self.writes += 1
            return True

    def entries(self):
        """``(key, meta, db_version)`` of every stored plan (for warm boot)."""
        with self._lock:
            current = self._current()
            if current is None:
                return []
            toc, _mapped = current
            return [
                (key, entry["meta"], entry["db_version"])
                for key, entry in toc.items()
            ]

    def mmap_bytes(self) -> int:
        """Bytes of ``.core`` file currently mapped into this process.

        The residency counterpart of compiled-core heap estimates: a
        warm-started plan's columns live here, not on the heap.
        """
        with self._lock:
            return sum(
                len(mapped) for mapped in self._maps if not mapped.closed
            )

    def close(self) -> None:
        """Release mappings without live views; GC reclaims the rest.

        A dropped plan's mapped cores go by reference counting; a view
        still pinned by a reference cycle elsewhere gets one collection
        pass before the close attempt.
        A mapping with genuinely live views (a plan the caller still
        uses) survives untouched and is retried on the next close.
        """
        with self._lock:
            cycles_collected = False
            remaining = []
            for mapped in self._maps:
                try:
                    mapped.close()
                    continue
                except BufferError:
                    pass
                if not cycles_collected:
                    cycles_collected = True
                    gc.collect()
                try:
                    mapped.close()
                except BufferError:
                    remaining.append(mapped)
            self._maps = remaining
            self._stamp = None
            self._toc = None
            self._map = None
