"""Zero-copy compiled-core buffers: mmap persistence.

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
  database.  Entries are keyed by the plan fingerprint, the dioid's
  registry name, and the shard spec, and stamped with the
  ``Database.version`` they were built from; a cold process warm-starts
  by ``mmap``-ing the file and skips the bottom-up pass entirely, while a
  version mismatch reads as a miss and the rebuild rewrites the entry
  (atomic temp-file + ``os.replace``).

Only dioids registered in ``NAMED_DIOIDS`` whose lane has an inverse
(tropical min-plus, max-plus) are persistable: their cores are the
state and ``pi1`` value columns, the child uids and the keyed ``(key,
state)`` entries, nothing more (a core without an inverse also holds
entry values, least entries and ranks, which no section stores), and
the dioid must travel by registry name — ``id()`` and pickled instances
are not stable across processes.  The ``vk`` / ``pk`` sections hold
*values* under the dioid's lane (a max-plus weight, not its negation).

A ``.core`` entry is always the fragment cores of one plan
(:func:`export_fragments` / :func:`load_fragments`): a sharded plan
stores one per shard, an unsharded plan stores its single all-spanning
fragment.  Loading reconstructs the cold build's aliasing structurally
(shared uid-indexed lists, per-fragment anchor arrays) through
:meth:`CompiledTDP.assemble`; this module sits in the ``dp`` layer and
never imports ``repro.parallel``.
"""

from __future__ import annotations

import gc
import io
import mmap
import os
import pickle
import struct
import threading
from array import array
from itertools import chain
from operator import itemgetter
from typing import Sequence

from repro.dp.flat import CompiledTDP, CoreShell, MappedEntries
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
CORE_FORMAT = 3

_ALIGN = 8
_HEADER = struct.Struct("<8sII")  # magic, format, TOC length


def _pad(size: int) -> int:
    return (-size) % _ALIGN


# -- section buffers -----------------------------------------------------------


class SectionWriter:
    """Packs named typed arrays into one aligned buffer + manifest."""

    def __init__(self):
        self._chunks: list[bytes] = []
        self._size = 0
        self.manifest: dict[str, tuple[int, int, str]] = {}

    def add(self, name: str, typecode: str, values) -> None:
        data = values if isinstance(values, array) else array(typecode, values)
        if data.typecode != typecode:
            raise ValueError(f"section {name}: {data.typecode} != {typecode}")
        pad = _pad(self._size)
        if pad:
            self._chunks.append(b"\x00" * pad)
            self._size += pad
        self.manifest[name] = (self._size, len(data), typecode)
        raw = data.tobytes()
        self._chunks.append(raw)
        self._size += len(raw)

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


def core_key(query, dioid: SelectiveDioid, shard_key: tuple | None) -> str | None:
    """A stable cache key for one (query, dioid, shard spec) plan.

    ``None`` when the plan is not persistable (an unregistered dioid, or
    one whose lane has no inverse).  The query contributes its canonical
    fingerprint (PYTHONHASHSEED-independent), the shard spec its
    ``cache_key()`` tuple of primitives.
    """
    name = dioid_core_name(dioid)
    if name is None:
        return None
    return repr((query.fingerprint(), name, shard_key))


# -- lazily fetched shell rows -------------------------------------------------


class LazyRows:
    """A per-stage row sequence materialised per index from the backend.

    Stands in for the builder's eagerly fetched row lists on warm-started
    cores: result construction touches only the states a run actually
    emits, so rows are point-fetched (and memoized) instead of
    bulk-loaded.  Rows are the relation's bare value tuples — exactly
    what witness/assignment need.
    """

    __slots__ = ("relation", "ids", "_cache")

    def __init__(self, relation, ids: Sequence[int]):
        self.relation = relation
        self.ids = ids
        self._cache: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> tuple:
        row = self._cache.get(index)
        if row is None:
            row = self._cache[index] = self.relation.tuple_at(self.ids[index])
        return row


# -- export: compiled core -> sections + meta ----------------------------------


def _require_persistable(dioid: SelectiveDioid) -> str:
    name = dioid_core_name(dioid)
    if name is None:
        raise ValueError(f"{dioid!r} is not core-persistable")
    return name


def export_fragments(
    fragment_cores: Sequence[CompiledTDP], anchor_stage: int
) -> tuple[dict, bytes]:
    """Serialize one plan's fragment cores to ``(meta, sections)``.

    The fragments of one plan (a single one for an unsharded bind) share
    a common uid space — shared connectors first, then one root
    connector per fragment — and alias one entry pool and one
    ``_pairs`` list holding every root: the file's pool is the two in uid
    order, no connector cut.  The non-anchor stage arrays are likewise
    shared; only the anchor stage differs per fragment.
    """
    first = fragment_cores[0]
    name = _require_persistable(first.dioid)
    num_stages = first.num_stages
    uid_space = first.num_connectors

    writer = SectionWriter()
    # One CSR pool across the whole shared uid space: the core's pool,
    # then the roots held beside it.
    offsets = array("q", first.conn_offsets)
    held = first._pairs[len(offsets) - 1:]
    for root in held:
        offsets.append(offsets[-1] + len(root))
    for section, typecode, column in (("entry_key", "d", 0), ("entry_state", "q", 1)):
        pool = chain(first.entries, *held)
        writer.add(section, typecode, map(itemgetter(column), pool))
    writer.add("conn_offsets", "q", offsets)
    writer.add("conn_stage", "q", first.conn_stage)
    for stage in range(num_stages):
        if stage == anchor_stage:
            continue
        writer.add(f"vk{stage}", "d", first.val_base[stage])
        writer.add(f"pk{stage}", "d", first.pi1[stage])
        writer.add(f"cu{stage}", "q", first.child_uids[stage])
        writer.add(f"ids{stage}", "q", first.tdp.tuple_ids[stage])
    fragments_meta = []
    for index, core in enumerate(fragment_cores):
        writer.add(f"f{index}.vk", "d", core.val_base[anchor_stage])
        writer.add(f"f{index}.pk", "d", core.pi1[anchor_stage])
        writer.add(f"f{index}.cu", "q", core.child_uids[anchor_stage])
        writer.add(f"f{index}.ids", "q", core.tdp.tuple_ids[anchor_stage])
        fragments_meta.append(
            {"best": core.best[0], "empty": core.empty}
        )
    meta = {
        "kind": "fragments",
        "dioid": name,
        "num_stages": num_stages,
        "num_connectors": uid_space,
        "order": list(first.tdp.atom_of_stage),
        "parent_stage": list(first.parent_stage),
        "root_uid": {
            stage: uid
            for stage, uid in first.root_uid.items()
            if stage != anchor_stage
        },
        "anchor_stage": anchor_stage,
        "num_fragments": len(fragment_cores),
        "fragments": fragments_meta,
        "manifest": writer.manifest,
    }
    return meta, writer.getvalue()


# -- import: sections + meta -> mapped cores -----------------------------------


def load_fragments(
    meta: dict, buffer, base: int, database, query, join_tree
) -> list[CompiledTDP]:
    """Rehydrate a stored plan as per-fragment cores over the mapping.

    Reconstructs the cold build's aliasing: one entry pool over the
    mapped columns (:class:`~repro.dp.flat.MappedEntries`, roots
    included), one ``_pairs`` list (filled per connector on first
    touch), one set of lazily built
    ranking-structure caches, and one view per shared stage array —
    shared by every fragment — with per-fragment anchor-stage arrays
    and root connectors layered on top.  Rows are point-fetched from
    the backend (:class:`LazyRows`).
    """
    dioid = NAMED_DIOIDS[meta["dioid"]]
    lane = lane_of(dioid)[0]
    sections = SectionView(buffer, meta["manifest"], base)
    num_stages = meta["num_stages"]
    anchor = meta["anchor_stage"]
    uid_space = meta["num_connectors"]
    num_fragments = meta["num_fragments"]
    order = list(meta["order"])
    relations = [
        database[query.atoms[atom_index].relation_name] for atom_index in order
    ]

    shared_vk: list = [None] * num_stages
    shared_pk: list = [None] * num_stages
    shared_cu: list = [None] * num_stages
    shared_ids: list = [None] * num_stages
    shared_rows: list = [None] * num_stages
    for stage in range(num_stages):
        if stage == anchor:
            continue
        shared_vk[stage] = sections.view(f"vk{stage}")
        shared_pk[stage] = sections.view(f"pk{stage}")
        shared_cu[stage] = sections.view(f"cu{stage}")
        shared_ids[stage] = sections.view(f"ids{stage}")
        shared_rows[stage] = LazyRows(relations[stage], shared_ids[stage])
    conn_stage = list(sections.view("conn_stage"))
    shared_root_uid = {
        int(stage): uid for stage, uid in meta["root_uid"].items()
    }
    conn_offsets = sections.view("conn_offsets")
    entries = MappedEntries(sections.view("entry_key"), sections.view("entry_state"))
    pairs: list = [None] * uid_space
    caches = ([None] * uid_space, [None] * uid_space, [None] * uid_space)

    cores: list[CompiledTDP] = []
    for index in range(num_fragments):
        frag_meta = meta["fragments"][index]
        val_base = list(shared_vk)
        val_base[anchor] = sections.view(f"f{index}.vk")
        pi1 = list(shared_pk)
        pi1[anchor] = sections.view(f"f{index}.pk")
        child_uids = list(shared_cu)
        child_uids[anchor] = sections.view(f"f{index}.cu")
        tuple_ids = list(shared_ids)
        tuple_ids[anchor] = sections.view(f"f{index}.ids")
        tuples = list(shared_rows)
        tuples[anchor] = LazyRows(relations[anchor], tuple_ids[anchor])
        root_uid = dict(shared_root_uid)
        root_uid[anchor] = uid_space - num_fragments + index
        shell = CoreShell(
            dioid, order, list(meta["parent_stage"]), query, join_tree,
            tuples, tuple_ids,
        )
        cores.append(
            CompiledTDP.assemble(
                shell,
                lane=lane,
                one=dioid.one,
                val_base=val_base,
                pi1=pi1,
                child_uids=child_uids,
                conn_stage=conn_stage,
                root_uid=root_uid,
                best=(frag_meta["best"], 0),
                empty=frag_meta["empty"],
                conn_offsets=conn_offsets,
                entries=entries,
                pairs=pairs,
                caches=caches,
            )
        )
    return cores


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
        out = io.BytesIO()
        out.write(_HEADER.pack(CORE_MAGIC, CORE_FORMAT, len(toc_bytes)))
        out.write(toc_bytes)
        out.write(b"\x00" * _pad(out.tell()))
        for key, (meta, db_version, data) in order:
            assert out.tell() == toc[key]["offset"]
            out.write(data)
            out.write(b"\x00" * _pad(len(data)))
        self._sweep_stale_tmp()
        payload = out.getvalue()
        tmp_path = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as fd:
                # Two chunks with the fault site between them: a chaos
                # test can kill the writer mid-file and assert the
                # half-written bytes only ever land in the ``.tmp``
                # sibling, never in the ``.core`` readers map.
                mid = len(payload) // 2
                fd.write(payload[:mid])
                faults.hit("core.write")
                fd.write(payload[mid:])
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

    :meth:`load_fragment_cores` returns mapped cores on a hit, ``None``
    on a miss; a ``Database.version`` mismatch counts as *stale* (the
    caller rebuilds and :meth:`store` rewrites the entry).  Counters feed the engine's
    ``EngineStats``.  The mmap behind a hit stays open as long as loaded
    cores reference its views; :meth:`close` releases mappings that are
    no longer referenced and leaves the rest to garbage collection.
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

    def load_fragment_cores(
        self, key: str | None, database, query, join_tree,
        anchor_stage: int, num_fragments: int,
    ):
        """Mapped fragment cores for ``key``, or ``None`` on any mismatch."""
        with self._lock:
            found = self._entry(key, database.version)
            if found is None:
                return None
            meta, mapped, offset = found
            try:
                if (
                    meta["kind"] != "fragments"
                    or meta["anchor_stage"] != anchor_stage
                    or meta["num_fragments"] != num_fragments
                ):
                    raise ValueError("entry was stored for another plan shape")
                cores = load_fragments(
                    meta, mapped, offset, database, query, join_tree
                )
            except Exception:
                # A foreign entry under our key, or mangled section data
                # inside an in-bounds blob: a cold rebuild beats serving
                # garbage.
                self.misses += 1
                return None
            self.hits += 1
            return cores

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

    def stats(self) -> dict:
        return {
            "path": self.path,
            "hits": int(self.hits),
            "misses": int(self.misses),
            "stale": int(self.stale),
            "writes": int(self.writes),
        }

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

        Mapped shells and their compiled cores cross-reference each
        other, so dropped plans may sit in cycles still pinning exported
        views; one collection pass frees those before the close attempt.
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
