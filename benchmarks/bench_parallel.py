#!/usr/bin/env python
"""Parallel execution layer benchmark: fragment build cost + merge cost.

Measures, per storage backend, on the 4-path workload:

* **preprocessing** — the unsharded bind vs the sharded bind at 1/2/4/8
  fragments.  Both run the same direct key-space lowering
  (``repro.dp.lower``): the unsharded bind *is* the one-fragment case,
  so the interesting numbers are what fragment planning and the shared
  uid space add or save (every fragment builds inline, one after
  another);
* **enumeration** — TTF and answers/sec for a top-k run through the
  ranked k-way shard merge at each fragment count, vs the unsharded
  enumerator.

Every timed cell is gated by a bit-identity assertion first: the
sharded ranked prefix must equal the unsharded one exactly.

Results merge into ``BENCH_parallel.json`` at the repo root (committed,
one section per ``full``/``smoke`` mode).  ``cpu_count`` is recorded
alongside so numbers are interpretable.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full
    BENCH_SMOKE=1 python benchmarks/bench_parallel.py             # CI-sized
    BENCH_SMOKE=1 BENCH_CHECK=1 python benchmarks/bench_parallel.py
        # regression gate on the SQLite 4-path cell: fail (exit 1)
        # unless bind(shards=1) / unsharded bind stays within
        # [0.8, 1.25] in this run (one lowering, two entry points) and
        # the 4-shard preprocess_ms stays within BENCH_TOLERANCE
        # (default 30%) of the committed number for the same mode
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.data.backend import SQLiteBackend  # noqa: E402
from repro.data.generators import uniform_database  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.query.builders import path_query  # noqa: E402

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
CHECK = os.environ.get("BENCH_CHECK", "") not in ("", "0")
TOLERANCE = float(os.environ.get("BENCH_TOLERANCE", "0.30"))
#: Allowed band for bind(shards=1) / unsharded bind in one run.
ONE_SHARD_BAND = (0.8, 1.25)
MODE = "smoke" if SMOKE else "full"
JSON_PATH = os.path.join(ROOT, "BENCH_parallel.json")

N = 2_500 if SMOKE else 20_000
TOP_K = 300 if SMOKE else 1_000
REPEATS = 3
SHARD_COUNTS = [1, 2, 4, 8]
#: Ranked prefix compared bit-exactly before any cell is timed.
VERIFY_PREFIX = 200

QUERY = path_query(4)


def signature(results, k):
    out = []
    for result in results:
        out.append(
            (result.weight, tuple(sorted(result.assignment.items())),
             result.witness_ids)
        )
        if len(out) >= k:
            break
    return out


def bind_once(database, shards=None, core_cache="off"):
    """One cold bind on a fresh engine; returns (physical, seconds).

    Persistence is off by default: with ``core_cache="auto"`` the first
    bind would write a ``.core`` next to the SQLite file and every later
    "cold" bind would silently warm-start from it, corrupting the build
    measurements.  The warm-start path is measured explicitly (and only
    there is ``core_cache="auto"`` passed).
    """
    gc.collect()
    engine = Engine(database, core_cache=core_cache)
    start = time.perf_counter()
    if shards is None:
        prepared = engine.prepare(QUERY)
    else:
        prepared = engine.prepare(QUERY, shards=shards)
    physical = prepared.bind()
    return physical, time.perf_counter() - start


def best_bind_ms(database, shards=None, core_cache="off"):
    times = []
    for _ in range(REPEATS):
        _physical, seconds = bind_once(database, shards, core_cache)
        times.append(seconds)
    return round(min(times) * 1e3, 2)


def enumeration_metrics(physical) -> dict:
    """TTF + answers/sec for a warm top-k run over a bound plan."""
    best = None
    for _ in range(REPEATS):
        gc.collect()
        clock = time.perf_counter
        start = clock()
        produced = 0
        ttf = None
        for _result in physical.iter():
            if ttf is None:
                ttf = clock() - start
            produced += 1
            if produced >= TOP_K:
                break
        total = clock() - start
        sample = (produced / total, ttf, total, produced)
        if best is None or sample[0] > best[0]:
            best = sample
    answers_per_sec, ttf, total, produced = best
    return {
        "produced": produced,
        "answers_per_sec": round(answers_per_sec, 1),
        "ttf_ms": round((ttf or 0.0) * 1e3, 4),
        "ttl_ms": round(total * 1e3, 3),
    }


def run_cell(name: str, database) -> dict:
    print(f"== {name} (n={N}, top-{TOP_K})")
    serial_physical, _ = bind_once(database)
    reference = signature(serial_physical.iter(), VERIFY_PREFIX)
    serial_ms = best_bind_ms(database)
    serial_enum = enumeration_metrics(serial_physical)
    print(f"  serial: preprocess {serial_ms} ms, "
          f"{serial_enum['answers_per_sec']:.0f} answers/s, "
          f"ttf {serial_enum['ttf_ms']} ms")

    shard_cells = {}
    for shards in SHARD_COUNTS:
        physical, _ = bind_once(database, shards)
        assert signature(physical.iter(), VERIFY_PREFIX) == reference, (
            f"{name}: sharded prefix diverged at shards={shards}"
        )
        preprocess_ms = best_bind_ms(database, shards)
        enum = enumeration_metrics(physical)
        speedup = round(serial_ms / preprocess_ms, 2) if preprocess_ms else None
        shard_cells[str(shards)] = {
            "preprocess_ms": preprocess_ms,
            "preprocess_speedup": speedup,
            **enum,
        }
        print(f"  shards={shards}: preprocess {preprocess_ms} ms "
              f"({speedup}x), "
              f"{enum['answers_per_sec']:.0f} answers/s, "
              f"ttf {enum['ttf_ms']} ms")

    # Informational warm-start row (file-backed cells only): write the
    # compiled core once, then time fresh-engine binds that mmap it.
    # The gated warm-start acceptance lives in bench_hotpath's coldstart
    # section; this row shows the same effect under sharding.
    warm_mmap_ms = None
    core_path = getattr(getattr(database, "backend", None), "core_path", None)
    if core_path:
        writer = Engine(database)  # core_cache="auto" writes <db>.core
        writer.prepare(QUERY, shards=4).bind()
        writer.clear_caches()
        physical, _ = bind_once(database, 4, core_cache="auto")
        assert signature(physical.iter(), VERIFY_PREFIX) == reference, (
            f"{name}: warm-start prefix diverged at shards=4"
        )
        warm_mmap_ms = best_bind_ms(database, 4, core_cache="auto")
        print(f"  4-shard warm mmap bind: {warm_mmap_ms} ms")
        if os.path.exists(core_path):
            os.unlink(core_path)

    return {
        "n": N,
        "top_k": TOP_K,
        "serial_preprocess_ms": serial_ms,
        "serial": serial_enum,
        "shards": shard_cells,
        "warm_mmap_bind_ms_at_4": warm_mmap_ms,
        "one_shard_vs_unsharded": round(
            shard_cells["1"]["preprocess_ms"] / serial_ms, 3
        ),
    }


def run_benchmark() -> dict:
    database = uniform_database(4, N, seed=93)
    cells = {"4-path[memory]": run_cell("4-path[memory]", database)}

    tmp = tempfile.mkdtemp(prefix="bench_parallel_")
    db_path = os.path.join(tmp, "bench.db")
    backend = SQLiteBackend(db_path)
    for relation in database:
        backend.ingest(relation)
    sqlite_database = backend.database()
    try:
        cells["4-path[sqlite]"] = run_cell("4-path[sqlite]", sqlite_database)
    finally:
        backend.close()
        os.unlink(db_path)
        os.rmdir(tmp)

    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "cells": cells,
    }


def regression_gate(previous: dict, current: dict) -> list[str]:
    """The committed acceptance, on the SQLite 4-path cell.

    Two conditions.  (a) ``bind(shards=1)`` costs what the unsharded
    bind costs, in the same run: they are one lowering behind two entry
    points, so a ratio outside ``ONE_SHARD_BAND`` means one of them grew
    a private cost.  A same-machine ratio, robust to slow CI runners.
    (b) The 4-shard ``preprocess_ms`` has not regressed beyond TOLERANCE
    against the committed number of the same (smoke/full) mode.
    """
    failures = []
    cell = current["cells"].get("4-path[sqlite]", {})
    ratio = cell.get("one_shard_vs_unsharded") or 0.0
    low, high = ONE_SHARD_BAND
    if not low <= ratio <= high:
        failures.append(
            f"sqlite 4-path bind(shards=1) / unsharded bind = {ratio:.2f}, "
            f"outside [{low}, {high}]"
        )
    old_cell = (
        previous.get("modes", {}).get(MODE, {}).get("cells", {})
        .get("4-path[sqlite]", {})
    )
    old_ms = old_cell.get("shards", {}).get("4", {}).get("preprocess_ms")
    new_ms = cell.get("shards", {}).get("4", {}).get("preprocess_ms")
    if old_ms and new_ms and new_ms > old_ms * (1.0 + TOLERANCE):
        failures.append(
            f"sqlite 4-path 4-shard preprocess regressed: {new_ms:.2f} ms vs "
            f"committed {old_ms:.2f} ms (tolerance {TOLERANCE * 100:.0f}%)"
        )
    return failures


def main() -> int:
    previous = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            previous = json.load(handle)

    current = run_benchmark()
    failures = regression_gate(previous, current) if CHECK else []

    merged = {"benchmark": "parallel", "modes": previous.get("modes", {})}
    merged["modes"][MODE] = current
    with open(JSON_PATH, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {JSON_PATH} ({MODE} mode)")
    for cell_name, cell in current["cells"].items():
        print(f"headline {cell_name}: bind(shards=1) / unsharded bind = "
              f"{cell['one_shard_vs_unsharded']}, 4-shard preprocess "
              f"{cell['shards']['4']['preprocess_ms']} ms")

    if failures:
        print("\nPARALLEL PERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if CHECK:
        print(f"parallel perf gate passed (one-shard band {ONE_SHARD_BAND}, "
              f"tolerance {TOLERANCE * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
