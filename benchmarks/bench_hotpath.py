#!/usr/bin/env python
"""Hot-path benchmark: compiled flat core vs. object-graph enumeration.

Measures the enumeration phase of every any-k variant on fixed-seed
workloads, on both cores over the *same* bound T-DP:

* ``object`` — the object-graph reference path (``flat=False``);
* ``flat``   — the compiled flat core (the production default).

Per variant x query shape it records answers/sec, TTF (enumerator
creation to first answer, warm plan), TTL (creation to last requested
answer), and per-answer delay p50/p99 — and asserts the two cores
produce bit-identical ranked prefixes before trusting any number.
Per cell it also records what preprocessing costs: ``build_ms`` +
``compile_ms`` for the object reference path measured here, and
``bind_ms`` for a cold engine bind of the same inputs (the direct
lowering of ``repro.dp.lower``).

Results merge into ``BENCH_hotpath.json`` at the repo root (one section
per mode, ``full`` and ``smoke``), which is committed so every future
PR has a recorded perf trajectory to compare against.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py          # full mode
    BENCH_SMOKE=1 python benchmarks/bench_hotpath.py           # CI-sized
    BENCH_SMOKE=1 BENCH_CHECK=1 python benchmarks/bench_hotpath.py
        # regression gate: fail (exit 1) if any variant's flat
        # answers/sec drops >30% vs the committed same-mode numbers
        # (override the tolerance with BENCH_TOLERANCE=0.4)
    BENCH_SMOKE=1 BENCH_CHECK=1 BENCH_ONLY_OBS=1 python benchmarks/bench_hotpath.py
        # observability lane: only the tracing-overhead section runs;
        # tracing-disabled throughput must stay within 2% of the
        # committed baseline — widened to the run's own measured noise
        # floor on loaded machines (BENCH_OBS_TOLERANCE to override the
        # 2%); the tracing-on overhead is recorded as an informational
        # row.  Both smoke gates also hold the ``stream_hop`` row
        # (PrefixStream / direct throughput) at STREAM_HOP_REACHED less
        # the measured noise floor.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.anyk.base import make_enumerator  # noqa: E402
from repro.data.generators import uniform_database  # noqa: E402
from repro.dp.builder import build_tdp_for_query  # noqa: E402
from repro.dp.flat import compile_tdp  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.experiments.runner import percentile  # noqa: E402
from repro.query.builders import path_query, star_query  # noqa: E402
from repro.ranking.dioid import TROPICAL, LexicographicDioid  # noqa: E402

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
CHECK = os.environ.get("BENCH_CHECK", "") not in ("", "0")
TOLERANCE = float(os.environ.get("BENCH_TOLERANCE", "0.30"))
#: Ceiling on the tracing-*disabled* overhead regression (see obs_gate).
OBS_TOLERANCE = float(os.environ.get("BENCH_OBS_TOLERANCE", "0.02"))
#: Median paired stream/direct ratio of the obs block, smoke mode, since
#: the stream pulls in batches from counting kernels (0.71-0.77 over four
#: runs; 0.52-0.57 before).  The rest is not the stream's: the direct arm
#: drops each answer, the stream keeps 20k of them (~0.45 us/answer of
#: allocator and GC work) and counts (~0.2).  :func:`stream_hop_gate`
#: holds the hop here.
STREAM_HOP_REACHED = 0.72
#: Run only the observability-overhead section; its result merges into
#: the committed mode dict without touching the hot-path cells.
ONLY_OBS = os.environ.get("BENCH_ONLY_OBS", "") not in ("", "0")
MODE = "smoke" if SMOKE else "full"
JSON_PATH = os.path.join(ROOT, "BENCH_hotpath.json")

VARIANTS = ["recursive", "take2", "lazy", "eager", "all"]
REPEATS = 3 if SMOKE else 5
#: Prefix length compared bit-exactly between the two cores per cell.
VERIFY_PREFIX = 200


def lex_lift(dioid: LexicographicDioid):
    """Lift scalar weights into per-relation lexicographic unit vectors."""
    def lift(atom, _values, raw_weight):
        position = int(atom.relation_name.lstrip("R")) - 1
        return dioid.unit_vector(position % dioid.dimensions, raw_weight)

    return lift


def workload_cells():
    """(cell name, tdp factory, k) triples — all seeds fixed."""
    if SMOKE:
        # Sized so one cell runs in seconds but per-run noise stays
        # well under the gate tolerance (sub-ms runs flap too much).
        specs = [
            ("4-path[tropical]", "path", 4, 1_000, 500, TROPICAL),
            ("4-star[tropical]", "star", 4, 800, 400, TROPICAL),
            ("4-path[lexicographic]", "path", 4, 500, 200, None),
        ]
    else:
        specs = [
            ("4-path[tropical]", "path", 4, 10_000, 500, TROPICAL),
            ("4-path-topk5000[tropical]", "path", 4, 10_000, 5_000, TROPICAL),
            ("4-path-full[tropical]", "path", 4, 800, None, TROPICAL),
            ("4-star[tropical]", "star", 4, 5_000, 500, TROPICAL),
            ("4-path[lexicographic]", "path", 4, 1_000, 300, None),
        ]
    for name, shape, size, n, k, dioid in specs:
        yield name, shape, size, n, k, dioid


def build_cell(shape: str, size: int, n: int, dioid):
    database = uniform_database(size, n, domain_size=max(2, n // 4), seed=93)
    query = path_query(size) if shape == "path" else star_query(size)
    lift = None
    if dioid is None:  # lexicographic fallback-parity cell
        dioid = LexicographicDioid(size)
        lift = lex_lift(dioid)
    t0 = time.perf_counter()
    tdp = build_tdp_for_query(database, query, dioid=dioid, lift=lift)
    build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    compiled = compile_tdp(tdp)
    compile_seconds = time.perf_counter() - t0
    # ``build_ms`` / ``compile_ms`` time the object reference path (the
    # T-DP both enumerator families run over below); ``bind_ms`` is what
    # a cold ``Engine`` bind costs on the same inputs — the direct
    # lowering for float-key dioids.  The engine takes no weight lift,
    # so the lexicographic cell has no engine-level number.
    bind_seconds = None
    if lift is None:
        gc.collect()
        engine = Engine(database, core_cache="off")
        t0 = time.perf_counter()
        engine.prepare(query, dioid=dioid).bind()
        bind_seconds = time.perf_counter() - t0
    return tdp, compiled, build_seconds, compile_seconds, bind_seconds


def run_once(tdp, algorithm: str, flat, k: int | None):
    """One warm enumeration run; returns (produced, ttf, ttl, delays)."""
    gc.collect()
    clock = time.perf_counter
    start = clock()
    enumerator = make_enumerator(tdp, algorithm, flat=flat)
    delays = []
    push_delay = delays.append
    previous = start
    produced = 0
    for _result in enumerator:
        now = clock()
        push_delay(now - previous)
        previous = now
        produced += 1
        if k is not None and produced >= k:
            break
    if not produced:
        raise RuntimeError(f"empty output for {algorithm}")
    return produced, delays[0], previous - start, delays


def measure_pair(tdp, algorithm: str, k: int | None) -> tuple[dict, dict]:
    """Median-of-``REPEATS`` metrics for (object, flat) on one variant.

    One untimed warm-up run per core, then the timed repeats strictly
    *interleaved* (object, flat, object, flat, ...) so slow CPU-state
    drift over a long benchmark session cancels out of the ratio
    instead of biasing whichever core ran last.
    """
    samples = {False: ([], [], [], []), None: ([], [], [], [])}
    produced = 0
    for flat in (False, None):
        run_once(tdp, algorithm, flat, k)  # warm-up, untimed
    for _ in range(REPEATS):
        for flat in (False, None):
            produced, ttf, ttl, delays = run_once(tdp, algorithm, flat, k)
            throughput, ttfs, ttls, pooled = samples[flat]
            throughput.append(produced / ttl)
            ttfs.append(ttf)
            ttls.append(ttl)
            pooled.extend(delays)

    def summarise(flat) -> dict:
        # Best-of-N (pytest-benchmark's convention: min time / max
        # rate): the fastest observed run reflects the code's true
        # cost, everything slower is scheduler/container noise.
        throughput, ttfs, ttls, pooled = samples[flat]
        return {
            "produced": produced,
            "answers_per_sec": round(max(throughput), 1),
            "answers_per_sec_median": round(statistics.median(throughput), 1),
            "ttf_ms": round(min(ttfs) * 1e3, 4),
            "ttl_ms": round(min(ttls) * 1e3, 3),
            "delay_p50_us": round(percentile(pooled, 50) * 1e6, 3),
            "delay_p99_us": round(percentile(pooled, 99) * 1e6, 3),
        }

    return summarise(False), summarise(None)


def signature(tdp, algorithm: str, flat, k: int):
    results = []
    for result in make_enumerator(tdp, algorithm, flat=flat):
        results.append((result.weight, result.key, result.states))
        if len(results) >= k:
            break
    return results


def run_benchmark() -> dict:
    cells = {}
    for name, shape, size, n, k, dioid in workload_cells():
        tdp, compiled, build_s, compile_s, bind_s = build_cell(
            shape, size, n, dioid
        )
        verify_k = min(VERIFY_PREFIX, k or VERIFY_PREFIX)
        cell = {
            "shape": shape,
            "n": n,
            "k": k,
            "dioid": "lexicographic" if dioid is None else repr(tdp.dioid),
            "compiled": compiled is not None,
            "build_ms": round(build_s * 1e3, 2),
            "compile_ms": round(compile_s * 1e3, 2),
            "bind_ms": None if bind_s is None else round(bind_s * 1e3, 2),
            "variants": {},
        }
        print(f"== {name}  (n={n}, k={k or 'all'}, "
              f"build {cell['build_ms']} ms, compile {cell['compile_ms']} ms, "
              f"engine bind {cell['bind_ms']} ms)")
        for algorithm in VARIANTS:
            # Bit-identical prefix gate before any timing is trusted.
            flat_sig = signature(tdp, algorithm, None, verify_k)
            object_sig = signature(tdp, algorithm, False, verify_k)
            assert flat_sig == object_sig, (
                f"flat/object divergence: {name} {algorithm}"
            )
            object_metrics, flat_metrics = measure_pair(tdp, algorithm, k)
            speedup = round(
                flat_metrics["answers_per_sec"]
                / object_metrics["answers_per_sec"],
                2,
            )
            ttf_ratio = round(
                flat_metrics["ttf_ms"] / object_metrics["ttf_ms"], 3
            ) if object_metrics["ttf_ms"] else None
            cell["variants"][algorithm] = {
                "object": object_metrics,
                "flat": flat_metrics,
                "speedup_answers_per_sec": speedup,
                "ttf_ratio_flat_vs_object": ttf_ratio,
            }
            print(
                f"  {algorithm:>10}: object {object_metrics['answers_per_sec']:>10.0f}/s"
                f"  flat {flat_metrics['answers_per_sec']:>10.0f}/s"
                f"  speedup {speedup:>5.2f}x"
                f"  ttf {object_metrics['ttf_ms']:.2f}->"
                f"{flat_metrics['ttf_ms']:.2f} ms"
                f"  delay p99 {object_metrics['delay_p99_us']:.0f}->"
                f"{flat_metrics['delay_p99_us']:.0f} us"
            )
        cells[name] = cell
    return {
        "python": sys.version.split()[0],
        "repeats": REPEATS,
        "cells": cells,
    }


def run_coldstart() -> dict:
    """Warm-start-by-mmap vs cold rebuild on the 4-path SQLite workload.

    Cold = fresh backend + engine with persistence off: prepare, bind
    (the direct bottom-up lowering), first answer.  Warm = fresh backend +
    engine over an already-written ``<db>.core``: the bind maps the
    compiled arrays and skips the build entirely.  Both repeat with a
    brand-new engine each time (best-of), so neither side benefits from
    in-process caches — this is the cross-process serving-boot path.
    """
    import shutil
    import tempfile

    from repro.data.backend import SQLiteBackend

    n = 8_000 if SMOKE else 20_000
    size = 4
    tmp = tempfile.mkdtemp(prefix="bench_coldstart_")
    path = os.path.join(tmp, "coldstart.db")
    try:
        database = uniform_database(size, n, domain_size=max(2, n // 4), seed=93)
        backend = SQLiteBackend(path)
        for relation in database.relations.values():
            backend.ingest(relation)
        backend.close()
        query = path_query(size)

        def first_answer(core_cache: str) -> float:
            gc.collect()
            start = time.perf_counter()
            engine = Engine.from_backend(
                SQLiteBackend(path), core_cache=core_cache
            )
            prepared = engine.prepare(query, algorithm="take2")
            result = prepared.first()
            elapsed = time.perf_counter() - start
            assert result is not None
            engine.close()
            return elapsed

        cold = [first_answer("off") for _ in range(REPEATS)]
        # Write the core once, then time warm binds against it.
        write_engine = Engine.from_backend(SQLiteBackend(path))
        write_engine.prepare(query, algorithm="take2").bind()
        assert write_engine.stats.core_writes == 1
        write_engine.close()
        warm = [first_answer("auto") for _ in range(REPEATS)]
        # The timed warm runs must actually have hit the core file.
        check = Engine.from_backend(SQLiteBackend(path))
        check.prepare(query, algorithm="take2").bind()
        assert check.stats.core_hits == 1
        core_bytes = os.path.getsize(path + ".core")
        check.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    cold_ms = round(min(cold) * 1e3, 3)
    warm_ms = round(min(warm) * 1e3, 3)
    speedup = round(cold_ms / warm_ms, 2) if warm_ms else None
    print(
        f"== coldstart 4-path sqlite (n={n}): rebuild TTF {cold_ms} ms, "
        f"mmap warm TTF {warm_ms} ms, {speedup}x"
    )
    return {
        "shape": "path",
        "n": n,
        "core_file_bytes": core_bytes,
        "rebuild_ttf_ms": cold_ms,
        "mmap_warm_ttf_ms": warm_ms,
        "speedup_ttf": speedup,
    }


def coldstart_gate(coldstart: dict) -> list[str]:
    """Warm-start TTF must stay >=5x below the cold-rebuild TTF."""
    cold = coldstart["rebuild_ttf_ms"]
    warm = coldstart["mmap_warm_ttf_ms"]
    if warm * 5.0 > cold:
        return [
            f"coldstart: mmap warm TTF {warm} ms is not >=5x below the "
            f"rebuild TTF {cold} ms ({coldstart['speedup_ttf']}x)"
        ]
    return []


def run_obs_overhead() -> dict:
    """Tracing overhead on the serving enumeration path (4-path, take2).

    Three arms drain the same bound T-DP, strictly interleaved per
    round and summarised best-of-``REPEATS``:

    * ``direct`` — the bare flat enumerator (no obs code anywhere);
    * ``off``    — :class:`PrefixStream` in 64-answer slices with the
      shared ``NULL_TRACER`` (the production default: what every fetch
      pays when tracing is disabled);
    * ``on``     — the same stream under an always-sampling tracer
      (recorded as an informational row, not gated).

    The ``off``/``direct`` ratio is the machine-neutral signal: both
    arms run back to back in the same round, so a slow CI runner
    depresses them together while a real instrumentation regression
    drags only the ``off`` arm down.  The ratio is therefore *paired
    per round* (never an off-max over a direct-max from different
    rounds), and the spread of the direct arm across rounds is reported
    as ``direct_noise_floor`` — the run's own measure of how much the
    machine wobbles, which :func:`obs_gate` uses to keep the 2% ceiling
    from flaking on loaded runners.  Before any timing is trusted the
    ``off`` and ``on`` arms must produce bit-identical ranked prefixes.
    """
    from repro.engine.stream import PrefixStream
    from repro.obs.trace import NULL_TRACER, Tracer

    n = 1_000 if SMOKE else 4_000
    k = 20_000 if SMOKE else 50_000
    slice_size = 64
    tdp, compiled, *_timings = build_cell("path", 4, n, TROPICAL)
    assert compiled is not None

    def factory(counter):
        return make_enumerator(tdp, "take2", flat=None, counter=counter)

    def drain_direct() -> float:
        gc.collect()
        start = time.perf_counter()
        produced = 0
        for _result in make_enumerator(tdp, "take2", flat=None):
            produced += 1
            if produced >= k:
                break
        elapsed = time.perf_counter() - start
        assert produced == k, f"output smaller than k={k}"
        return k / elapsed

    def drain_stream(tracer) -> float:
        gc.collect()
        stream = PrefixStream(factory, tracer=tracer)
        start = time.perf_counter()
        for target in range(slice_size, k + 1, slice_size):
            stream.ensure(target)
        available = stream.ensure(k)
        elapsed = time.perf_counter() - start
        assert available == k, f"output smaller than k={k}"
        return k / elapsed

    # Bit-identity gate: tracing must not perturb the ranked output.
    verify = min(k, VERIFY_PREFIX)
    off_stream = PrefixStream(factory, tracer=NULL_TRACER)
    on_stream = PrefixStream(factory, tracer=Tracer(sample="always"))
    off_sig = [
        (r.weight, r.key, r.states) for r in off_stream.prefix(verify)
    ]
    on_sig = [(r.weight, r.key, r.states) for r in on_stream.prefix(verify)]
    assert off_sig == on_sig, "tracing on/off ranked-prefix divergence"

    arms = {"direct": [], "off": [], "on": []}
    probe = Tracer(sample="always")
    drain_direct()  # warm-up round, untimed
    drain_stream(NULL_TRACER)
    drain_stream(probe)
    probe.clear()
    rounds = REPEATS + 2
    for _ in range(rounds):
        arms["direct"].append(drain_direct())
        arms["off"].append(drain_stream(NULL_TRACER))
        arms["on"].append(drain_stream(probe))
    direct = max(arms["direct"])
    off = max(arms["off"])
    on = max(arms["on"])
    paired = [o / d for o, d in zip(arms["off"], arms["direct"])]
    noise = round(1.0 - min(arms["direct"]) / max(arms["direct"]), 4)
    result = {
        "shape": "path",
        "n": n,
        "k": k,
        "slice_size": slice_size,
        "rounds": rounds,
        "direct_answers_per_sec": round(direct, 1),
        "off_answers_per_sec": round(off, 1),
        "on_answers_per_sec": round(on, 1),
        "off_vs_direct_ratio": round(max(paired), 4),
        "off_vs_direct_ratio_median": round(statistics.median(paired), 4),
        "direct_noise_floor": noise,
        "tracing_on_overhead_pct": round((1.0 - on / off) * 100.0, 2),
        "spans_recorded": probe.recorded,
    }
    print(
        f"== obs overhead 4-path take2 (n={n}, k={k}): "
        f"direct {direct:,.0f}/s  off {off:,.0f}/s "
        f"(paired ratio {result['off_vs_direct_ratio']}, "
        f"noise floor {noise * 100:.1f}%)  on {on:,.0f}/s "
        f"(tracing-on overhead {result['tracing_on_overhead_pct']}%, "
        f"informational)"
    )
    return result


def obs_gate(previous: dict, current_obs: dict) -> list[str]:
    """Tracing-disabled throughput must stay within OBS_TOLERANCE.

    Same dual-signal shape as :func:`regression_gate`: fail only when
    the absolute tracing-off answers/sec *and* the paired off/direct
    ratio both regress beyond tolerance vs the committed numbers.  The
    ceiling is ``OBS_TOLERANCE`` (2%) on a quiet machine, but wall-clock
    ratios on shared CI runners wobble far more than 2% with zero code
    change — so the effective tolerance widens to the larger of the
    committed and current runs' measured ``direct_noise_floor`` (the
    direct arm re-times identical code every round; its spread is pure
    machine noise).  A genuine NULL_TRACER regression moves the paired
    ratio beyond what the direct arm's own wobble can explain.  The
    tracing-on arm is informational and never gated.
    """
    old = previous.get("modes", {}).get(MODE, {}).get("obs_overhead")
    if not old:
        return []
    tolerance = max(
        OBS_TOLERANCE,
        old.get("direct_noise_floor") or 0.0,
        current_obs.get("direct_noise_floor") or 0.0,
    )
    baseline = old["off_answers_per_sec"]
    now = current_obs["off_answers_per_sec"]
    absolute_regressed = now < baseline * (1.0 - tolerance)
    old_ratio = old.get("off_vs_direct_ratio") or 0.0
    new_ratio = current_obs.get("off_vs_direct_ratio") or 0.0
    ratio_regressed = new_ratio < old_ratio * (1.0 - tolerance)
    if absolute_regressed and ratio_regressed:
        return [
            f"obs-overhead: tracing-off {now:.0f}/s vs committed "
            f"{baseline:.0f}/s (-{(1 - now / baseline) * 100:.1f}%) and "
            f"off/direct ratio {new_ratio:.4f} vs committed "
            f"{old_ratio:.4f} (effective tolerance "
            f"{tolerance * 100:.1f}%)"
        ]
    return []


def stream_hop_row(obs: dict) -> dict:
    """The ``PrefixStream`` hop as its own row: stream / direct throughput.

    Read off the obs block's tracing-off arm (same rounds, paired per
    round, median): what memoizing 64-answer slices through a stream —
    counting kernel, batch pull, lock, span — costs relative to draining
    the bare enumerator.
    """
    return {
        "ratio": obs["off_vs_direct_ratio_median"],
        "direct_noise_floor": obs["direct_noise_floor"],
        "reached": STREAM_HOP_REACHED,
    }


def stream_hop_gate(previous: dict, row: dict) -> list[str]:
    """The stream hop must stay at what it reached, less machine noise.

    The allowance is the larger ``direct_noise_floor`` of the committed
    and the current run, as in :func:`obs_gate`: the direct arm re-times
    identical code every round, so its spread is what this machine adds
    to any ratio taken here.
    """
    old = previous.get("modes", {}).get(MODE, {}).get("stream_hop", {})
    noise = max(
        old.get("direct_noise_floor") or 0.0, row["direct_noise_floor"] or 0.0
    )
    if row["ratio"] < STREAM_HOP_REACHED - noise:
        return [
            f"stream-hop: PrefixStream at {row['ratio']:.3f}x of direct "
            f"enumeration, below {STREAM_HOP_REACHED:.2f} - noise floor "
            f"{noise:.3f}"
        ]
    return []


def regression_gate(previous: dict, current: dict) -> list[str]:
    """Flat answers/sec must not regress > TOLERANCE vs committed numbers.

    A variant fails only when *both* signals regress beyond tolerance:

    * absolute flat ``answers_per_sec`` vs the committed baseline, and
    * the flat/object speedup ratio vs the committed ratio.

    The ratio is measured against the object core *in the same run*, so
    it is machine-neutral: a CI runner that is simply slower than the
    machine that recorded the baseline depresses both cores equally and
    keeps the ratio intact, while a genuine flat-core regression drags
    the absolute number *and* the ratio down together.
    """
    failures = []
    old_cells = previous.get("modes", {}).get(MODE, {}).get("cells", {})
    for cell_name, cell in current["cells"].items():
        old_cell = old_cells.get(cell_name)
        if not old_cell:
            continue
        for variant, data in cell["variants"].items():
            old = old_cell.get("variants", {}).get(variant)
            if not old:
                continue
            baseline = old["flat"]["answers_per_sec"]
            now = data["flat"]["answers_per_sec"]
            absolute_regressed = now < baseline * (1.0 - TOLERANCE)
            old_ratio = old.get("speedup_answers_per_sec") or 0.0
            new_ratio = data.get("speedup_answers_per_sec") or 0.0
            ratio_regressed = new_ratio < old_ratio * (1.0 - TOLERANCE)
            if absolute_regressed and ratio_regressed:
                failures.append(
                    f"{cell_name}/{variant}: flat {now:.0f}/s vs committed "
                    f"{baseline:.0f}/s (-{(1 - now / baseline) * 100:.0f}%) "
                    f"and speedup {new_ratio:.2f}x vs committed "
                    f"{old_ratio:.2f}x (tolerance {TOLERANCE * 100:.0f}%)"
                )
    return failures


def main() -> int:
    previous = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            previous = json.load(handle)

    if ONLY_OBS:
        # CI's obs-smoke lane: rerun only the overhead section and fold
        # it into the committed mode dict, leaving the hot-path cells
        # and coldstart rows exactly as recorded.
        current = dict(previous.get("modes", {}).get(MODE, {}))
        current.setdefault("python", sys.version.split()[0])
        current["obs_overhead"] = run_obs_overhead()
        current["stream_hop"] = stream_hop_row(current["obs_overhead"])
        failures = obs_gate(previous, current["obs_overhead"]) if CHECK else []
    else:
        current = run_benchmark()
        # Top-level in the mode dict (NOT under cells: the regression
        # gate iterates cell["variants"], which these rows do not have).
        current["coldstart"] = run_coldstart()
        current["obs_overhead"] = run_obs_overhead()
        current["stream_hop"] = stream_hop_row(current["obs_overhead"])

        failures = []
        if CHECK:
            failures = regression_gate(previous, current)
            failures += coldstart_gate(current["coldstart"])
            failures += obs_gate(previous, current["obs_overhead"])
    if CHECK and SMOKE:
        failures += stream_hop_gate(previous, current["stream_hop"])

    merged = {"benchmark": "hotpath", "modes": previous.get("modes", {})}
    merged["modes"][MODE] = current
    with open(JSON_PATH, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {JSON_PATH} ({MODE} mode)")

    headline = (
        current.get("cells", {}).get("4-path[tropical]", {}).get("variants", {})
    )
    for variant in ("recursive", "take2"):
        if variant in headline:
            print(
                f"headline 4-path {variant}: "
                f"{headline[variant]['speedup_answers_per_sec']}x"
            )

    if failures:
        print("\nPERF REGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if CHECK:
        if ONLY_OBS:
            print("obs overhead gate passed "
                  f"(tolerance {OBS_TOLERANCE * 100:.0f}% "
                  "or the measured noise floor)")
        else:
            print("perf regression gate passed "
                  f"(tolerance {TOLERANCE * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
