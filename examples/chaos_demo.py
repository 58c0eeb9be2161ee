"""Chaos demo: the fault-tolerance layer recovering, end to end.

Runs four deterministic failure drills against one small any-k workload
and shows each one recovering with **bit-identical ranked output**:

1. a storm of transient ``database is locked`` errors absorbed by the
   SQLite retrier;
2. a pool worker killed mid shard build, respawned transparently;
3. a truncated ``.core`` warm-start container degrading to a cold
   rebuild;
4. a fetch deadline cutting a page short — the partial page is still
   the exact ranked prefix, and the cursor resumes where it stopped.

Everything is driven through :mod:`repro.util.faults` — the same
``REPRO_FAULTS`` rules CI's chaos-smoke lane uses — so each drill is
replayable byte for byte.

Run:  PYTHONPATH=src python examples/chaos_demo.py
"""

from __future__ import annotations

import tempfile
import os

from repro.data.backend import SQLiteBackend
from repro.data.generators import uniform_database
from repro.engine import Engine
from repro.query.builders import path_query
from repro.util.resilience import COUNTERS
from repro.serve.session import SessionManager
from repro.util import faults

QUERY = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"


def signature(results):
    return [(round(r.weight, 6), r.output_tuple) for r in results]


def banner(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    database = uniform_database(3, 30, domain_size=5, seed=11)
    baseline = signature(Engine(database).prepare(path_query(3)).iter())
    print(f"baseline: {len(baseline)} ranked answers (fault-free run)")

    with tempfile.TemporaryDirectory() as tmp:
        banner("1. sqlite busy storm")
        sqlite = SQLiteBackend(os.path.join(tmp, "demo.db"))
        for relation in database:
            sqlite.ingest(relation)
        engine = Engine(sqlite.database(), core_cache="off")
        with faults.injected("sqlite.execute=raise:2:3:busy"):
            results = signature(engine.prepare(path_query(3)).iter())
        assert results == baseline
        print(f"three injected 'database is locked' errors, "
              f"{COUNTERS.get('retries_sqlite')} retries, output identical")

        banner("2. worker killed mid shard build")
        token = os.path.join(tmp, "kill-once")
        open(token, "w").close()
        engine = Engine(database, core_cache="off")
        with faults.injected(f"worker.scan=exit:1:0:{token}"):
            results = signature(
                engine.prepare(
                    path_query(3), shards=2, shard_parallel="process"
                ).iter()
            )
        assert results == baseline
        print(f"one pool worker killed (os._exit), "
              f"{COUNTERS.get('worker_respawns')} respawn, output identical")

        banner("3. truncated .core container")
        core_path = os.path.join(tmp, "plans.core")
        warm = Engine(database, core_cache=core_path)
        list(warm.prepare(path_query(3)).iter())  # writes the core file
        payload = open(core_path, "rb").read()
        open(core_path, "wb").write(payload[: len(payload) // 2])
        cold = Engine(database, core_cache=core_path)
        results = signature(cold.prepare(path_query(3)).iter())
        assert results == baseline
        print(f"container cut to {len(payload) // 2} of {len(payload)} bytes; "
              "warm start degraded to a cold rebuild, output identical")

    banner("4. fetch deadline -> partial page")
    manager = SessionManager(Engine(database), slice_size=8)
    _, cursor = manager.open_cursor("demo", QUERY)
    outcome = manager.fetch("demo", cursor, 200, deadline_ms=0.05)
    served = len(outcome.results)
    assert outcome.deadline_exceeded
    assert signature(outcome.results) == baseline[:served]
    rest = manager.fetch("demo", cursor, 200 - served)
    assert signature(outcome.results + rest.results) == baseline[:200]
    print(f"deadline expired after {served} of 200 answers; the partial "
          "page is the exact ranked prefix and the cursor resumed cleanly")

    print("\nall drills recovered with bit-identical output")


if __name__ == "__main__":
    main()
