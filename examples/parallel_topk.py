"""Sharded execution: fragment-sharded preprocessing with a ranked merge.

The sharded layer partitions one anchor relation into disjoint
fragments, builds one (strictly smaller) T-DP per fragment, and merges
the per-fragment any-k streams back into the exact global ranked order.
This script shows the whole surface:

* ``Engine.prepare(query, shards=N)`` — the one-keyword opt-in;
* the bit-identical guarantee (sharded top-k == unsharded top-k);
* the preprocessing cost, measured against the unsharded bind;
* the shard plan in ``explain()`` and per-shard attribution stats.

Run:  python examples/parallel_topk.py
"""

import time

from repro import Database, Engine
from repro.data.graphs import twitter_like
from repro.query.parser import parse_query


def timed_bind(engine: Engine, query, **kwargs):
    engine.clear_caches()
    start = time.perf_counter()
    prepared = engine.prepare(query, **kwargs)
    physical = prepared.bind()
    return prepared, physical, (time.perf_counter() - start) * 1e3


def main() -> None:
    edges = twitter_like(num_nodes=2_000, num_edges=30_000, seed=7)
    engine = Engine(Database([edges.rename("E")]))
    query = parse_query(
        "Q(a, b, c, d) :- E(a, b), E(b, c), E(c, d)"
    )

    serial, _physical, serial_ms = timed_bind(engine, query)
    top_serial = serial.top(5)

    sharded, physical, sharded_ms = timed_bind(engine, query, shards=4)
    top_sharded = sharded.top(5)

    print(f"serial preprocessing:  {serial_ms:7.1f} ms")
    print(f"4-shard preprocessing: {sharded_ms:7.1f} ms "
          f"({serial_ms / sharded_ms:.2f}x)\n")

    print("top-5 lightest 3-hop chains (bit-identical to the serial run):")
    assert [(r.weight, r.assignment) for r in top_sharded] == [
        (r.weight, r.assignment) for r in top_serial
    ]
    for rank, result in enumerate(top_sharded, start=1):
        chain = " -> ".join(
            str(result.assignment[v]) for v in ("a", "b", "c", "d")
        )
        print(f"  #{rank}  weight={result.weight:.3f}  {chain}")

    print("\nshard plan (from explain()):")
    for line in sharded.explain().splitlines():
        if "shard" in line or "fragment" in line:
            print(f"  {line.strip()}")

    # Pull a bigger prefix, then show which fragment served what.
    sharded.top(500)
    stats = physical.shard_stats()
    print(f"\nper-shard attribution after top-500: "
          f"{stats['last_shard_counts']} "
          f"(anchor states per fragment: {stats['fragment_states']})")


if __name__ == "__main__":
    main()
