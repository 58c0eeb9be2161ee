"""``--fidelity``: the paper's qualitative claims, from operation counts.

Section 7 and Theorem 11 of the source paper say, for path queries:

1. every any-k variant reaches the first answer with a small fraction of
   Batch's work, and among them the anyK-part family (Lazy in front,
   All last, because it floods the queue) leads Recursive on TTF;
2. Recursive overtakes anyK-part on the way to the last answer (TTL),
   because it ranks every shared suffix once;
3. Batch wins only near the full output.

Wall-clock cannot gate those in CI; counts can.  ``OpCounter`` gives
exact priority-queue pushes and pops per variant on a fixed instance,
and a heap operation on a queue of ``s`` entries is charged
``log2(s + 2)``:

* anyK-part keeps one global candidate queue whose size is
  ``pq_push - pq_pop``, sampled after every answer;
* Recursive keeps one queue per connector, none larger than a relation,
  so every operation is charged ``log2(n + 2)`` — an upper bound, which
  biases claim 2 *against* Recursive;
* Batch pays the join (``intermediate_tuples``) plus a comparison sort of
  the output, ``out * log2(out)``, before its first answer.

The numbers are the same on every machine; a violated claim exits 1.
"""

from __future__ import annotations

import math

from repro.anyk.base import make_enumerator
from repro.data.generators import uniform_database
from repro.dp.builder import build_tdp_for_query
from repro.query.builders import path_query
from repro.util.counters import OpCounter

#: The fixed instance: a 4-path, ``TUPLES`` per relation, join degree 5.
TUPLES = 400
DOMAIN = 80
SEED = 93
PART_VARIANTS = ("take2", "lazy", "eager", "all")


def _cost_curve(tdp, variant: str, queue_bound: int | None) -> list[float]:
    """Cumulative modelled cost after each answer of ``variant``.

    ``queue_bound`` is the fixed queue size charged per operation
    (Recursive); ``None`` charges the global queue's sampled size.
    """
    counter = OpCounter()
    curve: list[float] = []
    cost = 0.0
    ops_before = 0
    for _result in make_enumerator(tdp, variant, counter=counter):
        ops = counter.pq_push + counter.pq_pop
        size = (
            counter.pq_push - counter.pq_pop
            if queue_bound is None
            else queue_bound
        )
        cost += (ops - ops_before) * math.log2(size + 2)
        ops_before = ops
        curve.append(cost)
    return curve


def measure() -> dict:
    """Cost curves and the derived claim values on the fixed instance."""
    database = uniform_database(4, TUPLES, domain_size=DOMAIN, seed=SEED)
    tdp = build_tdp_for_query(database, path_query(4))
    curves = {
        variant: _cost_curve(tdp, variant, None) for variant in PART_VARIANTS
    }
    curves["recursive"] = _cost_curve(tdp, "recursive", TUPLES)
    out = len(curves["recursive"])
    counter = OpCounter()
    batch_out = sum(1 for _ in make_enumerator(tdp, "batch", counter=counter))
    batch_cost = counter.intermediate_tuples + batch_out * math.log2(batch_out)

    best_part = [
        min(curves[variant][rank] for variant in PART_VARIANTS)
        for rank in range(out)
    ]
    best_anyk = [
        min(part, rec) for part, rec in zip(best_part, curves["recursive"])
    ]
    crossover = next(
        (rank + 1 for rank, cost in enumerate(best_anyk) if cost >= batch_cost),
        out,
    )
    early = max(1, out // 100) - 1
    return {
        "out": out,
        "batch_out": batch_out,
        "ttf_cost": {variant: curve[0] for variant, curve in curves.items()},
        "batch_cost": batch_cost,
        "rec_over_part_early_ratio": curves["recursive"][early] / best_part[early],
        "paper.rec_over_part_ttl_ops_ratio": (
            curves["recursive"][-1] / best_part[-1]
        ),
        "paper.batch_crossover_frac": crossover / out,
    }


def claims(measured: dict) -> list[tuple[str, bool]]:
    """Each claim as (statement, holds)."""
    ttf = measured["ttf_cost"]
    slowest_anyk = max(ttf.values())
    return [
        (
            "every variant enumerates the same number of answers as Batch",
            measured["out"] == measured["batch_out"],
        ),
        (
            "TTF: every any-k variant needs < 5% of Batch's work",
            slowest_anyk * 20 < measured["batch_cost"],
        ),
        (
            "TTF: Lazy leads, All (queue flooding) trails the anyK-part family",
            ttf["lazy"] <= min(ttf[v] for v in PART_VARIANTS)
            and ttf["all"] >= max(ttf[v] for v in PART_VARIANTS),
        ),
        (
            "TTF: anyK-part leads Recursive",
            min(ttf[v] for v in PART_VARIANTS) < ttf["recursive"],
        ),
        (
            "early (1% of output): anyK-part still ahead of Recursive",
            measured["rec_over_part_early_ratio"] > 1.0,
        ),
        (
            "TTL on a path: Recursive overtakes anyK-part (ratio < 1)",
            measured["paper.rec_over_part_ttl_ops_ratio"] < 1.0,
        ),
        (
            "Batch wins only near the full output (crossover past 50%)",
            measured["paper.batch_crossover_frac"] > 0.5,
        ),
    ]


def run_fidelity() -> int:
    measured = measure()
    print(
        f"paper fidelity on a 4-path, n={TUPLES}, domain={DOMAIN}, "
        f"seed={SEED}: {measured['out']} answers"
    )
    for variant, cost in sorted(measured["ttf_cost"].items(), key=lambda kv: kv[1]):
        print(f"  TTF cost {variant:<10} {cost:>12.1f}")
    print(f"  Batch cost (join + sort) {measured['batch_cost']:>14.1f}")
    for name in ("paper.rec_over_part_ttl_ops_ratio", "paper.batch_crossover_frac"):
        print(f"  {name:<40} {measured[name]:.4f} ratio")
    violated = 0
    for statement, holds in claims(measured):
        print(f"  [{'ok' if holds else 'VIOLATED'}] {statement}")
        violated += not holds
    return 1 if violated else 0
