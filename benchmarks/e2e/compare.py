"""``--compare`` and ``--selfcheck``: two sets of runs, metric by metric.

For every end-to-end metric on every workload: both medians, both
quartile pairs, the bound, and a verdict —

* ``unresolved``: the run-to-run spread of either set (distance between
  its quartiles over its median) is wider than the bound, so the sets
  cannot tell a change of that size from noise;
* ``regressed``: the second set's median is worse than the first's by
  more than the bound;
* ``ok`` otherwise.

A set with a single run per workload falls back on the quartiles of that
run's own five blocks.  Per-layer metrics are printed side by side
without a verdict: they have no bound.
"""

from __future__ import annotations

import json
import statistics
from typing import Sequence

from benchmarks.e2e import spec


def _cell(runs: Sequence[dict], workload: str, metric: str) -> dict | None:
    """Median and quartiles of one metric on one workload within a set."""
    selected = [
        run for run in runs
        if run["workload"] == workload and run["trace"] == 0
        and metric in run.get("result", {}).get("metrics", {})
    ]
    if not selected:
        return None
    values = [run["result"]["metrics"][metric]["value"] for run in selected]
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        detail = selected[0].get("detail", {}).get("metrics", {}).get(metric, {})
        q1, q3 = detail.get("q1", median), detail.get("q3", median)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def _verdict(metric: spec.Metric, first: dict, second: dict) -> str:
    # Every end-to-end metric here is lower-is-better.
    worse = (second["median"] - first["median"]) / first["median"]
    spread = max(first["spread"], second["spread"])
    # setup_s is a median of three set-ups per run: its spread is not
    # gated (the driver does not gate it either), only its shift.
    if metric.name != "setup_s" and spread > metric.bound:
        return "unresolved"
    return "regressed" if worse > metric.bound else "ok"


def compare_runs(
    first: Sequence[dict], second: Sequence[dict], selfcheck: bool = False
) -> int:
    """Print the comparison; 1 on ``regressed`` (or, in a self-check, on
    ``unresolved`` too), else 0."""
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    header = (
        f"{'workload':<12} {'metric':<20} {'A median':>11} {'A q1..q3':>21} "
        f"{'B median':>11} {'B q1..q3':>21} {'bound':>6}  verdict"
    )
    print(header)
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            a = _cell(first, workload.name, metric.name)
            b = _cell(second, workload.name, metric.name)
            if a is None or b is None:
                continue
            verdict = _verdict(metric, a, b)
            counts[verdict] += 1
            print(
                f"{workload.name:<12} {metric.name:<20} {a['median']:>11.4f} "
                f"{a['q1']:>10.4f}..{a['q3']:<9.4f} {b['median']:>11.4f} "
                f"{b['q1']:>10.4f}..{b['q3']:<9.4f} {metric.bound:>6.2f}  {verdict}"
            )
    _print_layers(first, second)
    print(
        f"{counts['ok']} ok, {counts['regressed']} regressed, "
        f"{counts['unresolved']} unresolved"
    )
    failed = counts["regressed"] + (counts["unresolved"] if selfcheck else 0)
    return 1 if failed else 0


def _layer_values(runs: Sequence[dict]) -> dict[str, float]:
    for run in runs:
        if run["trace"] == 1 and "result" in run:
            return {
                name: metric["value"]
                for name, metric in run["result"]["metrics"].items()
            }
    return {}


def _print_layers(first: Sequence[dict], second: Sequence[dict]) -> None:
    a, b = _layer_values(first), _layer_values(second)
    if not a or not b:
        return
    print(f"{'per-layer metric':<48} {'A':>14} {'B':>14}  unit")
    for metric in spec.PER_LAYER:
        if metric.name in a and metric.name in b:
            print(
                f"{metric.name:<48} {a[metric.name]:>14.4f} "
                f"{b[metric.name]:>14.4f}  {metric.unit}"
            )


def compare_files(first_path: str, second_path: str) -> int:
    with open(first_path) as handle:
        first = json.load(handle)["runs"]
    with open(second_path) as handle:
        second = json.load(handle)["runs"]
    return compare_runs(first, second)
