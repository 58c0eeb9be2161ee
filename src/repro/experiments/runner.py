"""Timing drivers: TT(k) curves, TTF, TTL (Section 7 methodology).

Cold-start timings (:func:`measure_ttk` without a prepared query)
include preprocessing — join tree or decomposition, T-DP bottom-up,
data-structure initialisation — exactly like the paper's TT(k).  Since
the engine refactor the two phases are timed *separately*: every
:class:`TTKResult` carries ``preprocess`` (seconds spent before
enumeration could start) next to the total, and
:func:`measure_enumeration` measures the warm path of a
:class:`~repro.engine.engine.PreparedQuery`, where preprocessing has
already been paid and only the enumeration phase runs.

Checkpoint curves record the elapsed time after every ``checkpoint``
results, which is exactly what the paper's "#Results vs Time" plots
show.

Serving latency is not measured here: the session manager's
``repro_fetch_latency_seconds`` histogram records every fetch, and
``benchmarks/e2e`` times pages end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.data.database import Database
from repro.engine import Engine, PreparedQuery
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import TROPICAL, SelectiveDioid


@dataclass
class TTKResult:
    """Outcome of one TT(k) run."""

    algorithm: str
    ttf: float
    ttk: float
    k: int
    produced: int
    curve: list[tuple[int, float]] = field(default_factory=list)
    #: Seconds spent in the preprocessing phase (0.0 on warm runs).
    preprocess: float = 0.0
    #: Seconds spent loading/opening the database before the query ran
    #: (only set by :func:`measure_cold_start`; excluded from ``ttk``,
    #: mirroring how the paper excludes data loading from TT(k)).
    load: float = 0.0

    @property
    def enumeration(self) -> float:
        """Seconds spent in the enumeration phase (total - preprocessing)."""
        return max(0.0, self.ttk - self.preprocess)

    def row(self) -> str:
        text = (
            f"{self.algorithm:>10}  TTF={self.ttf * 1e3:9.2f} ms  "
            f"TT({self.produced})={self.ttk:8.3f} s  "
            f"(pre={self.preprocess * 1e3:7.2f} ms)"
        )
        if self.load:
            text += f"  (load={self.load * 1e3:7.2f} ms)"
        return text


def _drain(
    iterator: Iterator,
    k: int | None,
    checkpoints: int,
    start: float,
) -> tuple[float, int, list[tuple[int, float]]]:
    """Pull up to ``k`` results, recording TTF and the checkpoint curve."""
    produced = 0
    ttf = 0.0
    curve: list[tuple[int, float]] = []
    # Fixed k: evenly spaced checkpoints.  Full enumeration (k = None):
    # the total is unknown up front, so checkpoint at powers of two —
    # matching the log-scale reading of the paper's TT(k) plots.
    step = max(1, (k or 0) // max(1, checkpoints))
    geometric_checkpoint = 2
    for _result in iterator:
        produced += 1
        if produced == 1:
            ttf = time.perf_counter() - start
            curve.append((1, ttf))
        elif k is None:
            if produced == geometric_checkpoint:
                curve.append((produced, time.perf_counter() - start))
                geometric_checkpoint *= 2
        elif produced % step == 0:
            curve.append((produced, time.perf_counter() - start))
        if k is not None and produced >= k:
            break
    return ttf, produced, curve


def measure_ttk(
    database: Database,
    query: ConjunctiveQuery,
    algorithm: str,
    k: int | None,
    checkpoints: int = 8,
    dioid: SelectiveDioid = TROPICAL,
    prepared: PreparedQuery | None = None,
) -> TTKResult:
    """Run one enumeration up to ``k`` results (None = all).

    Without ``prepared`` this is a cold start (preprocessing included in
    the total, as in the paper, but also reported separately).  With a
    bound ``prepared`` query, preprocessing is skipped and the run
    measures the enumeration phase only (``preprocess`` ≈ 0).
    """
    start = time.perf_counter()
    if prepared is None:
        prepared = Engine(database).prepare(
            query, dioid=dioid, algorithm=algorithm
        )
    was_bound = prepared.is_bound
    prepared.bind()
    preprocess = 0.0 if was_bound else time.perf_counter() - start
    iterator = prepared.iter()
    ttf, produced, curve = _drain(iterator, k, checkpoints, start)
    ttk = time.perf_counter() - start
    if not curve or curve[-1][0] != produced:
        curve.append((produced, ttk))
    return TTKResult(
        prepared.logical.algorithm, ttf, ttk, k or produced, produced, curve,
        preprocess=preprocess,
    )


def measure_cold_start(
    database_factory,
    query: ConjunctiveQuery,
    algorithm: str,
    k: int | None,
    checkpoints: int = 8,
    dioid: SelectiveDioid = TROPICAL,
) -> TTKResult:
    """Cold start *including* database load/open.

    ``database_factory`` builds or opens the database (CSV parse, SQLite
    ingestion, or a bare reopen of a populated ``.db`` file); its
    wall-clock lands in ``TTKResult.load``, kept separate from the
    TT(k) total so backends can be compared on all three phases:
    cold load, preprocessing (plan bind), and enumeration.
    """
    start = time.perf_counter()
    database = database_factory()
    load = time.perf_counter() - start
    result = measure_ttk(
        database, query, algorithm, k, checkpoints=checkpoints, dioid=dioid
    )
    result.load = load
    return result


def measure_enumeration(
    prepared: PreparedQuery,
    k: int | None,
    checkpoints: int = 8,
) -> TTKResult:
    """Warm-path TT(k): bind outside the timer, measure enumeration only.

    This is the per-request cost of a served prepared query: the
    reported TTF is the *enumeration delay* to the first result, with
    preprocessing amortised away (``preprocess == 0.0`` by definition).
    """
    prepared.bind()
    return measure_ttk(
        prepared.engine.database,
        prepared.query,
        prepared.logical.algorithm,
        k,
        checkpoints=checkpoints,
        prepared=prepared,
    )


def measure_full_enumeration(
    database: Database,
    query: ConjunctiveQuery,
    algorithm: str,
    dioid: SelectiveDioid = TROPICAL,
) -> TTKResult:
    """TTL: cold-start enumeration of the complete ranked output."""
    return measure_ttk(database, query, algorithm, k=None, dioid=dioid)


# ``percentile`` grew up here but now lives in repro.obs.latency;
# re-exported so existing imports keep working.
from repro.obs.latency import percentile  # noqa: E402

__all__ = [
    "TTKResult",
    "percentile",
    "measure_ttk",
    "measure_cold_start",
    "measure_enumeration",
    "measure_full_enumeration",
    "curve_table",
    "run_workload",
]


def curve_table(results: list[TTKResult], label: str = "") -> str:
    """Render TT(k) curves as the paper's '#Results vs Time' series."""
    lines = [f"== {label} ==" if label else "=="]
    for result in results:
        lines.append(result.row())
        series = "  ".join(f"({k}, {t:.3f}s)" for k, t in result.curve)
        lines.append(f"{'':>12}curve: {series}")
    return "\n".join(lines)


def run_workload(
    workload,
    algorithms: list[str],
    dioid: SelectiveDioid = TROPICAL,
    repetitions: int = 1,
    reuse_plan: bool = False,
) -> list[TTKResult]:
    """Measure all ``algorithms`` on a workload.

    Default (``reuse_plan=False``): cold start for every measurement,
    the paper's methodology.  With ``reuse_plan=True`` a single
    :class:`~repro.engine.Engine` serves every run: the physical plan
    (built T-DPs) is algorithm-independent and shared, so preprocessing
    is paid exactly once per *workload* — reported on the very first
    result; every later result (other algorithms included) reports
    ``preprocess`` ≈ 0 — which is how a serving deployment behaves.
    """
    results: list[TTKResult] = []
    if not reuse_plan:
        for algorithm in algorithms:
            for _ in range(repetitions):
                results.append(
                    measure_ttk(
                        workload.database, workload.query, algorithm,
                        workload.k, dioid=dioid,
                    )
                )
        return results
    engine = Engine(workload.database)
    for algorithm in algorithms:
        prepared = engine.prepare(
            workload.query, dioid=dioid, algorithm=algorithm
        )
        for _ in range(repetitions):
            results.append(
                measure_ttk(
                    workload.database, workload.query, algorithm,
                    workload.k, dioid=dioid, prepared=prepared,
                )
            )
    return results
