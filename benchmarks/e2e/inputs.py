"""Seeded inputs and the reference every returned page is checked against.

The seed reaches only this module: it turns ``(workload, seed)`` into a
database, and the program under test receives that database (or the
SQLite file made from it), never the seed.

The reference prefix is computed through a path the workloads do not
take — the object-graph ``lazy`` enumerator over a T-DP built directly
(acyclic), or a separately bound plan enumerated with ``lazy`` (cycle) —
so a defect in the flat core, the stream memo, the cursor or a transport
cannot hide in both.  Different algorithms may order equal-weight
answers differently, so pages are compared weight by weight at each rank
and tuple by tuple as multisets within each run of equal weights.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import islice
from typing import Any, Iterable, Sequence

from repro.anyk.base import make_enumerator
from repro.data.database import Database
from repro.data.generators import uniform_database
from repro.dp.builder import build_tdp_for_query
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import NAMED_DIOIDS, SelectiveDioid
from repro.serve import protocol

from benchmarks.e2e.spec import Workload

#: The 4-path as the serving workloads send it over the wire.
PATH4_TEXT = (
    "QP4(x1, x2, x3, x4, x5) :- "
    "R1(x1, x2), R2(x2, x3), R3(x3, x4), R4(x4, x5)"
)

#: One answer in comparable form: (weight, head tuple).
Row = tuple[Any, tuple]


def database_for(workload: Workload, seed: int) -> Database:
    """The workload's input relations for ``seed`` (same seed, same data)."""
    return uniform_database(
        workload.relations,
        workload.tuples,
        domain_size=workload.domain,
        seed=seed,
        weight_high=workload.weight_high,
    )


def query_for(shape: str, size: int = 4) -> ConjunctiveQuery:
    builders = {"path": path_query, "star": star_query, "cycle": cycle_query}
    return builders[shape](size)


def dioid_for(workload: Workload) -> SelectiveDioid:
    return NAMED_DIOIDS[workload.dioid]


def result_rows(results: Iterable) -> list[Row]:
    """In-process ``QueryResult`` objects in comparable form."""
    return [(result.weight, result.output_tuple) for result in results]


def wire_result_rows(rows: Iterable[dict], head: Sequence[str]) -> list[Row]:
    """Decoded wire rows in comparable form."""
    return [
        (row["weight"], tuple(row["assignment"][var] for var in head))
        for row in rows
    ]


def wire_form(results: Sequence, start: int = 0) -> list[dict]:
    """What a client must decode for ``results`` served from rank ``start``.

    Built with the program's own encoder and a JSON round trip, so the
    comparison is on decoded values, bit for bit.
    """
    return [
        json.loads(protocol.encode(protocol.result_message(start + i, result)))[
            "result"
        ]
        for i, result in enumerate(results)
    ]


def _same_weight(a: Any, b: Any) -> bool:
    # Sums along a path may associate differently in different
    # enumerators; anything beyond rounding is a wrong answer.
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


class Reference:
    """A ranked prefix from the independent path, with its tie runs.

    Holds at least ``k`` answers and always whole runs of equal weight,
    so a page that ends inside a run can still be checked: its tuples
    must come from that run.
    """

    def __init__(self, rows: list[Row], k: int):
        if len(rows) < k:
            raise ValueError(
                f"reference output has {len(rows)} answers, workload needs {k}"
            )
        self.k = k
        self.rows = rows
        #: ``run_of[rank]`` indexes ``runs``; a run is (start, stop).
        self.run_of: list[int] = []
        self.runs: list[tuple[int, int]] = []
        start = 0
        for rank in range(1, len(rows) + 1):
            if rank == len(rows) or not _same_weight(
                rows[rank][0], rows[start][0]
            ):
                self.runs.append((start, rank))
                self.run_of.extend([len(self.runs) - 1] * (rank - start))
                start = rank

    def checker(self) -> "PrefixChecker":
        return PrefixChecker(self)


class PrefixChecker:
    """Checks the pages of one request, in rank order, against a reference."""

    def __init__(self, reference: Reference):
        self.reference = reference
        #: Tuples of each tie run not yet claimed by a page of this request.
        self._remaining: dict[int, Counter] = {}

    def page_matches(self, start: int, rows: Sequence[Row]) -> bool:
        reference = self.reference
        if start + len(rows) > reference.k:
            return False
        for offset, (weight, output) in enumerate(rows):
            rank = start + offset
            expected_weight, expected_output = reference.rows[rank]
            if not _same_weight(weight, expected_weight):
                return False
            run = reference.run_of[rank]
            run_start, run_stop = reference.runs[run]
            if run_stop - run_start == 1:
                if output != expected_output:
                    return False
                continue
            remaining = self._remaining.get(run)
            if remaining is None:
                remaining = self._remaining[run] = Counter(
                    row[1] for row in reference.rows[run_start:run_stop]
                )
            if remaining[output] <= 0:
                return False
            remaining[output] -= 1
        return True


def _take_whole_runs(iterator: Iterable[Row], k: int) -> list[Row]:
    """The first ``k`` rows plus the rest of the tie run rank ``k-1`` is in."""
    iterator = iter(iterator)
    rows = list(islice(iterator, k))
    if len(rows) == k:
        for row in iterator:
            if not _same_weight(row[0], rows[-1][0]):
                break
            rows.append(row)
    return rows


def independent_reference(
    workload: Workload, database: Database, k: int
) -> Reference:
    """The first ``k`` ranked answers by a path the workloads do not use."""
    query = query_for(workload.shape, workload.relations)
    dioid = dioid_for(workload)
    if workload.shape == "cycle":
        engine = Engine(database, core_cache="off")
        physical = engine.prepare(query, dioid=dioid, algorithm="lazy").bind()
        rows = _take_whole_runs(
            ((r.weight, r.output_tuple) for r in physical.iter(algorithm="lazy")),
            k,
        )
        engine.close()
    else:
        tdp = build_tdp_for_query(database, query, dioid=dioid)
        rows = _take_whole_runs(
            (
                (r.weight, r.output_tuple())
                for r in make_enumerator(tdp, "lazy", flat=False)
            ),
            k,
        )
    return Reference(rows, k)
