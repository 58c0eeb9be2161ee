"""Operation counters for complexity-shape experiments.

Wall-clock timings in pure Python are noisy and constant-factor heavy,
so the test suite and several benchmarks additionally assert *counted*
operations: priority-queue pushes/pops, candidates created, successor
calls, recursive ``next`` calls, and so on.  These counts track the
quantities that appear in the paper's Figure 5 complexity table.
"""

from __future__ import annotations


class OpCounter:
    """A mutable bag of named operation counts.

    Enumerators accept an optional ``OpCounter``; when present they
    increment the relevant counters at coarse-grained points (per result,
    per candidate, per priority-queue operation).  The counter favours
    plain attribute increments over dict lookups to keep the overhead of
    instrumented runs low.

    Counting is opt-in and cheap on the hot path: the compiled flat
    loops (:mod:`repro.anyk.flat`) tally in locals and charge the
    counter once per answer (AnyK-part) or per call (Recursive) — the
    same loop runs with and without one.  Every flat enumerator counts
    the same semantic events as its object-graph counterpart, and the
    totals are exact after every answer, so instrumented runs are
    comparable across cores.
    """

    __slots__ = (
        "pq_push",
        "pq_pop",
        "candidates_created",
        "successor_calls",
        "next_calls",
        "results",
        "comparisons",
        "expansions",
        "tuples_scanned",
        "intermediate_tuples",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero out every counter."""
        self.pq_push = 0
        self.pq_pop = 0
        self.candidates_created = 0
        self.successor_calls = 0
        self.next_calls = 0
        self.results = 0
        self.comparisons = 0
        self.expansions = 0
        self.tuples_scanned = 0
        self.intermediate_tuples = 0

    def total_pq_ops(self) -> int:
        """Total priority-queue traffic (pushes plus pops)."""
        return self.pq_push + self.pq_pop

    def as_dict(self) -> dict[str, int]:
        """Snapshot of all counters, e.g. for report printing."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in self.__slots__
            if getattr(self, name)
        )
        return f"OpCounter({parts})"
