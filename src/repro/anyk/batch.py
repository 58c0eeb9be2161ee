"""The Batch baseline: compute the full output, then sort (Section 4.3).

For acyclic queries the full output enumeration over the reduced T-DP is
exactly the Yannakakis algorithm (the bottom-up pruning of the builder
is the semi-join reduction); cyclic queries reach Batch through the
same decomposition + union machinery as the any-k algorithms, or through
the standalone NPRR/Generic-Join implementation in ``repro.joins``.

``sort=False`` gives the paper's "Batch(No sort)" reference point, which
measures pure full-result computation.
"""

from __future__ import annotations

from typing import Iterator

from repro.anyk.base import Enumerator, RankedResult
from repro.dp.graph import TDP
from repro.util.counters import OpCounter


def enumerate_all_solutions(tdp: TDP, counter: OpCounter | None = None) -> Iterator[tuple]:
    """Yield ``(weight, states)`` for every solution, in no particular order.

    Iterative backtracking over the reduced state space: every alive
    partial solution completes (the Yannakakis guarantee), so the cost is
    O(l) per output tuple after the linear-time build.
    """
    if tdp.is_empty():
        return
    num_stages = tdp.num_stages
    dioid = tdp.dioid
    times = dioid.times
    values = tdp.values
    parent_stage = tdp.parent_stage
    child_conns = tdp.child_conns
    branch_index = tdp.branch_index
    root_conn = tdp.root_conn

    states = [0] * num_stages
    prefix_weight = [dioid.one] * (num_stages + 1)
    iterators: list[Iterator | None] = [None] * num_stages
    iterators[0] = iter(tdp.connector_for(0, None).entries)
    level = 0
    while level >= 0:
        entry = next(iterators[level], None)
        if entry is None:
            level -= 1
            continue
        state = entry[1]
        states[level] = state
        prefix_weight[level + 1] = times(prefix_weight[level], values[level][state])
        if counter is not None:
            counter.intermediate_tuples += 1
        if level == num_stages - 1:
            yield (prefix_weight[num_stages], tuple(states))
        else:
            level += 1
            parent = parent_stage[level]
            if parent == -1:
                conn = root_conn[level]
            else:
                conn = child_conns[parent][states[parent]][branch_index[level]]
            iterators[level] = iter(conn.entries)


class Batch(Enumerator):
    """Materialise the full output, optionally sort it, then iterate."""

    def __init__(self, tdp: TDP, sort: bool = True, counter: OpCounter | None = None):
        self.tdp = tdp
        self.decoder = tdp.assembler()
        self.counter = counter
        self.sorted = sort
        dioid = self.dioid = tdp.dioid
        key_of = dioid.key
        results = [
            (key_of(weight), states, weight)
            for weight, states in enumerate_all_solutions(tdp, counter=counter)
        ]
        if sort:
            # Sort by key, breaking ties by the state vector so the order
            # is deterministic across algorithms.
            results.sort(key=lambda item: (item[0], item[1]))
        self.size = len(results)
        self._iter = iter(results)

    def _next_result(self) -> RankedResult | None:
        item = next(self._iter, None)
        if item is None:
            return None
        key, states, weight = item
        if self.counter is not None:
            self.counter.results += 1
        return RankedResult(weight, key, states, self.decoder)
