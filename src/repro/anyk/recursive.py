"""anyK-rec: the Recursive (REA) algorithm, Algorithm 2 + Section 5.1.

Every connector (shared choice set) memoises its ranked solution list
``Π_1, Π_2, ...``; a ``next`` call on a connector pops the top of its
candidate heap, asks the popped entry's state for its next-ranked suffix
(recursing into the state's child connector, or into a ranked Cartesian
product of its branches when the state has several children), pushes the
replacement, and records the new solution.

Because the memo lives **on the connector**, every parent state with the
same join value reuses the ranked suffixes — the sharing that lets
Recursive produce the full ordered output faster than Batch's
comparison sort on worst-case outputs (Theorem 11).

A state's ranked *suffixes* (its own weight combined with completions of
its subtree) come in three flavours:

* leaf state — the single suffix ``w(s)``;
* one child branch — the child connector's solutions shifted by
  ``w(s)`` (rank-preserving, no extra structure);
* several branches — a :class:`~repro.anyk.product.RankedProduct` over
  the branch connectors (the Section 5.1 construction).
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.anyk.base import Enumerator, RankedResult
from repro.anyk.product import RankedProduct
from repro.dp.graph import TDP, ChoiceSet
from repro.util.counters import OpCounter


class Recursive(Enumerator):
    """Algorithm 2 over a T-DP problem."""

    def __init__(self, tdp: TDP, counter: OpCounter | None = None):
        self.tdp = tdp
        self.decoder = tdp.assembler()
        self.counter = counter
        self.dioid = tdp.dioid
        #: connector uid -> ranked solutions [(key, value, state, js), ...]
        self._solutions: dict[int, list[tuple]] = {}
        #: connector uid -> candidate heap [(key, state, js, value), ...]
        self._heaps: dict[int, list[tuple]] = {}
        #: (stage, state) -> RankedProduct for multi-branch states
        self._products: dict[tuple[int, int], RankedProduct] = {}
        self._rank = 0
        self._exhausted = tdp.is_empty()
        self._roots = tdp.root_stages
        self._root_product: RankedProduct | None = None
        if not self._exhausted and len(self._roots) > 1:
            self._root_product = RankedProduct(
                [tdp.root_conn[r] for r in self._roots],
                self._ensure,
                self.dioid,
                counter=counter,
            )

    # -- per-connector REA ----------------------------------------------------------

    def _ensure(self, conn: ChoiceSet, j: int) -> tuple | None:
        """Solution ``Π_{j+1}`` of ``conn`` (0-based), or ``None``.

        Advances the connector's memoised solution list as needed; each
        advance is one ``next`` call of Algorithm 2.
        """
        uid = conn.uid
        sols = self._solutions.get(uid)
        if sols is None:
            sols = []
            self._solutions[uid] = sols
            heap = [
                (key, state, 0, value) for (key, state, value) in conn.entries
            ]
            heapq.heapify(heap)
            self._heaps[uid] = heap
        if j < len(sols):
            return sols[j]
        heap = self._heaps[uid]
        counter = self.counter
        stage = conn.stage
        while len(sols) <= j:
            if not heap:
                return None
            key, state, js, value = heapq.heappop(heap)
            if counter is not None:
                counter.pq_pop += 1
                counter.next_calls += 1
            sols.append((key, value, state, js))
            bumped = self._state_suffix(stage, state, js + 1)
            if bumped is not None:
                heapq.heappush(
                    heap, (self.dioid.key(bumped), state, js + 1, bumped)
                )
                if counter is not None:
                    counter.pq_push += 1
        return sols[j]

    def _state_suffix(self, stage: int, state: int, j: int) -> Any | None:
        """Weight of the ``j``-th ranked suffix rooted at ``state``."""
        conns = self.tdp.child_conns[stage][state]
        own = self.tdp.values[stage][state]
        if not conns:
            return own if j == 0 else None
        if len(conns) == 1:
            entry = self._ensure(conns[0], j)
            if entry is None:
                return None
            return self.dioid.times(own, entry[1])
        product = self._product(stage, state, conns)
        combo = product.get(j)
        if combo is None:
            return None
        return self.dioid.times(own, combo[0])

    def _product(self, stage: int, state: int, conns) -> RankedProduct:
        key = (stage, state)
        product = self._products.get(key)
        if product is None:
            product = RankedProduct(
                conns, self._ensure, self.dioid, counter=self.counter
            )
            self._products[key] = product
        return product

    # -- result reconstruction ---------------------------------------------------------

    def _reconstruct(self, conn: ChoiceSet, j: int, states: list[int]) -> None:
        _key, _value, state, js = self._solutions[conn.uid][j]
        stage = conn.stage
        states[stage] = state
        conns = self.tdp.child_conns[stage][state]
        if not conns:
            return
        if len(conns) == 1:
            self._reconstruct(conns[0], js, states)
            return
        _value, vector = self._products[(stage, state)].outputs[js]
        for branch, child_conn in enumerate(conns):
            self._reconstruct(child_conn, vector[branch], states)

    # -- iterator protocol ---------------------------------------------------------------

    def _next_result(self) -> RankedResult | None:
        if self._exhausted:
            return None
        tdp = self.tdp
        rank = self._rank
        states = [0] * tdp.num_stages
        if self._root_product is not None:
            combo = self._root_product.get(rank)
            if combo is None:
                self._exhausted = True
                return None
            value, vector = combo
            for branch, root in enumerate(self._roots):
                self._reconstruct(tdp.root_conn[root], vector[branch], states)
        else:
            root_conn = tdp.root_conn[self._roots[0]]
            entry = self._ensure(root_conn, rank)
            if entry is None:
                self._exhausted = True
                return None
            value = entry[1]
            self._reconstruct(root_conn, rank, states)
        self._rank += 1
        if self.counter is not None:
            self.counter.results += 1
        return RankedResult(value, self.dioid.key(value), tuple(states), self.decoder)
