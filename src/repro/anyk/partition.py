"""anyK-part (Algorithm 1): ranked enumeration by repeated partitioning.

A *candidate* is the best solution of one Lawler subspace: a fixed prefix
of states for the serialised stages ``0 .. r-1`` plus a restricted choice
at stage ``r`` (restriction expressed through the successor strategy's
structure).  The candidate priority is the weight of its best completion.
Popping the minimum candidate, the algorithm

1. walks stages ``r .. L-1``; at each stage it asks the strategy for the
   successors of the current choice and pushes them as new candidates
   (the subspaces ``P_r .. P_l`` of Section 4.1.1), and
2. extends the solution optimally into the next stage by taking the best
   choice of the connector selected by the (already fixed) parent state.

Candidate weights (Section 6.2): we track *total completion weights*.
With an invertible ``times`` a sibling's total is derived in O(1) as
``total ⊘ current_choice ⊗ successor_choice``; without an inverse we
recompute ``fixed_prefix ⊗ (product of open-branch minima) ⊗ choice``,
which costs O(l) per stage — the paper's O(l²)-delay monoid fallback.
Path queries have no open branches, so both modes are O(1) per sibling
there.
"""

from __future__ import annotations

import heapq

from repro.anyk.base import Enumerator, RankedResult
from repro.anyk.strategies import SuccessorStrategy, Take2Strategy
from repro.dp.graph import TDP
from repro.util.counters import OpCounter


class AnyKPart(Enumerator):
    """Algorithm 1, parameterised by a successor strategy.

    ``use_inverse`` defaults to the dioid's capability; it can be forced
    off to measure the monoid fallback (the Section 6.2 ablation).
    """

    def __init__(
        self,
        tdp: TDP,
        strategy: SuccessorStrategy | None = None,
        counter: OpCounter | None = None,
        use_inverse: bool | None = None,
    ):
        self.tdp = tdp
        self.decoder = tdp.assembler()
        self.strategy = strategy if strategy is not None else Take2Strategy()
        self.counter = counter
        dioid = tdp.dioid
        self.dioid = dioid
        if use_inverse is None:
            use_inverse = dioid.has_inverse
        elif use_inverse and not dioid.has_inverse:
            raise ValueError(f"{dioid!r} has no inverse")
        self.use_inverse = use_inverse

        num_stages = tdp.num_stages
        parent_stage = tdp.parent_stage
        # Stages whose branch is open (parent fixed, state not yet chosen)
        # while stage j's state is being decided; excludes j itself.
        self._open_after: list[tuple[int, ...]] = [
            tuple(
                c
                for c in range(j + 1, num_stages)
                if parent_stage[c] < j
            )
            for j in range(num_stages)
        ]

        self._heap: list[tuple] = []
        self._seq = 0
        self._exhausted = tdp.is_empty()
        if not self._exhausted:
            root_conn = tdp.connector_for(0, None)
            view = self.strategy.view(root_conn)
            pos = view.best_pos()
            total = tdp.best_weight
            self._push(dioid.key(total), None, 0, view, pos, total)

    # -- candidate queue ---------------------------------------------------------

    def _push(self, key, prefix, stage, view, pos, total) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (key, self._seq, prefix, stage, view, pos, total))
        if self.counter is not None:
            self.counter.pq_push += 1
            self.counter.candidates_created += 1

    def peak_candidates(self) -> int:
        """Current size of the candidate priority queue (MEM diagnostics)."""
        return len(self._heap)

    # -- enumeration ---------------------------------------------------------------

    def _next_result(self) -> RankedResult | None:
        if self._exhausted or not self._heap:
            return None
        tdp = self.tdp
        dioid = self.dioid
        times = dioid.times
        key_of = dioid.key
        strategy = self.strategy
        counter = self.counter
        use_inverse = self.use_inverse
        num_stages = tdp.num_stages
        parent_stage = tdp.parent_stage
        child_conns = tdp.child_conns
        branch_index = tdp.branch_index
        values = tdp.values

        key, _seq, prefix, stage, view, pos, total = heapq.heappop(self._heap)
        if counter is not None:
            counter.pq_pop += 1

        # Recover the fixed prefix states (stages 0 .. stage-1).
        states: list[int] = [0] * num_stages
        node = prefix
        fill = stage - 1
        fixed = dioid.one
        while node is not None:
            state, node = node
            states[fill] = state
            if not use_inverse:
                fixed = times(values[fill][state], fixed)
            fill -= 1

        open_after = self._open_after
        for j in range(stage, num_stages):
            entry = view.entry(pos)
            # -- new candidates: successors of the current choice at stage j.
            successor_positions = view.successor_positions(pos)
            if counter is not None:
                counter.successor_calls += 1
            if successor_positions:
                if use_inverse:
                    base = dioid.divide(total, entry[2])
                else:
                    base = fixed
                    for open_stage in open_after[j]:
                        parent = parent_stage[open_stage]
                        if parent == -1:
                            conn = tdp.root_conn[open_stage]
                        else:
                            conn = child_conns[parent][states[parent]][
                                branch_index[open_stage]
                            ]
                        base = times(base, conn.min_value)
                for succ_pos in successor_positions:
                    succ_entry = view.entry(succ_pos)
                    new_total = times(base, succ_entry[2])
                    self._push(key_of(new_total), prefix, j, view, succ_pos, new_total)

            # -- extend the solution: fix stage j to the current choice.
            state = entry[1]
            states[j] = state
            prefix = (state, prefix)
            if not use_inverse:
                fixed = times(fixed, values[j][state])
            if j + 1 < num_stages:
                parent = parent_stage[j + 1]
                if parent == -1:
                    conn = tdp.root_conn[j + 1]
                else:
                    conn = child_conns[parent][states[parent]][branch_index[j + 1]]
                view = strategy.view(conn)
                pos = view.best_pos()
            if counter is not None:
                counter.expansions += 1

        if counter is not None:
            counter.results += 1
        return RankedResult(total, key, tuple(states), self.decoder)
