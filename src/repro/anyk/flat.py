"""Flat enumeration loops over a :class:`~repro.dp.flat.CompiledTDP`.

Ports of every any-k enumerator — the four anyK-part strategy variants
(Take2/Lazy/Eager/All), anyK-rec (Recursive), and the Batch baselines —
whose inner loops index into the compiled core's flat arrays instead of
walking ``ChoiceSet`` object graphs:

* weight combination is native float ``+``/``-`` in dioid *key space*
  (the ``key_is_value`` contract) — no ``SelectiveDioid.times``/``key``
  dispatch anywhere on the hot path; over a
  :class:`~repro.dp.lane.LaneCore` (a tie-broken union member) the lane
  family runs instead: the base dioid's operator in value space plus an
  integer rank, keyed afterwards, and — the tie dioid having no inverse
  — sibling totals recomputed from the prefix product, not subtracted;
* connector ranking structures live in a uid-indexed list (no dict
  hashing); for the Take2 and Eager strategies the candidate carries
  the raw heapified/sorted ``(key, state)`` list itself, so entry reads
  are direct C-level list indexing with no view object in between;
* ``heappush``/``heappop`` and every per-iteration attribute are bound
  to locals once per call;
* op-counting never forks a loop: every loop tallies in locals it
  keeps anyway (the tie-breaking sequence number counts pushes, the
  popped candidate's stage gives the successor calls, solutions
  appended are pops) and charges the ``OpCounter`` before control
  leaves it — once per answer in the AnyK-part loops, once per call in
  Recursive's ``_ensure`` — so a run with a counter and a run without
  execute the same code, and the counts are exact after every answer;
* results carry only ``(key, states)``; witness tuples and variable
  assignments materialise when read, through the result's decoder — the
  source T-DP of a :class:`~repro.anyk.base.RankedResult`, the plan's
  assembler of an engine-built :class:`~repro.dp.graph.QueryResult`
  (:class:`FlatEnumerator` says who decides which).

Every loop replicates the object-graph algorithms' candidate ordering
exactly — same push sequence, same tie-breaking sequence numbers, and
float operations that are the bit-exact ``key``-image of the object
path's ``times`` calls — so the ranked output is bit-identical to
:mod:`repro.anyk.partition` / :mod:`repro.anyk.recursive` /
:mod:`repro.anyk.batch` (asserted by ``tests/test_flat_conformance.py``
and, for the lane family, ``tests/test_lane_conformance.py``).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.anyk.base import Enumerator, RankedResult
from repro.anyk.strategies import FLAT_VIEWS
from repro.dp.flat import CompiledTDP
from repro.dp.lane import LaneCore
from repro.util import vec
from repro.util.counters import OpCounter


def _charge(counter: OpCounter, steps: int, pushed: int) -> None:
    """Add one popped-and-expanded candidate's operations to ``counter``.

    ``steps`` stages were extended (one successor call each) and
    ``pushed`` sibling candidates created — what the object-graph
    :class:`~repro.anyk.partition.AnyKPart` counts operation by
    operation.  The loops below tally in locals they keep anyway and
    charge once per result, so counting costs a run one test per answer.
    """
    counter.pq_pop += 1
    counter.successor_calls += steps
    counter.expansions += steps
    counter.pq_push += pushed
    counter.candidates_created += pushed
    counter.results += 1


class FlatEnumerator(Enumerator):
    """What the flat enumerators share: the core and what they emit.

    ``emits`` is ``(result class, decoder)``: the class every answer is
    allocated as and what lands in its ``decoder`` slot.  The default —
    :class:`~repro.anyk.base.RankedResult` over the source T-DP — is the
    any-k library's result; the engine hands over
    :class:`~repro.dp.graph.QueryResult` and the plan's compiled
    assembler, so the object a kernel allocates is the public answer
    and nothing is built between the kernel and the caller.  Either
    way a kernel writes the same four slots of one object per answer.
    """

    def __init__(
        self,
        compiled: CompiledTDP,
        counter: OpCounter | None,
        emits: tuple | None,
    ):
        self.compiled = compiled
        self.tdp = compiled.tdp
        self.dioid = compiled.dioid
        self.counter = counter
        self.emits = (RankedResult, compiled.tdp) if emits is None else emits

    def _emit(self, key: float, states: tuple[int, ...]):
        """One answer outside the compiled loops (same four slots)."""
        result_cls, decoder = self.emits
        vfk = self.compiled.vfk
        res = result_cls.__new__(result_cls)
        res.weight = key if vfk is None else vfk(key)
        res.key = key
        res.states = states
        res.decoder = decoder
        return res


class FlatAnyKPart(FlatEnumerator):
    """Algorithm 1 over the compiled core (strategies via flat views).

    Candidate tuples are ``(key, seq, prefix, stage, carrier, pos)`` —
    in key space the candidate's total completion weight *is* its key,
    so no separate total rides along.  Sibling totals derive in O(1) by
    key-space subtraction (always valid: ``(R, +)`` is a group), which
    coincides with the object path's inverse-based derivation.

    Two carrier kinds, chosen by the algorithm name alone: Take2 and
    Eager run a compiled generator loop over the *bare ranking list* (a
    static heap order, a sorted list) — one loop each for chain-shaped
    and for tree-shaped cores; Lazy and All run the generic loop over a
    flat view object (:data:`~repro.anyk.strategies.FLAT_VIEWS`), whose
    ranking structure changes as it is read.  Passing a counter changes
    neither the carrier nor the loop.
    """

    def __init__(
        self,
        compiled: CompiledTDP,
        kind: str,
        counter: OpCounter | None = None,
        emits: tuple | None = None,
    ):
        super().__init__(compiled, counter, emits)
        self.kind = kind
        self._view_class = FLAT_VIEWS[kind]
        #: uid -> per-run ranking structure (lists or views, see class doc).
        self._views: list = [None] * compiled.num_connectors
        self._heap: list[tuple] = []
        self._seq = 0
        self._exhausted = compiled.empty

        kernels = {
            ("take2", True): self._generate_take2_chain,
            ("take2", False): self._generate_take2,
            ("eager", True): self._generate_eager_chain,
            ("eager", False): self._generate_eager,
        }
        kernel = kernels.get((kind, compiled.is_chain))
        if kernel is not None:
            # Compiled generator loop: the ~20 local bindings of the
            # hot loop happen once for the whole run, not per result.
            # It seeds its own candidate heap on first resume (the
            # chain loops use a narrower candidate layout).
            self._gen = kernel()
            self._next_result = self._next_from_gen
        elif not self._exhausted:
            uid = compiled.root_uid[0]  # stage 0 is always a root stage
            carrier = self._view(uid)
            self._seq = 1
            self._heap.append(
                (compiled.best_key, 1, None, 0, carrier, carrier.best)
            )
        if counter is not None and not self._exhausted:
            counter.pq_push += 1  # the seed candidate
            counter.candidates_created += 1

    def _view(self, uid: int):
        view = self._views[uid]
        if view is None:
            view = self._view_class(self.compiled.pairs(uid))
            self._views[uid] = view
        return view

    def peak_candidates(self) -> int:
        """Current size of the candidate priority queue (MEM diagnostics)."""
        return len(self._heap)

    # -- Take2 hot loop (bare heap lists) --------------------------------------

    def _generate_take2(self):
        compiled = self.compiled
        heap = self._heap
        num_stages = compiled.num_stages
        parent_stage = compiled.parent_stage
        conn_of = compiled.conn_of
        root_uid = compiled.root_uid
        heaps = compiled._take2_heaps
        take2_heap = compiled.take2_heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        vfk = compiled.vfk
        result_cls, decoder = self.emits
        new_result = result_cls.__new__
        seq = 0
        if not compiled.empty:
            uid = root_uid[0]
            entries = heaps[uid]
            if entries is None:
                entries = take2_heap(uid)
            seq = 1
            heap.append((compiled.best_key, 1, None, 0, entries, 0))
        counter = self.counter
        counted = seq  # pushes already charged (the seed: at construction)

        while heap:
            total, _seq, prefix, stage, entries, pos = heappop(heap)
            states = [0] * num_stages
            node = prefix
            fill = stage - 1
            while node is not None:
                states[fill] = node[0]
                node = node[1]
                fill -= 1

            for j in range(stage, num_stages):
                entry = entries[pos]
                # Successors of position pos are its static-heap children.
                left = 2 * pos + 1
                if left < len(entries):
                    base = total - entry[0]
                    seq += 1
                    heappush(
                        heap,
                        (base + entries[left][0], seq, prefix, j, entries, left),
                    )
                    right = left + 1
                    if right < len(entries):
                        seq += 1
                        heappush(
                            heap,
                            (
                                base + entries[right][0],
                                seq, prefix, j, entries, right,
                            ),
                        )
                state = entry[1]
                states[j] = state
                prefix = (state, prefix)
                next_stage = j + 1
                if next_stage < num_stages:
                    parent = parent_stage[next_stage]
                    if parent == -1:
                        uid = root_uid[next_stage]
                    else:
                        uid = conn_of[next_stage][states[parent]]
                    entries = heaps[uid]
                    if entries is None:
                        entries = take2_heap(uid)
                    pos = 0

            res = new_result(result_cls)
            res.weight = total if vfk is None else vfk(total)
            res.key = total
            res.states = tuple(states)
            res.decoder = decoder
            if counter is not None:
                _charge(counter, num_stages - stage, seq - counted)
                counted = seq
            yield res

    def _generate_take2_chain(self):
        """Take2 loop specialised for chain T-DPs (path-shaped trees).

        The parent of stage ``j + 1`` is always ``j``, so the extension
        step needs no parent bookkeeping and no partial ``states``
        vector: the prefix linked list alone carries the solution, and
        the states tuple is materialised in a single walk per result.
        Candidates shrink to ``(key, seq, prefix, stage, pos)`` — the
        choice-set list is recovered at pop time from ``prefix[0]``
        (the parent's state), which every push site has already warmed.
        """
        compiled = self.compiled
        heap = self._heap
        num_stages = compiled.num_stages
        last = num_stages - 1
        #: conn_next[j] maps stage j's chosen state -> stage j+1's uid.
        conn_next = [compiled.conn_of[j + 1] for j in range(last)]
        conn_next.append(None)
        heaps = compiled._take2_heaps
        take2_heap = compiled.take2_heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        vfk = compiled.vfk
        result_cls, decoder = self.emits
        new_result = result_cls.__new__

        seq = 0
        root_entries = None
        if not compiled.empty:
            root_entries = take2_heap(compiled.root_uid[0])
            seq = 1
            heap.append((compiled.best_key, 1, None, 0, 0))
        counter = self.counter
        counted = seq  # pushes already charged (the seed: at construction)

        while heap:
            total, _seq, prefix, stage, pos = heappop(heap)
            if stage:
                entries = heaps[conn_next[stage - 1][prefix[0]]]
            else:
                entries = root_entries
            for j in range(stage, num_stages):
                entry = entries[pos]
                left = 2 * pos + 1
                size = len(entries)
                if left < size:
                    base = total - entry[0]
                    seq += 1
                    heappush(heap, (base + entries[left][0], seq, prefix, j, left))
                    right = left + 1
                    if right < size:
                        seq += 1
                        heappush(
                            heap, (base + entries[right][0], seq, prefix, j, right)
                        )
                state = entry[1]
                prefix = (state, prefix)
                if j < last:
                    uid = conn_next[j][state]
                    entries = heaps[uid]
                    if entries is None:
                        entries = take2_heap(uid)
                    pos = 0

            states = [0] * num_stages
            node = prefix
            fill = last
            while node is not None:
                states[fill] = node[0]
                node = node[1]
                fill -= 1
            res = new_result(result_cls)
            res.weight = total if vfk is None else vfk(total)
            res.key = total
            res.states = tuple(states)
            res.decoder = decoder
            if counter is not None:
                _charge(counter, num_stages - stage, seq - counted)
                counted = seq
            yield res

    # -- Eager hot loop (bare sorted lists) ------------------------------------

    def _generate_eager(self):
        compiled = self.compiled
        heap = self._heap
        num_stages = compiled.num_stages
        parent_stage = compiled.parent_stage
        conn_of = compiled.conn_of
        root_uid = compiled.root_uid
        lists = compiled._sorted_pairs
        sorted_pairs = compiled.sorted_pairs
        heappop = heapq.heappop
        heappush = heapq.heappush
        vfk = compiled.vfk
        result_cls, decoder = self.emits
        new_result = result_cls.__new__
        seq = 0
        if not compiled.empty:
            uid = root_uid[0]
            entries = lists[uid]
            if entries is None:
                entries = sorted_pairs(uid)
            seq = 1
            heap.append((compiled.best_key, 1, None, 0, entries, 0))
        counter = self.counter
        counted = seq  # pushes already charged (the seed: at construction)

        while heap:
            total, _seq, prefix, stage, entries, pos = heappop(heap)
            states = [0] * num_stages
            node = prefix
            fill = stage - 1
            while node is not None:
                states[fill] = node[0]
                node = node[1]
                fill -= 1

            for j in range(stage, num_stages):
                entry = entries[pos]
                # Successor of position pos in a sorted list is pos + 1.
                succ = pos + 1
                if succ < len(entries):
                    seq += 1
                    heappush(
                        heap,
                        (
                            total - entry[0] + entries[succ][0],
                            seq, prefix, j, entries, succ,
                        ),
                    )
                state = entry[1]
                states[j] = state
                prefix = (state, prefix)
                next_stage = j + 1
                if next_stage < num_stages:
                    parent = parent_stage[next_stage]
                    if parent == -1:
                        uid = root_uid[next_stage]
                    else:
                        uid = conn_of[next_stage][states[parent]]
                    entries = lists[uid]
                    if entries is None:
                        entries = sorted_pairs(uid)
                    pos = 0

            res = new_result(result_cls)
            res.weight = total if vfk is None else vfk(total)
            res.key = total
            res.states = tuple(states)
            res.decoder = decoder
            if counter is not None:
                _charge(counter, num_stages - stage, seq - counted)
                counted = seq
            yield res

    def _generate_eager_chain(self):
        """Eager loop specialised for chain T-DPs (see take2 variant)."""
        compiled = self.compiled
        heap = self._heap
        num_stages = compiled.num_stages
        last = num_stages - 1
        conn_next = [compiled.conn_of[j + 1] for j in range(last)]
        conn_next.append(None)
        lists = compiled._sorted_pairs
        sorted_pairs = compiled.sorted_pairs
        heappop = heapq.heappop
        heappush = heapq.heappush
        vfk = compiled.vfk
        result_cls, decoder = self.emits
        new_result = result_cls.__new__

        seq = 0
        root_entries = None
        if not compiled.empty:
            root_entries = sorted_pairs(compiled.root_uid[0])
            seq = 1
            heap.append((compiled.best_key, 1, None, 0, 0))
        counter = self.counter
        counted = seq  # pushes already charged (the seed: at construction)

        while heap:
            total, _seq, prefix, stage, pos = heappop(heap)
            if stage:
                entries = lists[conn_next[stage - 1][prefix[0]]]
            else:
                entries = root_entries
            for j in range(stage, num_stages):
                entry = entries[pos]
                succ = pos + 1
                if succ < len(entries):
                    seq += 1
                    heappush(
                        heap,
                        (total - entry[0] + entries[succ][0], seq, prefix, j, succ),
                    )
                state = entry[1]
                prefix = (state, prefix)
                if j < last:
                    uid = conn_next[j][state]
                    entries = lists[uid]
                    if entries is None:
                        entries = sorted_pairs(uid)
                    pos = 0

            states = [0] * num_stages
            node = prefix
            fill = last
            while node is not None:
                states[fill] = node[0]
                node = node[1]
                fill -= 1
            res = new_result(result_cls)
            res.weight = total if vfk is None else vfk(total)
            res.key = total
            res.states = tuple(states)
            res.decoder = decoder
            if counter is not None:
                _charge(counter, num_stages - stage, seq - counted)
                counted = seq
            yield res

    # -- generic loop (Lazy/All flat views) ------------------------------------

    def _next_result(self) -> RankedResult | None:
        heap = self._heap
        if not heap:
            return None
        compiled = self.compiled
        num_stages = compiled.num_stages
        parent_stage = compiled.parent_stage
        conn_of = compiled.conn_of
        root_uid = compiled.root_uid
        views = self._views
        view_class = self._view_class
        pairs_of = compiled.pairs
        heappush = heapq.heappush
        counted = seq = self._seq

        total, _seq, prefix, stage, view, pos = heapq.heappop(heap)
        states = [0] * num_stages
        node = prefix
        fill = stage - 1
        while node is not None:
            states[fill] = node[0]
            node = node[1]
            fill -= 1

        for j in range(stage, num_stages):
            entry = view.entry_at(pos)
            succs = view.succ(pos)
            if succs:
                base = total - entry[0]
                entry_at = view.entry_at
                for succ_pos in succs:
                    seq += 1
                    heappush(
                        heap,
                        (
                            base + entry_at(succ_pos)[0],
                            seq, prefix, j, view, succ_pos,
                        ),
                    )
            state = entry[1]
            states[j] = state
            prefix = (state, prefix)
            next_stage = j + 1
            if next_stage < num_stages:
                parent = parent_stage[next_stage]
                if parent == -1:
                    uid = root_uid[next_stage]
                else:
                    uid = conn_of[next_stage][states[parent]]
                view = views[uid]
                if view is None:
                    view = view_class(pairs_of(uid))
                    views[uid] = view
                pos = view.best

        self._seq = seq
        if self.counter is not None:
            _charge(self.counter, num_stages - stage, seq - counted)
        return self._emit(total, tuple(states))


class FlatRankedProduct:
    """Key-space port of :class:`~repro.anyk.product.RankedProduct`.

    Branch streams are addressed by connector uid through an
    ``ensure(uid, j)`` callback returning flat solution entries
    ``(key, state, js)``; aggregate weights are plain float sums.  The
    Lawler marker scheme, memoized ``outputs``, and heap tie-breaking
    sequence are identical to the object version, so combination order
    matches bit-for-bit.
    """

    __slots__ = ("uids", "ensure", "outputs", "_heap", "_seq", "counter")

    def __init__(
        self,
        uids: tuple[int, ...],
        ensure: Callable[[int, int], tuple | None],
        counter: OpCounter | None = None,
    ):
        self.uids = tuple(uids)
        self.ensure = ensure
        self.counter = counter
        self.outputs: list[tuple[float, tuple[int, ...]]] = []
        self._heap: list[tuple] = []
        self._seq = 0
        firsts = [ensure(uid, 0) for uid in self.uids]
        if any(entry is None for entry in firsts):
            return  # dead product: some branch has no solution at all
        key = 0.0
        for entry in firsts:
            key += entry[0]
        self._seq = 1
        self._heap.append((key, 1, (0,) * len(self.uids), 0))
        if counter is not None:
            counter.pq_push += 1

    def get(self, j: int) -> tuple[float, tuple[int, ...]] | None:
        """The ``j``-th best combination (0-based), or ``None``."""
        outputs = self.outputs
        if j < len(outputs):
            return outputs[j]
        ensure = self.ensure
        uids = self.uids
        width = len(uids)
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        append = outputs.append
        known = len(outputs)
        pushed_from = seq = self._seq
        try:
            while len(outputs) <= j:
                if not heap:
                    return None
                key, _seq, vector, marker = heappop(heap)
                append((key, vector))
                for i in range(marker, width):
                    bumped = ensure(uids[i], vector[i] + 1)
                    if bumped is None:
                        continue
                    new_vector = vector[:i] + (vector[i] + 1,) + vector[i + 1:]
                    new_key = 0.0
                    for branch, rank in enumerate(new_vector):
                        new_key += ensure(uids[branch], rank)[0]
                    seq += 1
                    heappush(heap, (new_key, seq, new_vector, i))
            return outputs[j]
        finally:
            self._seq = seq
            if self.counter is not None:
                self.counter.pq_pop += len(outputs) - known
                self.counter.pq_push += seq - pushed_from


class FlatRecursive(FlatEnumerator):
    """anyK-rec (Algorithm 2) over the compiled core.

    Memoized per-connector solution lists and candidate heaps live in
    uid-indexed lists; solution entries are ``(key, state, js)``
    triples in key space.  ``_ensure`` — the innermost loop of
    Recursive — has the per-stage suffix computation inlined per
    branch-arity instead of dispatching through a ``_state_suffix``
    helper per pop, and charges an ``OpCounter`` once per call from
    tallies it keeps anyway (solutions appended = pops).
    """

    def __init__(
        self,
        compiled: CompiledTDP,
        counter: OpCounter | None = None,
        emits: tuple | None = None,
    ):
        super().__init__(compiled, counter, emits)
        num_connectors = compiled.num_connectors
        #: uid -> ranked solutions [(key, state, js), ...]
        self._sols: list[list[tuple] | None] = [None] * num_connectors
        #: uid -> candidate heap [(key, state, js), ...]
        self._heaps: list[list[tuple] | None] = [None] * num_connectors
        #: (stage, state) -> FlatRankedProduct for multi-branch states
        self._products: dict[tuple[int, int], FlatRankedProduct] = {}
        self._rank = 0
        self._exhausted = compiled.empty
        self._roots = compiled.root_stages
        #: Pure chain (every stage has at most one branch): result
        #: reconstruction is an iterative walk instead of a recursion.
        self._chain = all(b <= 1 for b in compiled.num_branches)
        self._root_product: FlatRankedProduct | None = None
        if not self._exhausted and len(self._roots) > 1:
            self._root_product = FlatRankedProduct(
                tuple(compiled.root_uid[r] for r in self._roots),
                self._ensure,
                counter=counter,
            )
        elif not self._exhausted:
            # Compiled generator loop for the common single-root case:
            # the root connector's advance step is inlined and every hot
            # local binds once for the whole run.  (The multi-root
            # product keeps the method-based loop.)
            self._gen = self._generate()
            self._next_result = self._next_from_gen

    def _generate(self):
        compiled = self.compiled
        vfk = compiled.vfk
        result_cls, decoder = self.emits
        new_result = result_cls.__new__
        num_stages = compiled.num_stages
        last = num_stages - 1
        all_sols = self._sols
        child_uids = compiled.child_uids
        heappop = heapq.heappop
        heappush = heapq.heappush
        chain = self._chain
        reconstruct = self._reconstruct
        ensure = self._ensure
        product_of = self._product
        counter = self.counter

        root_uid = compiled.root_uid[self._roots[0]]
        sols = all_sols[root_uid]
        if sols is None:
            sols = all_sols[root_uid] = []
            self._heaps[root_uid] = compiled.rea_heap(root_uid)
        heap = self._heaps[root_uid]
        append = sols.append
        root_branches, root_own, root_child_row, root_stage = (
            compiled.conn_meta[root_uid]
        )

        rank = 0
        while True:
            if rank < len(sols):
                item = sols[rank]
            else:
                # Inlined root-connector advance (one `next` call).
                if not heap:
                    return
                item = heappop(heap)
                append(item)
                state = item[1]
                next_js = item[2] + 1
                bumped = None
                if root_branches == 1:
                    child_uid = root_child_row[state]
                    child_sols = all_sols[child_uid]
                    if child_sols is not None and next_js < len(child_sols):
                        bumped = child_sols[next_js]
                    else:
                        bumped = ensure(child_uid, next_js)
                elif root_branches:
                    bumped = product_of(root_stage, state).get(next_js)
                if bumped is not None:
                    heappush(heap, (root_own[state] + bumped[0], state, next_js))
                if counter is not None:
                    counter.pq_pop += 1
                    counter.next_calls += 1
                    if bumped is not None:
                        counter.pq_push += 1
            key = item[0]
            if chain:
                # In a chain, connector depth == stage: walk the
                # memoized solution lists appending states in order.
                states = []
                add_state = states.append
                sol = item
                for stage in range(last):
                    add_state(sol[1])
                    uid = child_uids[stage][sol[1]]
                    sol = all_sols[uid][sol[2]]
                add_state(sol[1])
            else:
                states = [0] * num_stages
                reconstruct(root_uid, rank, states)
            res = new_result(result_cls)
            res.weight = key if vfk is None else vfk(key)
            res.key = key
            res.states = tuple(states)
            res.decoder = decoder
            if counter is not None:
                counter.results += 1
            yield res
            rank += 1

    # -- per-connector REA -----------------------------------------------------

    def _ensure(self, uid: int, j: int) -> tuple | None:
        """Solution ``Π_{j+1}`` of connector ``uid`` (0-based), or ``None``."""
        all_sols = self._sols
        sols = all_sols[uid]
        if sols is None:
            sols = all_sols[uid] = []
            self._heaps[uid] = self.compiled.rea_heap(uid)
        if j < len(sols):
            return sols[j]
        heap = self._heaps[uid]
        branches, own_keys, child_row, stage = self.compiled.conn_meta[uid]
        heappop = heapq.heappop
        heappush = heapq.heappush
        append = sols.append
        known = len(sols)
        pushed = 0
        try:
            if branches == 0:
                # Leaf connector: one suffix per state — drain, no bumps.
                while len(sols) <= j:
                    if not heap:
                        return None
                    append(heappop(heap))
                return sols[j]

            if branches == 1:
                ensure = self._ensure
                while len(sols) <= j:
                    if not heap:
                        return None
                    item = heappop(heap)
                    append(item)
                    state = item[1]
                    next_js = item[2] + 1
                    # Inlined memo hit: thanks to connector sharing most
                    # child lookups land in an already-advanced solution
                    # list, so skip the recursive call for those.
                    child_uid = child_row[state]
                    child_sols = all_sols[child_uid]
                    if child_sols is not None and next_js < len(child_sols):
                        entry = child_sols[next_js]
                    else:
                        entry = ensure(child_uid, next_js)
                    if entry is not None:
                        heappush(heap, (own_keys[state] + entry[0], state, next_js))
                        pushed += 1
                return sols[j]

            product_of = self._product
            while len(sols) <= j:
                if not heap:
                    return None
                item = heappop(heap)
                append(item)
                state = item[1]
                next_js = item[2] + 1
                combo = product_of(stage, state).get(next_js)
                if combo is not None:
                    heappush(heap, (own_keys[state] + combo[0], state, next_js))
                    pushed += 1
            return sols[j]
        finally:
            counter = self.counter
            if counter is not None:
                popped = len(sols) - known
                counter.pq_pop += popped
                counter.next_calls += popped
                counter.pq_push += pushed

    def _product(self, stage: int, state: int) -> FlatRankedProduct:
        key = (stage, state)
        product = self._products.get(key)
        if product is None:
            compiled = self.compiled
            branches = compiled.num_branches[stage]
            base = state * branches
            uids = tuple(compiled.child_uids[stage][base:base + branches])
            product = FlatRankedProduct(
                uids, self._ensure, counter=self.counter
            )
            self._products[key] = product
        return product

    # -- result reconstruction -------------------------------------------------

    def _reconstruct(self, uid: int, j: int, states: list[int]) -> None:
        _key, state, js = self._sols[uid][j]
        compiled = self.compiled
        stage = compiled.conn_stage[uid]
        states[stage] = state
        branches = compiled.num_branches[stage]
        if branches == 0:
            return
        if branches == 1:
            self._reconstruct(compiled.child_uids[stage][state], js, states)
            return
        vector = self._products[(stage, state)].outputs[js][1]
        base = state * branches
        child_uids = compiled.child_uids[stage]
        for branch in range(branches):
            self._reconstruct(child_uids[base + branch], vector[branch], states)

    # -- iterator protocol (multi-root: ranked product of the roots) -----------

    def _next_result(self) -> RankedResult | None:
        if self._exhausted:
            return None
        compiled = self.compiled
        combo = self._root_product.get(self._rank)
        if combo is None:
            self._exhausted = True
            return None
        key, vector = combo
        states = [0] * compiled.num_stages
        for branch, root in enumerate(self._roots):
            self._reconstruct(compiled.root_uid[root], vector[branch], states)
        self._rank += 1
        if self.counter is not None:
            self.counter.results += 1
        return self._emit(key, tuple(states))


class FlatBatch(FlatEnumerator):
    """Batch baseline over the compiled core (full output, optional sort).

    Backtracks over the compiled entry pairs with float prefix sums;
    sorting ``(key, states)`` matches the object Batch's deterministic
    cross-algorithm order.  The visit-counting branch stays inline (one
    test per intermediate tuple): Batch materialises everything up
    front, so it has no per-result delay path to keep branch-free.
    """

    def __init__(
        self,
        compiled: CompiledTDP,
        sort: bool = True,
        counter: OpCounter | None = None,
        emits: tuple | None = None,
    ):
        super().__init__(compiled, counter, emits)
        self.sorted = sort
        results = self._solutions_list(counter)
        if sort:
            results.sort()
        self.size = len(results)
        self._iter = iter(results)

    def _solutions_list(self, counter: OpCounter | None) -> list:
        """All ``(key, states)`` solutions in DFS preorder.

        Dispatches to the numpy level-expansion kernel when it applies:
        a CSR-backed core (``conn_offsets`` present — cores that hold
        only pair lists keep the scalar path), no visit counting
        (the counter increments per intermediate tuple, which the
        vectorized expansion never materialises one at a time), numpy
        available.  Both paths produce the identical list — same DFS
        preorder, same left-fold float additions.
        """
        compiled = self.compiled
        np = vec.np
        if (
            np is not None
            and counter is None
            and not compiled.empty
            and compiled.conn_offsets is not None
        ):
            return self._solutions_vec(np)
        return list(self._solutions(counter))

    def _solutions_vec(self, np) -> list:
        """Level-synchronous ragged expansion over the CSR entry pool.

        Each level replaces every live prefix by its child entries in
        pool order, preserving prefix order — which reproduces the
        scalar backtracker's DFS preorder exactly.  The per-solution
        key is grown by the same left fold ``acc + values_key[level]
        [state]`` the scalar path uses, so keys are bit-identical; all
        outputs convert to native Python scalars before leaving.
        """
        compiled = self.compiled
        num_stages = compiled.num_stages
        parent_stage = compiled.parent_stage
        root_uid = compiled.root_uid
        offsets = np.asarray(compiled.conn_offsets)
        entry_state = np.asarray(compiled.entry_state)
        values_key = [
            np.asarray(v, dtype=np.float64) for v in compiled.values_key
        ]

        uid0 = root_uid[0]
        lo = compiled.conn_offsets[uid0]
        hi = compiled.conn_offsets[uid0 + 1]
        states0 = entry_state[lo:hi]
        acc = 0.0 + values_key[0][states0]
        paths = states0.reshape(-1, 1)
        for level in range(1, num_stages):
            if not len(acc):
                break
            parent = parent_stage[level]
            if parent == -1:
                uids = np.full(len(acc), root_uid[level], dtype=np.int64)
            else:
                conn_row = np.asarray(compiled.conn_of[level])
                uids = conn_row[paths[:, parent]]
            starts = offsets[uids]
            counts = offsets[uids + 1] - starts
            total = int(counts.sum())
            if total == 0:
                acc = acc[:0]
                paths = paths[:0]
                break
            rep = np.repeat(np.arange(len(acc)), counts)
            cum = np.cumsum(counts) - counts
            idx = np.arange(total) - cum[rep] + starts[rep]
            child_states = entry_state[idx]
            acc = acc[rep] + values_key[level][child_states]
            paths = np.concatenate(
                [paths[rep], child_states.reshape(-1, 1)], axis=1
            )
        keys = acc.tolist()
        rows = paths.tolist()
        return [(key, tuple(states)) for key, states in zip(keys, rows)]

    def _solutions(self, counter: OpCounter | None):
        compiled = self.compiled
        if compiled.empty:
            return
        num_stages = compiled.num_stages
        parent_stage = compiled.parent_stage
        conn_of = compiled.conn_of
        root_uid = compiled.root_uid
        values_key = compiled.values_key
        pairs_of = compiled.pairs

        states = [0] * num_stages
        prefix_key = [0.0] * (num_stages + 1)
        iterators: list = [None] * num_stages
        iterators[0] = iter(pairs_of(root_uid[0]))
        level = 0
        last = num_stages - 1
        while level >= 0:
            entry = next(iterators[level], None)
            if entry is None:
                level -= 1
                continue
            state = entry[1]
            states[level] = state
            prefix_key[level + 1] = prefix_key[level] + values_key[level][state]
            if counter is not None:
                counter.intermediate_tuples += 1
            if level == last:
                yield (prefix_key[num_stages], tuple(states))
            else:
                level += 1
                parent = parent_stage[level]
                if parent == -1:
                    uid = root_uid[level]
                else:
                    uid = conn_of[level][states[parent]]
                iterators[level] = iter(pairs_of(uid))

    def _next_result(self) -> RankedResult | None:
        item = next(self._iter, None)
        if item is None:
            return None
        key, states = item
        if self.counter is not None:
            self.counter.results += 1
        return self._emit(key, states)


# -- the two-lane core of tie-broken union members ---------------------------------
#
# A :class:`~repro.dp.lane.LaneCore` holds a tie-broken member as a
# base-value lane and a packed-rank lane.  The tie dioid has no inverse,
# so nothing here subtracts: like :class:`~repro.anyk.partition.AnyKPart`
# in monoid mode, a sibling's total is recomputed as ``fixed (x) open
# branch minima (x) succ_entry``, Recursive and Batch fold ``times`` from
# ``one`` as their object versions do — the base lane by the dioid's
# operator in value space, the rank lane by ``+`` — and every total is
# keyed after it is made.  A key ``(base_key, rank)`` rides flattened at
# the head of each heap item, where ``(base_key, rank, seq, ...)`` orders
# as the object path's ``((base_key, rank), seq, ...)``.  Answers carry
# the pairs ``weight = (base, rank)`` and ``key = (base_key, rank)``.


def _pair_emitter(emits: tuple) -> Callable:
    """``emit(value, key, rank, states)``: one answer of class ``emits[0]``.

    A closure over the result class and decoder only, so a kernel
    generator that holds it holds nothing that holds the generator: a
    dropped run is freed by reference counting, its core with it.
    """
    result_cls, decoder = emits
    new_result = result_cls.__new__

    def emit(value, key, rank: int, states: tuple[int, ...]):
        res = new_result(result_cls)
        res.weight = (value, rank)
        res.key = (key, rank)
        res.states = states
        res.decoder = decoder
        return res

    return emit


class LaneAnyKPart(FlatEnumerator):
    """Algorithm 1 over a lane core, recomputing sibling totals.

    ``fixed`` is the product of the popped candidate's prefix values —
    folded from ``one`` back to front at pop, as the object path folds
    it, then extended stage by stage — and a sibling's total is ``fixed``
    times the minima of the branches still open, times its own entry
    value.  Candidates are ``(base_key, rank, seq, prefix, stage[, view],
    pos, total)`` (``total`` is the base lane).  Take2 and Eager over a
    chain run :func:`_lane_chain_loop` over the shared static heap /
    sorted list; everything else runs :func:`_lane_loop` over per-run
    :data:`~repro.anyk.strategies.FLAT_VIEWS`.  The chain loop earns its
    place: on the ``cycle_union`` benchmark (all-chain members, Take2)
    the view loop alone pages ~13 % slower at the median and ~28 % at
    p95, with ~5 % more CPU per answer.
    """

    def __init__(
        self,
        compiled: LaneCore,
        kind: str,
        counter: OpCounter | None = None,
        emits: tuple | None = None,
    ):
        super().__init__(compiled, counter, emits)
        self.kind = kind
        self._heap: list[tuple] = []
        chain = compiled.is_chain and kind in ("take2", "eager")
        loop = _lane_chain_loop if chain else _lane_loop
        self._gen = loop(
            compiled, kind, self._heap, counter, _pair_emitter(self.emits)
        )
        if counter is not None and not compiled.empty:
            counter.pq_push += 1  # the seed candidate
            counter.candidates_created += 1

    def _next_result(self):
        return next(self._gen, None)

    def peak_candidates(self) -> int:
        """Current size of the candidate priority queue (MEM diagnostics)."""
        return len(self._heap)


def _lane_chain_loop(compiled: LaneCore, kind: str, heap: list, counter, emit):
    """Take2 / Eager over a chain lane core: bare ranking lists.

    The successors of position ``pos`` are ``pos * width + 1`` onward —
    the two static-heap children (``width`` 2) or the next sorted entry
    (1).  A candidate's list is recovered at pop time from its parent's
    state, as in :meth:`FlatAnyKPart._generate_take2_chain`.
    """
    num_stages = compiled.num_stages
    last = num_stages - 1
    conn_next = [compiled.conn_of[j + 1] for j in range(last)]
    conn_next.append(None)
    if kind == "take2":
        width, lists, list_of = 2, compiled._take2_heaps, compiled.take2_heap
    else:
        width, lists, list_of = 1, compiled._sorted_pairs, compiled.sorted_pairs
    val_base = compiled.val_base
    val_rank = compiled.val_rank
    ent_base = compiled.ent_base
    multiply, negate = compiled.lane
    one = compiled.one
    heappop = heapq.heappop
    heappush = heapq.heappush

    seq = 0
    root_entries = None
    if not compiled.empty:
        root_entries = list_of(compiled.root_uid[0])
        best, best_rank = compiled.best
        seq = 1
        heap.append((compiled.best_key[0], best_rank, 1, None, 0, 0, best))
    counted = seq  # pushes already charged (the seed: at construction)

    while heap:
        key, rank, _seq, prefix, stage, pos, total = heappop(heap)
        fixed = one
        fixed_rank = 0
        if stage:
            entries = lists[conn_next[stage - 1][prefix[0]]]
            node = prefix
            fill = stage - 1
            while node is not None:
                state = node[0]
                value = val_base[fill][state]
                fixed = value * fixed if multiply else value + fixed
                fixed_rank += val_rank[fill][state]
                node = node[1]
                fill -= 1
        else:
            entries = root_entries
        for j in range(stage, num_stages):
            entry = entries[pos]
            succ = pos * width + 1
            size = len(entries)
            if succ < size:
                stop = succ + width
                if stop > size:
                    stop = size
                stage_entry = ent_base[j]
                while succ < stop:
                    other = entries[succ]
                    value = stage_entry[other[2]]
                    sibling = fixed * value if multiply else fixed + value
                    seq += 1
                    heappush(heap, (
                        -sibling if negate else sibling, fixed_rank + other[1],
                        seq, prefix, j, succ, sibling,
                    ))
                    succ += 1
            state = entry[2]
            prefix = (state, prefix)
            value = val_base[j][state]
            fixed = fixed * value if multiply else fixed + value
            fixed_rank += val_rank[j][state]
            if j < last:
                uid = conn_next[j][state]
                entries = lists[uid]
                if entries is None:
                    entries = list_of(uid)
                pos = 0

        states = [0] * num_stages
        node = prefix
        fill = last
        while node is not None:
            states[fill] = node[0]
            node = node[1]
            fill -= 1
        if counter is not None:
            _charge(counter, num_stages - stage, seq - counted)
            counted = seq
        yield emit(total, key, rank, tuple(states))


def _lane_loop(compiled: LaneCore, kind: str, heap: list, counter, emit):
    """Any strategy, any tree shape: the views of :data:`FLAT_VIEWS`."""
    num_stages = compiled.num_stages
    parent_stage = compiled.parent_stage
    conn_of = compiled.conn_of
    root_uid = compiled.root_uid
    val_base = compiled.val_base
    val_rank = compiled.val_rank
    ent_base = compiled.ent_base
    min_base = compiled.min_base
    min_rank = compiled.min_rank
    multiply, negate = compiled.lane
    one = compiled.one
    # Stages whose branch is open (parent fixed, state not chosen) while
    # stage j's state is decided: their minima join ``fixed``.
    open_after = [
        [c for c in range(j + 1, num_stages) if parent_stage[c] < j]
        for j in range(num_stages)
    ]
    view_class = FLAT_VIEWS[kind]
    views: list = [None] * compiled.num_connectors
    pairs_of = compiled.pairs
    heappop = heapq.heappop
    heappush = heapq.heappush

    seq = 0
    if not compiled.empty:
        uid = root_uid[0]  # stage 0 is always a root stage
        view = views[uid] = view_class(pairs_of(uid))
        best, best_rank = compiled.best
        seq = 1
        heap.append((compiled.best_key[0], best_rank, 1, None, 0, view, view.best, best))
    counted = seq  # pushes already charged (the seed: at construction)

    while heap:
        key, rank, _seq, prefix, stage, view, pos, total = heappop(heap)
        states = [0] * num_stages
        fixed = one
        fixed_rank = 0
        node = prefix
        fill = stage - 1
        while node is not None:
            state = node[0]
            states[fill] = state
            value = val_base[fill][state]
            fixed = value * fixed if multiply else value + fixed
            fixed_rank += val_rank[fill][state]
            node = node[1]
            fill -= 1

        for j in range(stage, num_stages):
            entry = view.entry_at(pos)
            succs = view.succ(pos)
            if succs:
                base = fixed
                base_rank = fixed_rank
                for open_stage in open_after[j]:
                    parent = parent_stage[open_stage]
                    if parent == -1:
                        uid = root_uid[open_stage]
                    else:
                        uid = conn_of[open_stage][states[parent]]
                    least = min_base[uid]
                    base = base * least if multiply else base + least
                    base_rank += min_rank[uid]
                entry_at = view.entry_at
                stage_entry = ent_base[j]
                for succ_pos in succs:
                    other = entry_at(succ_pos)
                    value = stage_entry[other[2]]
                    sibling = base * value if multiply else base + value
                    seq += 1
                    heappush(heap, (
                        -sibling if negate else sibling, base_rank + other[1],
                        seq, prefix, j, view, succ_pos, sibling,
                    ))
            state = entry[2]
            states[j] = state
            prefix = (state, prefix)
            value = val_base[j][state]
            fixed = fixed * value if multiply else fixed + value
            fixed_rank += val_rank[j][state]
            next_stage = j + 1
            if next_stage < num_stages:
                parent = parent_stage[next_stage]
                if parent == -1:
                    uid = root_uid[next_stage]
                else:
                    uid = conn_of[next_stage][states[parent]]
                view = views[uid]
                if view is None:
                    view = views[uid] = view_class(pairs_of(uid))
                pos = view.best

        if counter is not None:
            _charge(counter, num_stages - stage, seq - counted)
            counted = seq
        yield emit(total, key, rank, tuple(states))


class LaneRankedProduct:
    """:class:`~repro.anyk.product.RankedProduct` over lane solutions.

    Branch streams are connector uids read through ``ensure(uid, j)``,
    whose entries are ``(base_key, rank, state, js, base)``; a
    combination's value is folded from ``one`` in branch order.  Outputs
    are ``(base, rank, vector)``.  Same Lawler markers, same sequence
    numbers, same counts as the object version.
    """

    __slots__ = ("uids", "ensure", "lane", "one", "outputs", "_heap", "_seq", "counter")

    def __init__(
        self,
        uids: tuple[int, ...],
        ensure: Callable[[int, int], tuple | None],
        compiled: LaneCore,
        counter: OpCounter | None = None,
    ):
        self.uids = tuple(uids)
        self.ensure = ensure
        self.lane = compiled.lane
        self.one = compiled.one
        self.counter = counter
        self.outputs: list[tuple] = []
        self._heap: list[tuple] = []
        self._seq = 0
        firsts = [ensure(uid, 0) for uid in self.uids]
        if any(entry is None for entry in firsts):
            return  # dead product: some branch has no solution at all
        value, rank = self._fold(firsts)
        self._seq = 1
        key = -value if self.lane.negate else value
        self._heap.append((key, rank, 1, (0,) * len(self.uids), 0, value))
        if counter is not None:
            counter.pq_push += 1

    def _fold(self, entries) -> tuple:
        multiply = self.lane.multiply
        value = self.one
        rank = 0
        for entry in entries:
            value = value * entry[4] if multiply else value + entry[4]
            rank += entry[1]
        return value, rank

    def get(self, j: int) -> tuple | None:
        """The ``j``-th best combination (0-based), or ``None``."""
        outputs = self.outputs
        if j < len(outputs):
            return outputs[j]
        ensure = self.ensure
        uids = self.uids
        width = len(uids)
        negate = self.lane.negate
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        append = outputs.append
        known = len(outputs)
        pushed_from = seq = self._seq
        try:
            while len(outputs) <= j:
                if not heap:
                    return None
                _key, rank, _seq, vector, marker, value = heappop(heap)
                append((value, rank, vector))
                for i in range(marker, width):
                    if ensure(uids[i], vector[i] + 1) is None:
                        continue
                    new_vector = vector[:i] + (vector[i] + 1,) + vector[i + 1:]
                    new_value, new_rank = self._fold(
                        [ensure(uids[branch], r) for branch, r in enumerate(new_vector)]
                    )
                    seq += 1
                    heappush(heap, (
                        -new_value if negate else new_value, new_rank, seq,
                        new_vector, i, new_value,
                    ))
            return outputs[j]
        finally:
            self._seq = seq
            if self.counter is not None:
                self.counter.pq_pop += len(outputs) - known
                self.counter.pq_push += seq - pushed_from


class LaneRecursive(FlatEnumerator):
    """anyK-rec (Algorithm 2) over a lane core.

    Per connector a memoized solution list and a candidate heap of
    ``(base_key, rank, state, js, base)``; a state's next suffix is its
    own value times the child's (one branch) or the ranked product's
    (several) — own value first, as the object path multiplies.  Counts
    as :class:`~repro.anyk.recursive.Recursive` does, per call.
    """

    def __init__(
        self,
        compiled: LaneCore,
        counter: OpCounter | None = None,
        emits: tuple | None = None,
    ):
        super().__init__(compiled, counter, emits)
        num_connectors = compiled.num_connectors
        self._sols: list[list[tuple] | None] = [None] * num_connectors
        self._heaps: list[list[tuple] | None] = [None] * num_connectors
        #: (stage, state) -> LaneRankedProduct for multi-branch states
        self._products: dict[tuple[int, int], LaneRankedProduct] = {}
        roots = compiled.root_stages
        self._root_product = None
        if not compiled.empty and len(roots) > 1:
            self._root_product = LaneRankedProduct(
                tuple(compiled.root_uid[r] for r in roots), self._ensure,
                compiled, counter=counter,
            )
        self._emit_pair = _pair_emitter(self.emits)
        self._rank = 0

    def _next_result(self):
        compiled = self.compiled
        if compiled.empty:
            return None
        rank = self._rank
        states = [0] * compiled.num_stages
        roots = compiled.root_stages
        product = self._root_product
        if product is None:
            uid = compiled.root_uid[roots[0]]
            item = self._ensure(uid, rank)
            if item is None:
                return None
            key, tie, _state, _js, value = item
            self._reconstruct(uid, rank, states)
        else:
            combo = product.get(rank)
            if combo is None:
                return None
            value, tie, vector = combo
            key = -value if compiled.lane.negate else value
            for branch, root in enumerate(roots):
                self._reconstruct(compiled.root_uid[root], vector[branch], states)
        self._rank = rank + 1
        if self.counter is not None:
            self.counter.results += 1
        return self._emit_pair(value, key, tie, tuple(states))

    def _ensure(self, uid: int, j: int) -> tuple | None:
        """Solution ``Π_{j+1}`` of connector ``uid`` (0-based), or ``None``."""
        all_sols = self._sols
        sols = all_sols[uid]
        if sols is None:
            sols = all_sols[uid] = []
            self._heaps[uid] = self.compiled.rea_heap(uid)
        if j < len(sols):
            return sols[j]
        compiled = self.compiled
        heap = self._heaps[uid]
        branches, own_base, own_rank, child_row, stage = compiled.lane_meta[uid]
        multiply, negate = compiled.lane
        ensure = self._ensure
        heappop = heapq.heappop
        heappush = heapq.heappush
        append = sols.append
        known = len(sols)
        pushed = 0
        try:
            while len(sols) <= j:
                if not heap:
                    return None
                item = heappop(heap)
                append(item)
                if not branches:
                    continue  # a leaf state has one suffix: no bump
                state = item[2]
                next_js = item[3] + 1
                if branches == 1:
                    child_uid = child_row[state]
                    child_sols = all_sols[child_uid]
                    if child_sols is not None and next_js < len(child_sols):
                        suffix = child_sols[next_js]
                    else:
                        suffix = ensure(child_uid, next_js)
                    if suffix is None:
                        continue
                    value = suffix[4]
                    tie = suffix[1]
                else:
                    combo = self._product(stage, state).get(next_js)
                    if combo is None:
                        continue
                    value, tie, _vector = combo
                own = own_base[state]
                total = own * value if multiply else own + value
                heappush(heap, (
                    -total if negate else total, own_rank[state] + tie,
                    state, next_js, total,
                ))
                pushed += 1
            return sols[j]
        finally:
            counter = self.counter
            if counter is not None:
                popped = len(sols) - known
                counter.pq_pop += popped
                counter.next_calls += popped
                counter.pq_push += pushed

    def _product(self, stage: int, state: int) -> LaneRankedProduct:
        key = (stage, state)
        product = self._products.get(key)
        if product is None:
            compiled = self.compiled
            branches = compiled.num_branches[stage]
            base = state * branches
            product = self._products[key] = LaneRankedProduct(
                tuple(compiled.child_uids[stage][base:base + branches]),
                self._ensure, compiled, counter=self.counter,
            )
        return product

    def _reconstruct(self, uid: int, j: int, states: list[int]) -> None:
        state, js = self._sols[uid][j][2:4]
        compiled = self.compiled
        stage = compiled.conn_stage[uid]
        states[stage] = state
        branches = compiled.num_branches[stage]
        child_uids = compiled.child_uids[stage]
        if branches == 1:
            self._reconstruct(child_uids[state], js, states)
        elif branches:
            vector = self._products[(stage, state)].outputs[js][2]
            base = state * branches
            for branch in range(branches):
                self._reconstruct(child_uids[base + branch], vector[branch], states)


class LaneBatch(FlatEnumerator):
    """Batch over a lane core: every solution, folded from ``one``, then sorted.

    A DFS in entry order, a solution's value the left fold of its
    states' values; sorting ``(base_key, rank, states, base)`` is the
    object Batch's sort by ``((base_key, rank), states)``.
    """

    def __init__(
        self,
        compiled: LaneCore,
        sort: bool = True,
        counter: OpCounter | None = None,
        emits: tuple | None = None,
    ):
        super().__init__(compiled, counter, emits)
        self.sorted = sort
        results = list(self._solutions(counter))
        if sort:
            results.sort()
        self.size = len(results)
        self._iter = iter(results)
        self._emit_pair = _pair_emitter(self.emits)

    def _solutions(self, counter: OpCounter | None):
        compiled = self.compiled
        if compiled.empty:
            return
        num_stages = compiled.num_stages
        parent_stage = compiled.parent_stage
        conn_of = compiled.conn_of
        root_uid = compiled.root_uid
        val_base = compiled.val_base
        val_rank = compiled.val_rank
        pairs_of = compiled.pairs
        multiply, negate = compiled.lane

        states = [0] * num_stages
        prefix = [compiled.one] * (num_stages + 1)
        prefix_rank = [0] * (num_stages + 1)
        iterators: list = [None] * num_stages
        iterators[0] = iter(pairs_of(root_uid[0]))
        level = 0
        last = num_stages - 1
        while level >= 0:
            entry = next(iterators[level], None)
            if entry is None:
                level -= 1
                continue
            state = entry[2]
            states[level] = state
            value = val_base[level][state]
            acc = prefix[level]
            prefix[level + 1] = acc * value if multiply else acc + value
            prefix_rank[level + 1] = prefix_rank[level] + val_rank[level][state]
            if counter is not None:
                counter.intermediate_tuples += 1
            if level == last:
                total = prefix[num_stages]
                yield (
                    -total if negate else total, prefix_rank[num_stages],
                    tuple(states), total,
                )
            else:
                level += 1
                parent = parent_stage[level]
                if parent == -1:
                    uid = root_uid[level]
                else:
                    uid = conn_of[level][states[parent]]
                iterators[level] = iter(pairs_of(uid))

    def _next_result(self):
        item = next(self._iter, None)
        if item is None:
            return None
        key, rank, states, value = item
        if self.counter is not None:
            self.counter.results += 1
        return self._emit_pair(value, key, rank, states)


def make_flat_enumerator(
    compiled: CompiledTDP,
    algorithm: str,
    counter: OpCounter | None = None,
    emits: tuple | None = None,
) -> Enumerator:
    """Instantiate a flat enumerator over ``compiled`` by algorithm name.

    A :class:`~repro.dp.lane.LaneCore` gets the lane family, any other
    core the key-space one.  ``emits`` — see :class:`FlatEnumerator`.
    """
    lanes = isinstance(compiled, LaneCore)
    if algorithm in FLAT_VIEWS:
        kind = LaneAnyKPart if lanes else FlatAnyKPart
        return kind(compiled, algorithm, counter=counter, emits=emits)
    if algorithm == "recursive":
        kind = LaneRecursive if lanes else FlatRecursive
        return kind(compiled, counter=counter, emits=emits)
    if algorithm in ("batch", "batch_nosort"):
        kind = LaneBatch if lanes else FlatBatch
        return kind(
            compiled, sort=algorithm == "batch", counter=counter, emits=emits
        )
    raise ValueError(f"unknown any-k algorithm {algorithm!r}")
