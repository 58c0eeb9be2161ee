"""Flat enumeration loops over a compiled core (:mod:`repro.dp.flat`).

Ports of every any-k enumerator — the four anyK-part strategy variants
(Take2/Lazy/Eager/All), anyK-rec (Recursive), and the Batch baselines —
whose inner loops index into the compiled core's flat arrays instead of
walking ``ChoiceSet`` object graphs.  One class per algorithm runs over
every compiled core, and the core says which arithmetic to run:

* weights combine by the core's lane — native ``+`` or ``*`` from the
  core's ``one``, plus a packed-rank ``int`` lane where the core has no
  inverse (a tie-broken union member's :class:`~repro.dp.flat.LaneCore`
  ranks there; elsewhere every rank is 0) — and are keyed by negating
  or not: no ``SelectiveDioid.times``/``key`` dispatch anywhere on the
  hot path;
* a sibling candidate's key comes, as Section 6.2 allows, either from
  the lane's inverse — ``total − entry + succ`` over the entry keys —
  or, where the lane has none, from the fixed prefix's total:
  ``fixed ⊗ open-branch minima ⊗ entry``, ``fixed`` the
  product of the popped candidate's prefix values folded from ``one``
  back to front, as :class:`~repro.anyk.partition.AnyKPart` folds it in
  monoid mode, then extended stage by stage;
* every candidate and heap item starts ``(key, rank, ...)``, the rank
  ``0`` where the core has no rank lane: ``(base_key, rank, seq, ...)``
  orders as the object path's ``((base_key, rank), seq, ...)``, and a
  bare key as its ``(key, seq, ...)``, ranks comparing only between
  equal keys.  A total is its key or the key negated, exactly, so no
  item carries one beside its key;
* connector ranking structures live in a uid-indexed list (no dict
  hashing); for the Take2 and Eager strategies the candidate carries
  (or, over a chain, recovers from its parent's state) the core's
  shared heap or sorted order itself — the entries' states, keys and
  ranks as lists in that order — so entry reads are C-level list
  indexing with no entry tuple and no view object in between;
* every loop is a module-level generator over the state it is handed:
  every per-iteration attribute binds to a local once per run, and no
  loop holds its enumerator, so a dropped run is freed by reference
  counting, not the cycle collector;
* op-counting never forks a loop: every loop tallies in locals it
  keeps anyway (the tie-breaking sequence number counts pushes, the
  popped candidate's stage gives the successor calls, solutions
  appended are pops) and charges the ``OpCounter`` before control
  leaves it — once per answer in the AnyK-part loops, once per call in
  Recursive's ``ensure`` — so a run with a counter and a run without
  execute the same code, and the counts are exact after every answer;
* results carry only ``(key, states)``; witness tuples and variable
  assignments materialise when read, through the result's decoder — the
  core's own assembler for a :class:`~repro.anyk.base.RankedResult`, the
  plan's for an engine-built :class:`~repro.dp.graph.QueryResult`
  (:class:`FlatEnumerator` says who decides which).  The core's emitter
  (:meth:`~repro.dp.flat.CompiledTDP.emitter`) makes each answer.

Every loop replicates the object-graph algorithms' candidate ordering
exactly — same push sequence, same tie-breaking sequence numbers, and
float operations that are, operand for operand, the object path's
``times`` calls (or their ``key`` image) — so the ranked output is
bit-identical to :mod:`repro.anyk.partition` / :mod:`repro.anyk.
recursive` / :mod:`repro.anyk.batch` (asserted by
``tests/test_flat_conformance.py`` and ``tests/test_lane_conformance.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

import numpy as np

from repro.anyk.base import Enumerator, RankedResult
from repro.anyk.strategies import ALGORITHMS, FLAT_VIEWS
from repro.dp.flat import CompiledTDP
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
    """What the flat enumerators share: the core, what they emit, a loop.

    ``emits`` is ``(result class, decoder)``: the class every answer is
    allocated as and what lands in its ``decoder`` slot.  The default —
    :class:`~repro.anyk.base.RankedResult` over ``compiled.assembler()`` —
    is the any-k library's result; the engine hands over
    :class:`~repro.dp.graph.QueryResult` and the plan's compiled
    assembler, so the object a kernel allocates is the public answer
    and nothing is built between the kernel and the caller.  Either
    way a kernel writes the same four slots of one object per answer.
    Every subclass runs its answers out of one generator, ``_gen``.
    """

    def __init__(
        self,
        compiled: CompiledTDP,
        counter: OpCounter | None,
        emits: tuple | None,
    ):
        self.compiled = compiled
        self.dioid = compiled.dioid
        self.counter = counter
        self.emits = (RankedResult, compiled.assembler()) if emits is None else emits

    def _next_result(self) -> RankedResult | None:
        return next(self._gen, None)


def _best(core: CompiledTDP) -> tuple:
    """``(key, rank)`` of the core's best answer: the seed's head."""
    total, rank = core.best
    return (-total if core.lane.negate else total), rank


def _ranking_lists(core: CompiledTDP, kind: str) -> tuple:
    """``(width, lists, list_of)`` of a shared-list strategy.

    Each holds a connector's ``[states, keys, ranks]`` in ranked order
    (:meth:`~repro.dp.flat.CompiledTDP.take2_heap`); position ``pos``'s
    successors are ``pos * width + 1`` onward: the two static-heap
    children of Take2, the next sorted entry of Eager.  ``lists`` is the
    core's uid-indexed cache (Eager's made on its first sort),
    ``list_of(uid)`` fills it.
    """
    if kind == "take2":
        return 2, core._take2_heaps, core.take2_heap
    return 1, core.sorted_orders(), core.sorted_order


def _open_after(parent_stage: list[int]) -> list[list[int]]:
    """Per stage ``j``: the stages whose branch is open (parent fixed,
    state not chosen) while ``j``'s state is decided."""
    num_stages = len(parent_stage)
    return [
        [c for c in range(j + 1, num_stages) if parent_stage[c] < j]
        for j in range(num_stages)
    ]


def _with_open_minima(
    core: CompiledTDP, open_stages: list[int], states: list[int], base, rank: int
) -> tuple:
    """``base ⊗`` the least entry of each open branch, in stage order."""
    multiply = core.lane.multiply
    for stage in open_stages:
        parent = core.parent_stage[stage]
        if parent == -1:
            uid = core.root_uid[stage]
        else:
            uid = core.conn_of[stage][states[parent]]
        least = core.min_base[uid]
        base = base * least if multiply else base + least
        rank += core.min_rank[uid]
    return base, rank


class FlatAnyKPart(FlatEnumerator):
    """Algorithm 1 over a compiled core (see the module docstring).

    Candidates are ``(key, rank, seq, prefix, stage[, carrier], pos)``.
    Three loops, chosen by the algorithm name and the tree shape: Take2
    and Eager run over the core's shared ranking lists (a static heap
    order, a sorted order) — :func:`_chain_loop` over a chain,
    :func:`_tree_loop` over any other tree; Lazy and All run
    :func:`_view_loop` over per-run flat views
    (:data:`~repro.anyk.strategies.FLAT_VIEWS`), whose ranking structure
    changes as it is read.  Passing a counter changes neither.  The
    chain loop earns its place: on the ``cycle_union`` benchmark
    (all-chain members, Take2) the view loop alone pages ~13 % slower at
    the median and ~28 % at p95, with ~5 % more CPU per answer.  Over
    other trees the shared lists still serve every run from one build,
    where a view copies and reorders each connector it touches per run.
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
        self._heap: list[tuple] = []
        emit = compiled.emitter(self.emits)
        if kind in FLAT_VIEWS:
            self._gen = _view_loop(
                compiled, FLAT_VIEWS[kind], self._heap, counter, emit
            )
        else:
            loop = _chain_loop if compiled.is_chain else _tree_loop
            self._gen = loop(compiled, kind, self._heap, counter, emit)
        if counter is not None and not compiled.empty:
            counter.pq_push += 1  # the seed candidate
            counter.candidates_created += 1

    def peak_candidates(self) -> int:
        """Current size of the candidate priority queue (MEM diagnostics)."""
        return len(self._heap)


def _chain_loop(core: CompiledTDP, kind: str, heap: list, counter, emit):
    """Take2 / Eager over a chain core (path-shaped join tree).

    The parent of stage ``j + 1`` is always ``j``, so the extension
    step needs no parent bookkeeping and no partial ``states`` vector:
    the prefix linked list alone carries the solution, and the states
    tuple is materialised in a single walk per result.  Candidates are
    ``(key, rank, seq, prefix, stage, pos)`` — the ranking list is
    recovered at pop time from ``prefix[0]`` (the parent's state),
    which every push site has already warmed.  This is the loop of both
    end-to-end enumeration workloads (``enum_extend``, ``cycle_union``),
    so the at most two successors are pushed unrolled.
    """
    width, lists, list_of = _ranking_lists(core, kind)
    two = width == 2
    num_stages = core.num_stages
    last = num_stages - 1
    #: conn_next[j] maps stage j's chosen state -> stage j+1's uid.
    conn_next = [core.conn_of[j + 1] for j in range(last)]
    conn_next.append(None)
    inverse = core.inverse
    val_base = core.val_base
    val_rank = core.val_rank
    ent_base = core.ent_base
    multiply, negate = core.lane
    one = core.one

    seq = 0
    root = None
    if not core.empty:
        root = list_of(core.root_uid[0])
        seq = 1
        heap.append((*_best(core), 1, None, 0, 0))
    counted = seq  # pushes already charged (the seed: at construction)

    while heap:
        key, rank, _seq, prefix, stage, pos = heappop(heap)
        states, keys, ranks = lists[conn_next[stage - 1][prefix[0]]] if stage else root
        if not inverse:
            fixed = one
            fixed_rank = 0
            node = prefix
            fill = stage - 1
            while node is not None:
                state = node[0]
                value = val_base[fill][state]
                fixed = value * fixed if multiply else value + fixed
                fixed_rank += val_rank[fill][state]
                node = node[1]
                fill -= 1
        for j in range(stage, num_stages):
            state = states[pos]
            succ = pos * width + 1
            size = len(states)
            if inverse:
                if succ < size:
                    base = key - keys[pos]
                    seq += 1
                    heappush(heap, (base + keys[succ], 0, seq, prefix, j, succ))
                    if two:
                        succ += 1
                        if succ < size:
                            seq += 1
                            heappush(
                                heap, (base + keys[succ], 0, seq, prefix, j, succ)
                            )
            else:
                if succ < size:
                    stage_entry = ent_base[j]
                    value = stage_entry[states[succ]]
                    sibling = fixed * value if multiply else fixed + value
                    seq += 1
                    heappush(heap, (
                        -sibling if negate else sibling, fixed_rank + ranks[succ],
                        seq, prefix, j, succ,
                    ))
                    if two:
                        succ += 1
                        if succ < size:
                            value = stage_entry[states[succ]]
                            sibling = fixed * value if multiply else fixed + value
                            seq += 1
                            heappush(heap, (
                                -sibling if negate else sibling,
                                fixed_rank + ranks[succ], seq, prefix, j, succ,
                            ))
                value = val_base[j][state]
                fixed = fixed * value if multiply else fixed + value
                fixed_rank += val_rank[j][state]
            prefix = (state, prefix)
            if j < last:
                uid = conn_next[j][state]
                ranked = lists[uid]
                if ranked is None:
                    ranked = list_of(uid)
                states, keys, ranks = ranked
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
        yield emit(key, rank, tuple(states))


def _tree_loop(core: CompiledTDP, kind: str, heap: list, counter, emit):
    """Take2 / Eager over any tree shape: the shared ranking lists.

    Candidates are ``(key, rank, seq, prefix, stage, ranked, pos)``, with
    ``ranked`` the connector's ``[states, keys, ranks]``.  A popped candidate
    rebuilds its partial ``states`` from the prefix, to find the
    connectors below states already chosen.  Successors are pushed as in
    :func:`_chain_loop`.
    """
    width, lists, list_of = _ranking_lists(core, kind)
    two = width == 2
    num_stages = core.num_stages
    parent_stage = core.parent_stage
    conn_of = core.conn_of
    root_uid = core.root_uid
    inverse = core.inverse
    val_base = core.val_base
    val_rank = core.val_rank
    ent_base = core.ent_base
    multiply, negate = core.lane
    one = core.one
    open_after = _open_after(parent_stage)

    seq = 0
    if not core.empty:
        seq = 1
        heap.append((*_best(core), 1, None, 0, list_of(root_uid[0]), 0))
    counted = seq  # pushes already charged (the seed: at construction)

    while heap:
        key, rank, _seq, prefix, stage, ranked, pos = heappop(heap)
        chosen, keys, ranks = ranked
        states = [0] * num_stages
        node = prefix
        fill = stage - 1
        if inverse:
            while node is not None:
                states[fill] = node[0]
                node = node[1]
                fill -= 1
        else:
            fixed = one
            fixed_rank = 0
            while node is not None:
                state = states[fill] = node[0]
                value = val_base[fill][state]
                fixed = value * fixed if multiply else value + fixed
                fixed_rank += val_rank[fill][state]
                node = node[1]
                fill -= 1

        for j in range(stage, num_stages):
            state = states[j] = chosen[pos]
            succ = pos * width + 1
            size = len(chosen)
            if inverse:
                if succ < size:
                    base = key - keys[pos]
                    seq += 1
                    heappush(
                        heap, (base + keys[succ], 0, seq, prefix, j, ranked, succ)
                    )
                    if two:
                        succ += 1
                        if succ < size:
                            seq += 1
                            heappush(heap, (
                                base + keys[succ], 0, seq, prefix, j, ranked, succ,
                            ))
            else:
                if succ < size:
                    base, base_rank = _with_open_minima(
                        core, open_after[j], states, fixed, fixed_rank
                    )
                    stage_entry = ent_base[j]
                    for succ in range(succ, min(succ + width, size)):
                        value = stage_entry[chosen[succ]]
                        sibling = base * value if multiply else base + value
                        seq += 1
                        heappush(heap, (
                            -sibling if negate else sibling,
                            base_rank + ranks[succ], seq, prefix, j, ranked, succ,
                        ))
                value = val_base[j][state]
                fixed = fixed * value if multiply else fixed + value
                fixed_rank += val_rank[j][state]
            prefix = (state, prefix)
            next_stage = j + 1
            if next_stage < num_stages:
                parent = parent_stage[next_stage]
                if parent == -1:
                    uid = root_uid[next_stage]
                else:
                    uid = conn_of[next_stage][states[parent]]
                ranked = lists[uid]
                if ranked is None:
                    ranked = list_of(uid)
                chosen, keys, ranks = ranked
                pos = 0

        if counter is not None:
            _charge(counter, num_stages - stage, seq - counted)
            counted = seq
        yield emit(key, rank, tuple(states))


def _view_loop(core: CompiledTDP, view_class: type, heap: list, counter, emit):
    """Lazy / All over any tree shape: per-run views of :data:`FLAT_VIEWS`.

    As :func:`_tree_loop`, with a view in the carrier slot: its
    ``entry_at`` reads a position, its ``succ`` lists the successors.
    A view ranks the entry tuples the run makes of its connector
    (:meth:`~repro.dp.flat.CompiledTDP.pairs`).
    """
    num_stages = core.num_stages
    parent_stage = core.parent_stage
    conn_of = core.conn_of
    root_uid = core.root_uid
    inverse = core.inverse
    val_base = core.val_base
    val_rank = core.val_rank
    ent_base = core.ent_base
    multiply, negate = core.lane
    one = core.one
    open_after = _open_after(parent_stage)
    views: list = [None] * core.num_connectors
    pairs_of = core.pairs

    seq = 0
    if not core.empty:
        uid = root_uid[0]  # stage 0 is always a root stage
        view = views[uid] = view_class(pairs_of(uid))
        at = len(view.entry_at(view.best)) - 1
        seq = 1
        heap.append((*_best(core), 1, None, 0, view, view.best))
    counted = seq  # pushes already charged (the seed: at construction)

    while heap:
        key, rank, _seq, prefix, stage, view, pos = heappop(heap)
        states = [0] * num_stages
        node = prefix
        fill = stage - 1
        if inverse:
            while node is not None:
                states[fill] = node[0]
                node = node[1]
                fill -= 1
        else:
            fixed = one
            fixed_rank = 0
            while node is not None:
                state = states[fill] = node[0]
                value = val_base[fill][state]
                fixed = value * fixed if multiply else value + fixed
                fixed_rank += val_rank[fill][state]
                node = node[1]
                fill -= 1

        for j in range(stage, num_stages):
            entry_at = view.entry_at
            entry = entry_at(pos)
            state = states[j] = entry[at]
            succs = view.succ(pos)
            if inverse:
                if succs:
                    base = key - entry[0]
                    for succ_pos in succs:
                        seq += 1
                        heappush(heap, (
                            base + entry_at(succ_pos)[0], 0, seq, prefix, j, view, succ_pos,
                        ))
            else:
                if succs:
                    base, base_rank = _with_open_minima(
                        core, open_after[j], states, fixed, fixed_rank
                    )
                    stage_entry = ent_base[j]
                    for succ_pos in succs:
                        other = entry_at(succ_pos)
                        value = stage_entry[other[at]]
                        sibling = base * value if multiply else base + value
                        seq += 1
                        heappush(heap, (
                            -sibling if negate else sibling, base_rank + other[1],
                            seq, prefix, j, view, succ_pos,
                        ))
                value = val_base[j][state]
                fixed = fixed * value if multiply else fixed + value
                fixed_rank += val_rank[j][state]
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
                    view = views[uid] = view_class(pairs_of(uid))
                pos = view.best

        if counter is not None:
            _charge(counter, num_stages - stage, seq - counted)
            counted = seq
        yield emit(key, rank, tuple(states))


class FlatRankedProduct:
    """:class:`~repro.anyk.product.RankedProduct` over a compiled core.

    Branch streams are connector uids read through ``ensure(uid, j)``,
    whose solutions are ``(key, rank, state, js)``; a combination's
    total is folded from ``one`` in branch order by the core's lane (a
    solution's total is its key, or the key negated), its rank summed.
    Outputs are ``(key, rank, vector)``.  Same Lawler markers, same
    sequence numbers, same counts as the object version.  ``ensure`` is
    an argument of every call, never stored, so a product holds nothing
    that holds its run.
    """

    __slots__ = ("uids", "lane", "one", "outputs", "_heap", "_seq", "counter")

    def __init__(
        self,
        uids: tuple[int, ...],
        ensure: Callable[[int, int], tuple | None],
        compiled: CompiledTDP,
        counter: OpCounter | None = None,
    ):
        self.uids = tuple(uids)
        self.lane = compiled.lane
        self.one = compiled.one
        self.counter = counter
        self.outputs: list[tuple] = []
        self._heap: list[tuple] = []
        self._seq = 0
        firsts = [ensure(uid, 0) for uid in self.uids]
        if any(first is None for first in firsts):
            return  # dead product: some branch has no solution at all
        multiply, negate = self.lane
        total = self.one
        rank = 0
        for first in firsts:
            value = -first[0] if negate else first[0]
            total = total * value if multiply else total + value
            rank += first[1]
        self._seq = 1
        self._heap.append(
            (-total if negate else total, rank, 1, (0,) * len(self.uids), 0)
        )
        if counter is not None:
            counter.pq_push += 1

    def get(self, j: int, ensure: Callable[[int, int], tuple | None]) -> tuple | None:
        """The ``j``-th best combination (0-based), or ``None``.

        A bumped combination's total is folded as the first one's is.
        """
        outputs = self.outputs
        if j < len(outputs):
            return outputs[j]
        uids = self.uids
        width = len(uids)
        multiply, negate = self.lane
        one = self.one
        heap = self._heap
        known = len(outputs)
        pushed_from = seq = self._seq
        try:
            while len(outputs) <= j:
                if not heap:
                    return None
                key, rank, _seq, vector, marker = heappop(heap)
                outputs.append((key, rank, vector))
                for i in range(marker, width):
                    if ensure(uids[i], vector[i] + 1) is None:
                        continue
                    new_vector = vector[:i] + (vector[i] + 1,) + vector[i + 1:]
                    total = one
                    rank = 0
                    for uid, js in zip(uids, new_vector):
                        solution = ensure(uid, js)
                        value = -solution[0] if negate else solution[0]
                        total = total * value if multiply else total + value
                        rank += solution[1]
                    seq += 1
                    heappush(
                        heap, (-total if negate else total, rank, seq, new_vector, i)
                    )
            return outputs[j]
        finally:
            self._seq = seq
            if self.counter is not None:
                self.counter.pq_pop += len(outputs) - known
                self.counter.pq_push += seq - pushed_from


class _Rea:
    """The memo of one Recursive run (REA, per connector).

    Per connector uid its ranked solutions and candidate heap, both of
    ``(key, rank, state, js)``; per multi-branch ``(stage, state)`` its
    :class:`FlatRankedProduct`.  It holds the core and the counter,
    nothing that refers back to an enumerator or generator.
    """

    __slots__ = ("core", "counter", "sols", "heaps", "products")

    def __init__(self, core: CompiledTDP, counter: OpCounter | None):
        self.core = core
        self.counter = counter
        self.sols: list[list[tuple] | None] = [None] * core.num_connectors
        self.heaps: list[list[tuple] | None] = [None] * core.num_connectors
        self.products: dict[tuple[int, int], FlatRankedProduct] = {}

    def ensure(self, uid: int, j: int) -> tuple | None:
        """Solution ``Π_{j+1}`` of connector ``uid`` (0-based), or ``None``.

        A popped state's next candidate is its own value times its next
        suffix — the child's next solution (one branch) or the ranked
        product's next combination (several) — own value first, as the
        object path multiplies.  Counts as
        :class:`~repro.anyk.recursive.Recursive` does, once per call.
        """
        all_sols = self.sols
        sols = all_sols[uid]
        if sols is None:
            sols = all_sols[uid] = []
            self.heaps[uid] = self.core.rea_heap(uid)
        elif j < len(sols):
            return sols[j]
        heap = self.heaps[uid]
        core = self.core
        branches, own_base, own_rank, child_row, stage = core.stage_meta[
            core.conn_stage[uid]
        ]
        multiply, negate = core.lane
        known = len(sols)
        pushed = 0
        try:
            while len(sols) <= j:
                if not heap:
                    return None
                item = heappop(heap)
                sols.append(item)
                if not branches:
                    continue  # a leaf state has one suffix: no bump
                _key, _rank, state, js = item
                js += 1
                if branches == 1:
                    # Inlined memo hit: thanks to connector sharing most
                    # child lookups land in an already-advanced solution
                    # list, so skip the recursive call for those.
                    child_uid = child_row[state]
                    child_sols = all_sols[child_uid]
                    if child_sols is not None and js < len(child_sols):
                        suffix = child_sols[js]
                    else:
                        suffix = self.ensure(child_uid, js)
                else:
                    suffix = self.product(stage, state).get(js, self.ensure)
                if suffix is None:
                    continue
                value = -suffix[0] if negate else suffix[0]
                own = own_base[state]
                total = own * value if multiply else own + value
                heappush(heap, (
                    -total if negate else total,
                    suffix[1] if own_rank is None else own_rank[state] + suffix[1],
                    state, js,
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

    def product(self, stage: int, state: int) -> FlatRankedProduct:
        key = (stage, state)
        product = self.products.get(key)
        if product is None:
            core = self.core
            branches = core.num_branches[stage]
            base = state * branches
            product = self.products[key] = FlatRankedProduct(
                tuple(core.child_uids[stage][base:base + branches]),
                self.ensure, core, counter=self.counter,
            )
        return product

    def reconstruct(self, uid: int, j: int, states: list[int]) -> None:
        """Write the states of connector ``uid``'s ``j``-th solution."""
        _key, _rank, state, js = self.sols[uid][j]
        core = self.core
        stage = core.conn_stage[uid]
        states[stage] = state
        branches = core.num_branches[stage]
        child_uids = core.child_uids[stage]
        if branches == 1:
            self.reconstruct(child_uids[state], js, states)
        elif branches:
            vector = self.products[(stage, state)].outputs[js][2]
            base = state * branches
            for branch in range(branches):
                self.reconstruct(child_uids[base + branch], vector[branch], states)


class FlatRecursive(FlatEnumerator):
    """anyK-rec (Algorithm 2) over a compiled core.

    The memo is a :class:`_Rea`; :func:`_recursive_loop` reads the
    answers off the root connector, or off the ranked product of the
    root connectors where the join tree has several roots.
    """

    def __init__(
        self,
        compiled: CompiledTDP,
        counter: OpCounter | None = None,
        emits: tuple | None = None,
    ):
        super().__init__(compiled, counter, emits)
        rea = _Rea(compiled, counter)
        roots = compiled.root_stages
        product = None
        if not compiled.empty and len(roots) > 1:
            product = FlatRankedProduct(
                tuple(compiled.root_uid[r] for r in roots), rea.ensure,
                compiled, counter=counter,
            )
        self._gen = _recursive_loop(rea, product, compiled.emitter(self.emits))


def _recursive_loop(rea: _Rea, product: FlatRankedProduct | None, emit):
    """The answers of one Recursive run, best first.

    With one root, answer ``rank`` is the root connector's ``rank``-th
    solution; over a pure chain (every stage at most one branch, so a
    connector's depth is its stage) its states are a walk of the
    memoized solution lists instead of a recursion.
    """
    core = rea.core
    if core.empty:
        return
    counter = rea.counter
    num_stages = core.num_stages
    last = num_stages - 1
    roots = [core.root_uid[root] for root in core.root_stages]
    chain = all(b <= 1 for b in core.num_branches)
    child_uids = core.child_uids
    all_sols = rea.sols
    ensure = rea.ensure
    reconstruct = rea.reconstruct

    rank = 0
    while True:
        if product is None:
            item = ensure(roots[0], rank)
            if item is None:
                return
            key, tie, state, js = item
            if chain:
                states = [state]
                add_state = states.append
                for stage in range(last):
                    _key, _rank, state, js = all_sols[child_uids[stage][state]][js]
                    add_state(state)
            else:
                states = [0] * num_stages
                reconstruct(roots[0], rank, states)
        else:
            combo = product.get(rank, ensure)
            if combo is None:
                return
            key, tie, vector = combo
            states = [0] * num_stages
            for uid, js in zip(roots, vector):
                reconstruct(uid, js, states)
        if counter is not None:
            counter.results += 1
        yield emit(key, tie, tuple(states))
        rank += 1


class FlatBatch(FlatEnumerator):
    """Batch baseline over a compiled core (full output, optional sort).

    Expands the compiled entries level by level with numpy, a
    solution's total the left fold of its states' values from ``one`` by
    the core's lane (its rank the sum of theirs); sorting ``(key, rank,
    states)`` is the object Batch's deterministic sort by ``(key,
    states)``.  The object path's :class:`~repro.anyk.batch.Batch` is the
    oracle, counters included (``tests/test_flat_conformance.py``).
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
        self._gen = _drain(results, counter, compiled.emitter(self.emits))

    def _solutions_list(self, counter: OpCounter | None) -> list:
        """All ``(key, rank, states)`` solutions in DFS preorder, by a
        level-synchronous ragged expansion over the CSR entry pool.

        Each level replaces every live prefix by its child entries in
        pool order, preserving prefix order — a backtracker's DFS
        preorder exactly (a root's entries repeat under every prefix),
        the states read off the pool's ``entry_state`` column.
        The per-solution total is grown by the left fold from ``one``,
        ``acc ⊗ val_base[level][state]`` under the core's lane, and keyed
        at the end; the packed rank, where the core has one, is summed in
        an object column (ranks may pass int64).  Every prefix extended
        is one ``counter.intermediate_tuples``; all outputs convert to
        native Python scalars before leaving.
        """
        compiled = self.compiled
        if compiled.empty:
            return []
        parent_stage = compiled.parent_stage
        root_uid = compiled.root_uid
        val_rank = compiled.val_rank
        entry_state = np.asarray(compiled.entry_state, np.int64)
        offsets = np.asarray(compiled.conn_offsets, np.int64)
        multiply, negate = compiled.lane

        acc = np.full(1, compiled.one)
        rank = np.zeros(1, object)
        paths = np.zeros((1, 0), np.int64)
        for level in range(compiled.num_stages):
            parent = parent_stage[level]
            if parent == -1:
                uids = np.full(len(acc), root_uid[level])
            else:
                uids = np.asarray(compiled.conn_of[level])[paths[:, parent]]
            starts = offsets[uids]
            counts = offsets[uids + 1] - starts
            rep = np.repeat(np.arange(len(acc)), counts)
            cum = np.cumsum(counts) - counts
            idx = np.arange(len(rep)) - cum[rep] + starts[rep]
            child_states = entry_state[idx]
            if counter is not None:
                counter.intermediate_tuples += len(rep)
            values = np.asarray(compiled.val_base[level], np.float64)[child_states]
            acc = acc[rep] * values if multiply else acc[rep] + values
            if val_rank is not None:
                rank = rank[rep] + np.asarray(val_rank[level], object)[child_states]
            paths = np.concatenate([paths[rep], child_states.reshape(-1, 1)], axis=1)
        keys = (-acc if negate else acc).tolist()
        if val_rank is None:
            return [(key, 0, tuple(states)) for key, states in zip(keys, paths.tolist())]
        return list(zip(keys, rank.tolist(), map(tuple, paths.tolist())))


def _drain(results: list, counter: OpCounter | None, emit):
    """Emit materialised ``(key, rank, states)`` solutions in order."""
    for key, rank, states in results:
        if counter is not None:
            counter.results += 1
        yield emit(key, rank, states)


def make_flat_enumerator(
    compiled: CompiledTDP,
    algorithm: str,
    counter: OpCounter | None = None,
    emits: tuple | None = None,
) -> Enumerator:
    """Instantiate a flat enumerator over any compiled core by algorithm name.

    ``emits`` — see :class:`FlatEnumerator`.
    """
    if algorithm in ALGORITHMS:
        return FlatAnyKPart(compiled, algorithm, counter=counter, emits=emits)
    if algorithm == "recursive":
        return FlatRecursive(compiled, counter=counter, emits=emits)
    if algorithm in ("batch", "batch_nosort"):
        return FlatBatch(
            compiled, sort=algorithm == "batch", counter=counter, emits=emits
        )
    raise ValueError(f"unknown any-k algorithm {algorithm!r}")
