"""The ranked k-way merge core.

The UT-DP union over decomposition members (Section 5.2 — the cycle
and generic decompositions, plus the UCQ pipeline) merges ranked
streams of :class:`RankedResult` with one loop — a top-level priority
queue holding the most recent unconsumed result of every member,
popped minimum-first and refilled from the same member — under one
determinism guarantee: ties between equal keys resolve by *insertion
sequence* (members are seeded in order, refills re-enter at pop time),
so a merge over the same member streams always emits the same
sequence.  :class:`RankedMerge` is that loop;
:class:`~repro.anyk.union.UnionEnumerator` configures duplicate
elimination on top of it.

Duplicate elimination remains O(1) look-behind: a result equal — under
``identity`` — to the previously emitted one is skipped.  That is only
globally correct when duplicates arrive *consecutively*, which the
union callers guarantee by ranking members under the Section 6.3
tie-breaking dioid.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Sequence

from repro.anyk.base import Enumerator, RankedResult
from repro.util.counters import OpCounter

#: Maps a result to the identity used for duplicate elimination.
IdentityFn = Callable[[RankedResult], Any]
#: Maps a result to its merge key (defaults to ``result.key``).
KeyFn = Callable[[RankedResult], Any]


def _default_identity(result: RankedResult) -> tuple:
    return result.output_tuple()


class _Sentinel:
    def __eq__(self, other) -> bool:
        return other is self

    def __repr__(self) -> str:
        return "<no previous result>"


_SENTINEL = _Sentinel()


class RankedMerge(Enumerator):
    """Merge several ranked streams minimum-first (the k-way merge core).

    All members must rank by the *same* dioid so their keys are
    comparable.  Construction seeds the heap with every member's first
    result in member order; each pop refills from the popped member.
    Exact-key ties therefore break deterministically by insertion
    sequence — earlier members (and earlier refills) win.

    ``dedup`` drops results whose ``identity`` equals the previously
    emitted one (consecutive-duplicate elimination, see module
    docstring).  ``counter`` receives the merge's own priority-queue
    traffic and counts every emit as a ``result``.
    """

    def __init__(
        self,
        members: Sequence[Enumerator],
        key: KeyFn | None = None,
        identity: IdentityFn | None = None,
        dedup: bool = False,
        counter: OpCounter | None = None,
    ):
        self.members = list(members)
        self.key = key
        self.identity = identity if identity is not None else _default_identity
        self.dedup = dedup
        self.counter = counter
        self._heap: list[tuple] = []
        self._seq = 0
        self._last_identity: Any = _SENTINEL
        for index in range(len(self.members)):
            self._refill(index)

    def _refill(self, index: int) -> None:
        result = self.members[index]._next_result()
        if result is None:
            return
        self._seq += 1
        merge_key = result.key if self.key is None else self.key(result)
        heapq.heappush(self._heap, (merge_key, self._seq, index, result))
        if self.counter is not None:
            self.counter.pq_push += 1

    def _next_result(self) -> RankedResult | None:
        # Merge loop: bind the heap primitives, the member table, and
        # the dedup callables to locals once per call — a result that
        # survives dedup exits on the first iteration, but duplicate
        # runs spin here and should not re-resolve attributes per spin.
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        members = self.members
        counter = self.counter
        dedup = self.dedup
        identity = self.identity
        key_fn = self.key
        while heap:
            _key, _seq, index, result = heappop(heap)
            if counter is not None:
                counter.pq_pop += 1
            refill = members[index]._next_result()
            if refill is not None:
                self._seq += 1
                merge_key = refill.key if key_fn is None else key_fn(refill)
                heappush(heap, (merge_key, self._seq, index, refill))
                if counter is not None:
                    counter.pq_push += 1
            if dedup:
                ident = identity(result)
                if ident == self._last_identity:
                    continue
                self._last_identity = ident
            if counter is not None:
                counter.results += 1
            return result
        return None
