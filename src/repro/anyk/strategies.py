"""Successor strategies: the four anyK-part instantiations (Section 4.1.3).

The only design freedom in Algorithm 1 is how each choice set organises
its entries and how ``Succ(x, y)`` finds successor choices:

* **Eager** — pre-sort the choice set; the successor of position ``p``
  is ``p + 1``.  O(n log n) preprocessing per touched set, O(1) per call.
* **Lazy** (Chang et al.) — binary heap, incrementally drained into a
  sorted prefix; converges to Eager over the run.  Linear preprocessing,
  amortised O(log n) for fresh successors.
* **All** (Yang et al.) — no structure at all: the successors of the top
  choice are *all other* choices (inserted into Cand immediately); other
  choices have no successors because everything is already in Cand.
* **Take2** (this paper) — heapify once, never pop: the heap array is a
  static partial order and the successors of position ``p`` are its heap
  children ``2p+1`` and ``2p+2``.  Linear preprocessing, O(1) per call,
  at most two successors — the combination that yields optimal delay.

Every strategy exposes *views* over the shared
:class:`~repro.dp.graph.ChoiceSet` connectors.  Views are cached per
strategy instance (i.e. per enumerator run) and built lazily on first
access, as in the paper's implementation notes.

Correctness contract (relaxed strategies, Section 4.1.3): for any chosen
position ``p``, the true next-best choice is either among
``successor_positions(p)`` or already guaranteed to be in the candidate
queue through an earlier successor call on an ancestor choice.
"""

from __future__ import annotations

from typing import Sequence

from repro.dp.graph import ChoiceSet
from repro.util.heaps import LazySortedList, heap_children


class ChoiceView:
    """Strategy-specific ordered access to one connector's entries.

    ``entry(pos)`` returns the ``(key, state, value)`` triple at a
    strategy-defined position; ``best_pos()`` is the position of the
    minimum; ``successor_positions(pos)`` implements ``Succ``.
    """

    __slots__ = ()

    def best_pos(self) -> int:
        raise NotImplementedError

    def entry(self, pos: int) -> tuple:
        raise NotImplementedError

    def successor_positions(self, pos: int) -> Sequence[int]:
        raise NotImplementedError


class _EagerView(ChoiceView):
    __slots__ = ("entries",)

    def __init__(self, conn: ChoiceSet):
        self.entries = sorted(conn.entries)

    def best_pos(self) -> int:
        return 0

    def entry(self, pos: int) -> tuple:
        return self.entries[pos]

    def successor_positions(self, pos: int) -> Sequence[int]:
        return (pos + 1,) if pos + 1 < len(self.entries) else ()


class _LazyView(ChoiceView):
    __slots__ = ("lazy",)

    def __init__(self, conn: ChoiceSet):
        # The paper's Lazy materialises the top two entries up front:
        # the first expansion step asks for the second-best choice.
        self.lazy = LazySortedList(conn.entries, prefetch=2)

    def best_pos(self) -> int:
        return 0

    def entry(self, pos: int) -> tuple:
        return self.lazy.get(pos)

    def successor_positions(self, pos: int) -> Sequence[int]:
        return (pos + 1,) if self.lazy.get(pos + 1) is not None else ()


class _Take2View(ChoiceView):
    __slots__ = ("heap",)

    def __init__(self, conn: ChoiceSet):
        # Copy before heapifying: the shared entry list must stay
        # untouched for concurrent enumerators over the same TDP.
        import heapq

        self.heap = list(conn.entries)
        heapq.heapify(self.heap)

    def best_pos(self) -> int:
        return 0

    def entry(self, pos: int) -> tuple:
        return self.heap[pos]

    def successor_positions(self, pos: int) -> Sequence[int]:
        return heap_children(pos, len(self.heap))


class _AllView(ChoiceView):
    __slots__ = ("entries", "_best")

    def __init__(self, conn: ChoiceSet):
        self.entries = conn.entries
        best_entry = conn.min_entry
        self._best = self.entries.index(best_entry)

    def best_pos(self) -> int:
        return self._best

    def entry(self, pos: int) -> tuple:
        return self.entries[pos]

    def successor_positions(self, pos: int) -> Sequence[int]:
        if pos != self._best:
            return ()
        best = self._best
        return tuple(p for p in range(len(self.entries)) if p != best)


class SuccessorStrategy:
    """Base: caches one view per connector, built on first access."""

    name = "abstract"
    view_class: type[ChoiceView] = ChoiceView

    def __init__(self) -> None:
        self._views: dict[int, ChoiceView] = {}

    def view(self, conn: ChoiceSet) -> ChoiceView:
        view = self._views.get(conn.uid)
        if view is None:
            view = self.view_class(conn)
            self._views[conn.uid] = view
        return view

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EagerStrategy(SuccessorStrategy):
    """Eager Sort: pre-sorted choice sets (Section 4.1.3)."""

    name = "eager"
    view_class = _EagerView


class LazyStrategy(SuccessorStrategy):
    """Lazy Sort of Chang et al. [31]: heap drained on demand."""

    name = "lazy"
    view_class = _LazyView


class Take2Strategy(SuccessorStrategy):
    """The paper's Take2: static heap as partial order, two successors."""

    name = "take2"
    view_class = _Take2View


class AllStrategy(SuccessorStrategy):
    """All of Yang et al. [101]: every non-top choice is a successor."""

    name = "all"
    view_class = _AllView


#: Name -> strategy class registry used by :func:`repro.anyk.base.make_enumerator`.
ALGORITHMS: dict[str, type[SuccessorStrategy]] = {
    "eager": EagerStrategy,
    "lazy": LazyStrategy,
    "take2": Take2Strategy,
    "all": AllStrategy,
}


# -- flat (compiled-core) views -------------------------------------------------
#
# Lazy and All, ported to the entries of a :class:`~repro.dp.flat.
# CompiledTDP` — ``(key, state)`` pairs in key space, ``(base_key, rank,
# state)`` triples in a :class:`~repro.dp.lane.LaneCore`.  (Take2 and
# Eager need no view there: their ranking lists are read-only once
# built, so the flat kernels read the core's shared lists directly.)
# Two deliberate differences from the object views above:
#
# * ``entry_at`` is an *attribute* bound once at construction — for the
#   list-backed view it is the list's C-level ``__getitem__``, so the
#   hot loop pays no Python-level method frame per entry read;
# * construction takes the connector's shared entry list (see
#   ``CompiledTDP.pairs``) instead of a ``ChoiceSet``; a view that
#   reorders copies it first, exactly like the object views copy
#   ``conn.entries``.
#
# Position semantics, successor rules, and tie-breaking are identical to
# the object views: flat entries order exactly like the object triples
# ``(key, state, value)`` because ``state`` is unique per entry, which
# is what makes the flat and object paths bit-identical.


class FlatLazyView:
    """Lazy Sort over flat entries (heap drained into a sorted prefix)."""

    __slots__ = ("lazy", "entry_at", "best")

    def __init__(self, pairs: list[tuple]):
        self.lazy = LazySortedList(pairs, prefetch=2)
        self.entry_at = self.lazy.get
        self.best = 0

    def succ(self, pos: int) -> Sequence[int]:
        return (pos + 1,) if self.lazy.get(pos + 1) is not None else ()


class FlatAllView:
    """All over flat entries: every non-top choice succeeds the top."""

    __slots__ = ("entries", "entry_at", "best")

    def __init__(self, pairs: list[tuple]):
        self.entries = pairs  # read-only: no copy needed
        self.entry_at = pairs.__getitem__
        self.best = pairs.index(min(pairs))

    def succ(self, pos: int) -> Sequence[int]:
        if pos != self.best:
            return ()
        best = self.best
        return tuple(p for p in range(len(self.entries)) if p != best)


#: Name -> flat view class, used by :class:`repro.anyk.flat.FlatAnyKPart`.
FLAT_VIEWS: dict[str, type] = {
    "lazy": FlatLazyView,
    "all": FlatAllView,
}
