"""Common result and iterator types for the any-k algorithms."""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator

from repro.dp.graph import TDP


class RankedResult:
    """One enumerated solution: a weight plus one state per stage.

    The heavier derived views (variable assignment, witness tuples) are
    computed lazily from the owning :class:`~repro.dp.graph.TDP`, keeping
    the per-result footprint at the paper's O(l).
    """

    __slots__ = ("weight", "key", "states", "tdp")

    def __init__(self, weight: Any, key: Any, states: tuple[int, ...], tdp: TDP):
        self.weight = weight
        self.key = key
        self.states = states
        self.tdp = tdp

    @property
    def assignment(self) -> dict[str, Any]:
        """Mapping of query variables to values."""
        return self.tdp.assignment(self.states)

    @property
    def witness(self) -> tuple:
        """Input tuples in atom order (Section 2.1's witness vector)."""
        return self.tdp.witness(self.states)

    @property
    def witness_ids(self) -> tuple[int, ...]:
        """Stable input-tuple positions in atom order."""
        return self.tdp.witness_ids(self.states)

    def output_tuple(self, variables: tuple[str, ...] | None = None) -> tuple:
        """Head projection of the assignment (defaults to all head vars)."""
        assignment = self.assignment
        if variables is None:
            variables = self.tdp.query.head
        return tuple(assignment[v] for v in variables)

    def __repr__(self) -> str:
        return f"RankedResult(weight={self.weight!r}, states={self.states})"


#: The flat kernels write ``weight``, ``key``, ``states`` and ``decoder``
#: into whichever result class their caller handed over.  A T-DP decodes
#: states as a :class:`~repro.dp.graph.ResultAssembler` does, so here the
#: name is a second handle on the ``tdp`` slot (the same descriptor).
RankedResult.decoder = RankedResult.tdp


class Enumerator:
    """Iterator over :class:`RankedResult` in ranking order.

    Subclasses implement :meth:`_next_result`, returning ``None`` when
    exhausted.  The iterator protocol plus :meth:`top` cover the paper's
    any-k usage: pull results until satisfied, no k fixed in advance.
    :meth:`step` pulls a *bounded* batch — the time-slicing primitive
    for embedding raw enumerators in cooperative schedulers.  (The
    serving layer slices at the result level instead, through
    :class:`~repro.engine.stream.PrefixStream`, because its slices must
    also be memoized; ``step`` is the equivalent for direct
    ``make_enumerator`` embeddings that need no memo.)
    """

    #: Set once :meth:`_next_result` has returned ``None``; after that
    #: no further results will ever be produced (so schedulers can drop
    #: the enumeration without probing it again).
    _finished = False
    #: The compiled generator loop driving this run, for the flat
    #: enumerators (a generator that has returned has no frame left: it
    #: is exhausted whoever consumed it).
    _gen = None

    @property
    def exhausted(self) -> bool:
        """Whether the enumeration has produced its last result."""
        gen = self._gen
        return self._finished or (gen is not None and gen.gi_frame is None)

    def __iter__(self) -> Iterator[RankedResult]:
        # Hand out the compiled generator itself when one drives this
        # run: consumers then resume it directly, with no ``__next__`` /
        # ``_next_result`` frames in between.  Interleaving with
        # ``step``/``top`` stays consistent because every consumption
        # path pulls from the same generator.
        return self if self._gen is None else self._gen

    def __next__(self) -> RankedResult:
        result = self._next_result()
        if result is None:
            self._finished = True
            raise StopIteration
        return result

    def step(self, n: int) -> list[RankedResult]:
        """Pull at most ``n`` further results (bounded batch).

        Returns fewer than ``n`` results exactly when the enumeration
        ran dry; :attr:`exhausted` is then ``True``.  Any-k's anytime
        property makes this cheap: each batch costs only the incremental
        delay of the results it yields, so a caller can interleave
        batches of many enumerations without losing work or order.
        """
        out: list[RankedResult] = []
        while len(out) < n and not self._finished:
            result = self._next_result()
            if result is None:
                self._finished = True
                break
            out.append(result)
        return out

    def _next_result(self) -> RankedResult | None:
        raise NotImplementedError

    def top(self, k: int) -> list[RankedResult]:
        """The first ``k`` results (fewer if the output is smaller)."""
        return list(islice(self, k))

    def within(self, weight_bound) -> Iterator[RankedResult]:
        """Yield results while their weight is within ``weight_bound``.

        A common any-k consumption pattern: "give me everything at most
        this expensive".  Relies on the ranked order — enumeration stops
        at the first result beyond the bound, so the cost is TT(k') for
        the actual number of qualifying results k'.
        """
        for result in self:
            if not self._leq_bound(result, weight_bound):
                return
            yield result

    def _leq_bound(self, result: RankedResult, bound) -> bool:
        return result.tdp.dioid.key(result.weight) <= result.tdp.dioid.key(bound)


def make_enumerator(
    tdp: TDP,
    algorithm: str = "take2",
    counter=None,
    flat: bool | None = None,
) -> Enumerator:
    """Instantiate an any-k enumerator over ``tdp`` by algorithm name.

    Names (paper Section 7): ``take2``, ``lazy``, ``eager``, ``all``,
    ``recursive``, ``batch``, and ``batch_nosort`` (Batch without the
    final sort, the paper's "Batch(No sort)" reference line).

    ``flat`` selects the enumeration core: ``None`` (default) uses the
    compiled flat core (:mod:`repro.anyk.flat`) whenever ``tdp`` has
    one — a lowered core's shell (a key-space plan, a lowered union
    member) always does, an object graph when its dioid satisfies the
    ``key_is_value`` contract (:func:`~repro.dp.flat.compile_tdp`) —
    and transparently falls back to the object-graph enumerators
    otherwise; ``False`` forces the object-graph path (the
    differential-testing reference); ``True`` requires the flat core
    and raises if there is none.  Both cores produce bit-identical
    ranked output.
    """
    from repro.anyk.batch import Batch
    from repro.anyk.partition import AnyKPart
    from repro.anyk.recursive import Recursive
    from repro.anyk.strategies import ALGORITHMS

    name = algorithm.lower()
    if flat is None or flat:
        from repro.anyk.flat import make_flat_enumerator
        from repro.dp.flat import compile_tdp

        compiled = compile_tdp(tdp)
        if compiled is not None:
            return make_flat_enumerator(compiled, name, counter=counter)
        if flat:
            raise ValueError(
                f"{tdp.dioid!r} does not support the compiled flat core "
                "(no key_is_value contract)"
            )
    if name in ALGORITHMS:
        return AnyKPart(tdp, strategy=ALGORITHMS[name](), counter=counter)
    if name == "recursive":
        return Recursive(tdp, counter=counter)
    if name == "batch":
        return Batch(tdp, counter=counter)
    if name == "batch_nosort":
        return Batch(tdp, sort=False, counter=counter)
    raise ValueError(f"unknown any-k algorithm {algorithm!r}")
