"""Memoized result streams: the emitted-prefix cache behind serving.

Ranked enumeration is monotone — the first ``k`` answers of a run are a
prefix of the first ``k + j`` answers of the same run — so re-running
the enumeration to serve an overlapping request is pure waste.  A
:class:`PrefixStream` wraps one enumeration run and memoizes every
result it has emitted:

* ``prefix(100)`` after ``prefix(5)`` enumerates only answers 6..100 —
  zero duplicate enumeration steps (assertable via the attributed
  :class:`~repro.util.counters.OpCounter` deltas);
* any number of cursors/readers can consume the same stream at
  different positions (pagination, overlapping ``top(k)`` calls) while
  the underlying enumerator advances at most once per rank.

Streams are engine-cached per ``(physical plan, algorithm)`` and
version-stamped, so the engine's :attr:`Database.version` invalidation
extends to them: a database mutation makes the next request rebuild the
stream against a freshly bound plan (see ``Engine._stream_for``).
The enumerator under a stream runs on the physical plan's compiled
flat core when the dioid supports it (``repro.dp.flat``).  The stream
always passes its internal counter; the compiled kernels tally in
locals and charge it once per answer, so a counted run is the same
loop as an uncounted one and per-request ``OpCounter`` attribution
costs the serving path one test and one call per answer.

Extension pulls exactly the missing answers in one C-level batch
(``list.extend`` over ``islice``): no Python frame per answer between
the kernel and the memo, and never an answer more than was asked for —
any-k's pay-per-answer property, which the cursor's budget probe
relies on.  It is guarded by a lock, making one stream safe to share
across threads as well as asyncio tasks; the memoized prefix itself is
append-only, so replays need no locking at all.

A raise during extension is never mistaken for the end of the output.
Answers memoized before it stay; an iterator that survives its own
raise (:class:`~repro.engine.plan.DecodedResults` does, keeping the
answer whose decode failed pending) resumes at the same rank on the
next extension; one that is dead afterwards — a generator is finalised
by a raise — marks the stream :attr:`~PrefixStream.broken`: replays of
the memo keep working, further extension raises, and the engine hands
new requests a fresh stream.

What the memo holds is what the plan hands out.  A plan whose rows this
process holds hands out :class:`QueryResult` *views* — the object the
kernel allocated: weight, states, the plan's assembler — and a field is
decoded when someone reads it, retaining nothing, so an answer that is
only skipped, budgeted, probed or ranked is never decoded at all.  A
plan whose rows sit behind a storage backend (a warm-started ``.core``
plan), or whose finisher post-processes
(union, min-weight, projection), hands out finished answers built while
extending (:func:`repro.engine.plan.decodes_at_extension`);
:attr:`PrefixStream.decode` says which, and so do the ``stream.extend``
span and ``explain()``.  A held view keeps its plan's row lists alive
(as a held ``RankedResult`` keeps its T-DP), not its engine or backend.

The memo holds an answer's served form too: once a rank has gone over a
socket, its :class:`QueryResult` carries the encoded protocol line
(:func:`repro.serve.protocol.result_lines`), so a replayed page is
neither re-enumerated nor re-encoded.  The line has no lifetime of its
own — it goes when the stream that memoizes the answer goes — and
:meth:`PrefixStream.memory_bytes` charges for it.
"""

from __future__ import annotations

import sys
from itertools import islice
from threading import RLock
from typing import Any, Callable, Iterator

from repro.enumeration.result import QueryResult
from repro.obs.trace import NULL_TRACER
from repro.util.counters import OpCounter


class PrefixStream:
    """One enumeration run with a memoized, shareable emitted prefix.

    ``factory`` starts the underlying run lazily (on the first pull) and
    receives the stream's internal :class:`OpCounter`, so every
    enumeration operation ever spent on this stream is accounted exactly
    once.  Callers that pass their own counter to :meth:`ensure` /
    :meth:`prefix` get the *delta* spent on their behalf — replayed
    results attribute zero operations, which is precisely the claim the
    serving layer's "no repeated-prefix work" tests assert.
    """

    __slots__ = (
        "_factory", "_iterator", "_results", "_exhausted", "_lock",
        "_tracer", "counter", "replays", "extensions", "_result_bytes",
        "_sized_wire", "_raised", "_broken",
    )

    _BROKEN = (
        "the enumeration behind this stream failed; its memoized prefix "
        "still replays, further answers need a new stream"
    )

    def __init__(
        self,
        factory: Callable[[OpCounter], Iterator[QueryResult]],
        tracer=None,
    ):
        self._factory = factory
        self._tracer = NULL_TRACER if tracer is None else tracer
        self._iterator: Iterator[QueryResult] | None = None
        self._results: list[QueryResult] = []
        self._exhausted = False
        #: The last extension raised / the run turned out to be dead.
        self._raised = False
        self._broken = False
        self._lock = RLock()
        #: Every enumeration operation spent by this stream, cumulative.
        self.counter = OpCounter()
        #: Requests answered entirely from the memo (no enumeration work).
        self.replays = 0
        #: Results pulled from the underlying enumerator.
        self.extensions = 0
        #: Cached per-result byte estimate (computed on first scrape),
        #: and the sample's held wire line it was computed with.
        self._result_bytes: int | None = None
        self._sized_wire: tuple | None = None

    # -- state -----------------------------------------------------------------

    @property
    def produced(self) -> int:
        """Number of results materialised so far."""
        return len(self._results)

    @property
    def exhausted(self) -> bool:
        """Whether the underlying enumeration ran dry."""
        return self._exhausted

    @property
    def broken(self) -> bool:
        """Whether the run died of an error (replays only; see :meth:`ensure`)."""
        return self._broken

    @property
    def done(self) -> bool:
        """Exhausted *and* the full output is memoized (total is known)."""
        return self._exhausted

    def __len__(self) -> int:
        return len(self._results)

    # -- extension -------------------------------------------------------------

    def ensure(self, n: int, counter: OpCounter | None = None) -> int:
        """Grow the memoized prefix to at least ``n`` results.

        Returns the number of results actually available (``< n`` only
        when the output is smaller).  Work done on behalf of this call
        is added to ``counter`` as a delta of the stream's internal
        counter; calls that are fully served by the memo add nothing.
        """
        if n < 0:
            # Mirrors itertools.islice (the pre-memoization top(k)
            # path): a negative request is a caller bug, not "almost
            # everything" via Python's negative slicing.
            raise ValueError(f"result count must be non-negative, got {n}")
        if len(self._results) >= n:
            self.replays += 1
            return n
        with self._lock:
            results = self._results
            if self._exhausted or len(results) >= n:
                return min(n, len(results))
            if self._broken:
                raise RuntimeError(self._BROKEN)
            before = self.counter.as_dict() if counter is not None else None
            if self._iterator is None:
                self._iterator = self._factory(self.counter)
            produced = len(results)
            try:
                # The span covers only actual extension work — fully
                # memoized requests take the lock-free replay path above
                # and never reach the tracer.
                with self._tracer.span("stream.extend", target=n) as span:
                    # One C-level pull of exactly the missing answers:
                    # any-k charges per answer, so never one more.
                    results.extend(islice(self._iterator, n - produced))
                    ran_dry = len(results) < n
                    # A run that raised and then ends without another
                    # answer did not run dry, it died: a generator is
                    # finalised by its own raise.
                    self._broken = (
                        ran_dry and self._raised and len(results) == produced
                    )
                    self._exhausted = ran_dry and not self._broken
                    span.set(
                        produced=len(results), exhausted=self._exhausted,
                        decode=self.decode,
                    )
                self._raised = False
            except BaseException:
                # Answers appended before the raise stay memoized: the
                # next extension resumes after them, no rank is skipped
                # or enumerated twice.
                self._raised = True
                raise
            finally:
                self.extensions += len(results) - produced
                if counter is not None:
                    for name, value in self.counter.as_dict().items():
                        setattr(
                            counter,
                            name,
                            getattr(counter, name) + value - before[name],
                        )
            if self._broken:
                raise RuntimeError(self._BROKEN)
            return len(results)

    def prefix(
        self, k: int, counter: OpCounter | None = None
    ) -> list[QueryResult]:
        """The first ``k`` ranked answers (fewer if the output is smaller)."""
        available = self.ensure(k, counter=counter)
        return self._results[:available]

    def slice(
        self, start: int, stop: int, counter: OpCounter | None = None
    ) -> list[QueryResult]:
        """Results ``start..stop-1`` (clamped to the actual output size)."""
        if start < 0:
            raise ValueError(f"slice start must be non-negative, got {start}")
        if stop <= start:
            return []
        available = self.ensure(stop, counter=counter)
        return self._results[start:min(stop, available)]

    def get(self, index: int, counter: OpCounter | None = None) -> QueryResult | None:
        """The answer at rank ``index`` (0-based), or ``None`` past the end."""
        if index < 0:
            raise ValueError(f"rank must be non-negative, got {index}")
        available = self.ensure(index + 1, counter=counter)
        return self._results[index] if index < available else None

    def __iter__(self) -> Iterator[QueryResult]:
        """Replay-then-extend iteration over the whole ranked output."""
        index = 0
        while True:
            result = self.get(index)
            if result is None:
                return
            yield result
            index += 1

    @property
    def decode(self) -> str | None:
        """Where this stream's answers are decoded, read off the memo:
        ``"on_read"`` when it holds views (states, decoded when someone
        looks), ``"at_extension"`` when it holds finished answers (the
        plan's rows sit behind a backend, or a finisher post-processes —
        ``explain()`` says which); ``None`` while it holds nothing."""
        if not self._results:
            return None
        view = getattr(self._results[0], "states", None) is not None
        return "on_read" if view else "at_extension"

    def memory_bytes(self) -> int:
        """Estimated bytes held by the memoized prefix (scrape-time).

        A per-result estimate is measured once from the first memoized
        answer (results of one stream are homogeneous — same query,
        same arity) and multiplied by the prefix length, so polling this
        never walks the whole memo.  A view is charged what it holds —
        the object, its states tuple, its weight — whether or not its
        fields were ever read, since a read retains nothing; a finished
        answer is charged its assignment dict and values as well.

        The estimate includes the encoded line an answer holds once it
        was served over a socket, and is taken again when the sample
        gains one (one attribute read per scrape).  So once rank 0 has
        been served every memoized answer is charged a line of the
        sample's size: as many lines as a fully served prefix holds,
        more than a partly served one does — the safe direction for
        ``memory_budget_bytes``.  The size is the sample's, like the
        rest of the estimate (rank 0's line has the fewest index
        digits: about 2% short on a 2 000-answer 4-path prefix).
        """
        results = self._results
        if not results:
            return sys.getsizeof(results)
        sample = results[0]
        wire = getattr(sample, "_wire", None)
        if self._result_bytes is None or wire is not self._sized_wire:
            size = sys.getsizeof(sample)
            if wire is not None:
                size += sys.getsizeof(wire) + sys.getsizeof(wire[1])
            states = getattr(sample, "states", None)
            if states is not None:
                # The states themselves are the compiled core's ints.
                size += sys.getsizeof(states)
            else:
                assignment = getattr(sample, "assignment", None)
                if isinstance(assignment, dict):
                    # Keys are the query's variable names, shared across
                    # every result — charge only the values per result.
                    size += sys.getsizeof(assignment)
                    size += sum(sys.getsizeof(v) for v in assignment.values())
            weight = getattr(sample, "weight", None)
            if weight is not None:
                size += sys.getsizeof(weight)
            self._result_bytes, self._sized_wire = size, wire
        return sys.getsizeof(results) + self._result_bytes * len(results)

    def stats(self) -> dict[str, Any]:
        """Observability snapshot (memo size, replay/extension counts)."""
        return {
            "produced": len(self._results),
            "exhausted": self._exhausted,
            "replays": self.replays,
            "extensions": self.extensions,
            "decode": self.decode,
            "memory_bytes": self.memory_bytes(),
        }

    def __repr__(self) -> str:
        state = "exhausted" if self._exhausted else "open"
        return f"PrefixStream({len(self._results)} memoized, {state})"
