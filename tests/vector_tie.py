"""The Section 6.3 id-vector tie-break, kept as the oracle of the packed rank.

This is ``repro.ranking.dioid.TieBreakingDioid`` and
``repro.dp.builder.make_tie_lift`` as they stood before the id lane
became one integer (ISSUE 24), verbatim: a tie-broken value is
``(base_value, ids)`` with one ``()`` / ``(value,)`` slot per ranked
variable, ``times`` merges the vectors slot by slot, every stage binds
*all* its ranked variables.  It defines the order the packed rank must
reproduce — ``tests/test_tie_rank.py`` binds the same inputs under both
and compares the ranked sequences and the operation counts.  Not
collected by pytest; never imported by ``src/``.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Sequence

from repro.ranking.dioid import SelectiveDioid


# Sentinel used by TieBreakingDioid for a variable not bound yet.  An
# empty tuple compares strictly below any one-tuple, giving partial
# assignments a well-defined lexicographic position.
_UNBOUND: tuple = ()

# The two lanes of a tie-broken value ``(base_value, ids)``.
_BASE_LANE = itemgetter(0)
_ID_LANE = itemgetter(1)


class TieBreakingDioid(SelectiveDioid):
    """Section 6.3: product of a base dioid with a canonical tie-breaker.

    Values are pairs ``(base_value, ids)`` where ``ids`` is a vector with
    one slot per query variable (in a fixed global order).  Each slot is
    either the empty tuple (variable not bound by this partial witness)
    or a one-tuple ``(value,)``.  ``times`` aggregates the base weights
    and merges the id vectors (an all-unbound side — ``one``, a bag
    that binds no ranked variable — hands back the other side's vector
    unmerged); the order key is ``(base_key, ids)`` compared
    lexicographically.

    Because a *full* solution's id vector is exactly its output
    assignment in global variable order, two identical output tuples
    produced by different trees of a decomposition receive identical
    keys, and any two distinct outputs receive distinct keys.  Hence
    duplicates arrive consecutively from the UT-DP union enumerator and
    can be eliminated on the fly with O(1) look-behind.

    ``times`` is only ever applied to *compatible* operands (partial
    witnesses that agree on shared variables), which is all the ranked
    enumeration algorithms require.
    """

    def __init__(self, base: SelectiveDioid, num_variables: int):
        self.base = base
        self.num_variables = num_variables
        self._one = (base.one, (_UNBOUND,) * num_variables)
        self._zero = (base.zero, (_UNBOUND,) * num_variables)

    @property
    def zero(self) -> tuple:
        return self._zero

    @property
    def one(self) -> tuple:
        return self._one

    def times(self, a: tuple, b: tuple) -> tuple:
        ids, other = a[1], b[1]
        unbound = self._one[1]
        if ids == unbound:
            ids = other
        elif other != unbound:
            # Slot-wise first-bound: a slot is ``()`` (falsy) or a
            # one-tuple, so ``x or y`` is ``y if x == () else x``.
            ids = tuple([x or y for x, y in zip(ids, other)])
        return (self.base.times(a[0], b[0]), ids)

    def key(self, a: tuple) -> tuple:
        return (self.base.key(a[0]), a[1])

    def times_column(self, a: Sequence[tuple], b: Sequence[tuple]) -> list:
        """Lane-wise ``times``: the base's own column operation, ids by slot.

        Like the scalar ``times``, an operand that binds nothing (a
        column of ``one``) hands back the other side's id tuples
        themselves.  Otherwise a slot column is taken whole from ``a``
        where ``a`` binds it in every row (or ``b`` in none), whole from
        ``b`` where ``a`` never binds it, and merged ``x or y`` row by
        row only where neither holds — so any two columns are merged
        correctly, and the uniform ones a stage produces cost no per-row
        step.  (Slots are read with one ``itemgetter`` pass each rather
        than one ``zip(*ids)``: that would allocate an iterator per row.)
        """
        base = self.base.times_column(
            list(map(_BASE_LANE, a)), list(map(_BASE_LANE, b))
        )
        a_ids = list(map(_ID_LANE, a))
        b_ids = list(map(_ID_LANE, b))
        unbound = self._one[1]
        if a_ids.count(unbound) == len(a_ids):
            ids = b_ids
        elif b_ids.count(unbound) == len(b_ids):
            ids = a_ids
        else:
            merged = []
            for slot in map(itemgetter, range(self.num_variables)):
                x = list(map(slot, a_ids))
                if not all(x):
                    y = list(map(slot, b_ids))
                    if not any(x):
                        x = y
                    elif any(y):
                        x = [p or q for p, q in zip(x, y)]
                merged.append(x)
            ids = zip(*merged)
        return list(zip(base, ids))

    def key_column(self, values: Sequence[tuple]) -> list:
        base_keys = self.base.key_column(list(map(_BASE_LANE, values)))
        return list(zip(base_keys, map(_ID_LANE, values)))

    def lift(self, base_value: Any, bindings: dict[int, Any]) -> tuple:
        """Wrap ``base_value`` binding variable positions to values."""
        ids = [_UNBOUND] * self.num_variables
        for position, value in bindings.items():
            ids[position] = (value,)
        return (base_value, tuple(ids))

    def base_value(self, a: tuple) -> Any:
        """Recover the first (true weight) dimension (Section 6.3)."""
        return a[0]

    def __repr__(self) -> str:
        return f"TieBreakingDioid({self.base!r}, m={self.num_variables})"


def make_tie_lift(tie: TieBreakingDioid, var_position: dict[str, int]):
    """Lift bag weights into the tie-breaking dioid with their bindings.

    Variables absent from ``var_position`` (e.g. non-head variables in
    the UCQ pipeline) simply do not participate in tie-breaking.  Which
    column fills which id slot depends only on the atom, and the builder
    lifts a whole stage through one atom: ``lift.column`` reads each
    templated column once, looks its ``(value,)`` boxes up once and cuts
    every id vector from one ``zip``.  The boxes are shared per distinct
    value: a bag of n tuples over a domain of d values keeps d boxes
    alive, not 3n, which is most of what the cyclic GC had to walk
    during a bind.  (Values are join keys or SQLite scalars: hashable.)
    A value is boxed as its first spelling in row-major order (``1``
    before ``1.0``), by the scalar form and the column form alike.
    """
    unbound = tie.one[1]
    blank = list(unbound)
    boxes: dict = {}
    compiled: tuple = (None, ())

    def template_of(atom) -> tuple:
        return tuple(
            (column, var_position[var])
            for column, var in enumerate(atom.variables)
            if var in var_position
        )

    def lift(atom, values, raw_weight):
        nonlocal compiled
        compiled_for, template = compiled
        if compiled_for is not atom:
            # One rebinding of the pair: a concurrent fragment build
            # lifting another atom sees either template whole.
            compiled = (atom, template := template_of(atom))
        ids = blank.copy()
        for column, slot in template:
            value = values[column]
            box = boxes.get(value)
            if box is None:
                box = boxes[value] = (value,)
            ids[slot] = box
        return (raw_weight, tuple(ids))

    def lift_column(atom, rows, weights) -> list:
        template = template_of(atom)
        if not template:
            return list(zip(weights, repeat(unbound)))
        columns = [list(map(itemgetter(column), rows)) for column, _ in template]
        for value in dict.fromkeys(chain.from_iterable(zip(*columns))):
            if value not in boxes:
                boxes[value] = (value,)
        slots = [repeat(slot) for slot in unbound]
        for (_, slot), column in zip(template, columns):
            slots[slot] = map(boxes.__getitem__, column)
        return list(zip(weights, zip(*slots)))

    lift.column = lift_column
    return lift
