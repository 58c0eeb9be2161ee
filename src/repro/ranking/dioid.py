"""Selective dioids: the algebraic structures behind ranking functions.

Definition 3 of the paper: a selective dioid is a semiring
``(W, plus, times, zero, one)`` where ``plus`` is *selective* —
``plus(x, y)`` is always ``x`` or ``y``.  Selectivity induces a total
order (``x <= y`` iff ``plus(x, y) == x``), which is what lets priority
queues rank partial solutions.

Implementation note
-------------------
All algorithms in this library order dioid values through
:meth:`SelectiveDioid.key`, which maps a value to a plain orderable
Python object (float, tuple, ...).  ``plus`` is then simply "pick the
operand with the smaller key".  This keeps ``heapq`` and ``sorted``
directly usable, makes comparisons cheap, and guarantees selectivity by
construction.  ``times`` is the aggregation operator that combines the
weights of the input tuples of a witness (Definition 4).

Some dioids additionally have an inverse for ``times`` (they are groups,
not just monoids — Section 6.2).  Those advertise ``has_inverse = True``
and implement :meth:`SelectiveDioid.divide`; the anyK-part algorithms use
the inverse for O(1) candidate-weight derivation on tree queries and fall
back to the paper's O(l^2) recomputation otherwise.

The lane contract
-----------------
A dioid whose values are Python numbers and whose ``times`` and ``key``
are each one native operator declares a :class:`FloatLane`: tropical
(``a + b``, key ``a``), max-plus (``a + b``, key ``-a``) and max-times
(``a * b``, key ``-a``).  A lane lets a caller run the dioid's
arithmetic as that operator on plain columns — in *value* space, keyed
afterwards, one operation for each ``times`` the object path would
call, so every bit (signed zeros included) and every result type (an
``int`` weight stays an ``int`` until it meets ``one``) is the one
``times`` would have produced.  Every plan ranked by a dioid with a lane
— acyclic plans and tie-broken union members whose base has one — is
lowered that way (:mod:`repro.dp.lower`); whether the
lane has an inverse is the dioid's :attr:`~SelectiveDioid.has_inverse`.
:func:`lane_of` reads the declaration, and is the only question the
lowering asks about a dioid; a subclass that overrides ``times`` or
``key`` no longer keeps the promise and has no lane.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from itertools import count
from operator import add, itemgetter
from typing import Any, Iterable, NamedTuple, Sequence


class FloatLane(NamedTuple):
    """A dioid's ``times`` and ``key`` as native operators on numbers.

    ``multiply``: ``times(a, b)`` is ``a * b`` (else ``a + b``).
    ``negate``: ``key(a)`` is ``-a`` (else ``a`` itself).
    """

    multiply: bool
    negate: bool

    def __str__(self) -> str:
        return f"{'a * b' if self.multiply else 'a + b'}, key {'-a' if self.negate else 'a'}"


class SelectiveDioid(ABC):
    """Abstract selective dioid ``(W, plus, times, zero, one)``.

    Subclasses define the value domain ``W``, the aggregation ``times``,
    the order key ``key``, and the identities ``zero`` (neutral for
    ``plus``, absorbing for ``times`` — the *worst* possible weight) and
    ``one`` (neutral for ``times`` — the weight of an empty witness).

    The bottom-up pass (:mod:`repro.dp.builder`) never multiplies or
    keys one value at a time: it hands a whole stage to
    :meth:`times_column` and :meth:`key_column`.  Their defaults *are*
    the definition — the scalar method mapped over the columns — so a
    dioid that only defines ``times`` and ``key`` is complete.  An
    override (see :class:`TieBreakingDioid`) is an optimisation only: it
    must return a new list equal to the default's, element by element.
    """

    #: Whether ``times`` has an inverse (the monoid is a group).
    has_inverse: bool = False

    #: The lane contract (module docstring): ``times`` and ``key`` as one
    #: native operator each, or ``None``.  Read it through
    #: :func:`lane_of`, which also checks that no subclass redefined
    #: what the declaration describes.
    float_lane: FloatLane | None = None

    @property
    @abstractmethod
    def zero(self) -> Any:
        """Neutral element of ``plus`` / absorbing element of ``times``."""

    @property
    @abstractmethod
    def one(self) -> Any:
        """Neutral element of ``times``."""

    @abstractmethod
    def times(self, a: Any, b: Any) -> Any:
        """Aggregate two weights (Definition 4)."""

    @abstractmethod
    def key(self, a: Any) -> Any:
        """Map a value to an orderable key; smaller key ranks earlier."""

    def times_column(self, a: Sequence[Any], b: Sequence[Any]) -> list:
        """``[times(x, y) for x, y in zip(a, b)]`` for parallel columns."""
        return list(map(self.times, a, b))

    def key_column(self, values: Sequence[Any]) -> list:
        """``[key(v) for v in values]``."""
        return list(map(self.key, values))

    def plus(self, a: Any, b: Any) -> Any:
        """Selective addition: return the better-ranked operand."""
        return a if self.key(a) <= self.key(b) else b

    def divide(self, a: Any, b: Any) -> Any:
        """Return ``c`` with ``times(c, b) == a``; only if ``has_inverse``."""
        raise NotImplementedError(f"{type(self).__name__} has no inverse")

    def leq(self, a: Any, b: Any) -> bool:
        """Total order induced by selectivity: ``a`` ranks no worse than ``b``."""
        return self.key(a) <= self.key(b)

    def times_all(self, values: Iterable[Any]) -> Any:
        """Fold ``times`` over ``values`` starting from ``one``."""
        acc = self.one
        for value in values:
            acc = self.times(acc, value)
        return acc

    def is_zero(self, a: Any) -> bool:
        """Whether ``a`` equals the absorbing ``zero`` element."""
        return a == self.zero

    def __repr__(self) -> str:
        return type(self).__name__


class TropicalDioid(SelectiveDioid):
    """``(R∪{∞}, min, +, ∞, 0)`` — rank by total weight, smallest first.

    This is the paper's default ranking function: the weight of an output
    tuple is the sum of its witness's input-tuple weights and results are
    returned in increasing weight order.  Addition over the reals has an
    inverse, so this dioid is a group.
    """

    has_inverse = True
    float_lane = FloatLane(multiply=False, negate=False)

    @property
    def zero(self) -> float:
        return math.inf

    @property
    def one(self) -> float:
        return 0.0

    def times(self, a: float, b: float) -> float:
        return a + b

    def key(self, a: float) -> float:
        return a

    def divide(self, a: float, b: float) -> float:
        return a - b


class MaxPlusDioid(SelectiveDioid):
    """``(R∪{−∞}, max, +, −∞, 0)`` — heaviest total weight first.

    Section 6.4: finds the "longest" paths / heaviest witnesses.
    """

    has_inverse = True
    #: Its lane runs in value space and keys afterwards: a derived zero
    #: keeps the sign ``times`` gives it (``-(0.0 + x)``).
    float_lane = FloatLane(multiply=False, negate=True)

    @property
    def zero(self) -> float:
        return -math.inf

    @property
    def one(self) -> float:
        return 0.0

    def times(self, a: float, b: float) -> float:
        return a + b

    def key(self, a: float) -> float:
        return -a

    def divide(self, a: float, b: float) -> float:
        return a - b


class MaxTimesDioid(SelectiveDioid):
    """``([0,∞), max, ×, 0, 1)`` — largest product first.

    Section 6.4: with tuple weights equal to input multiplicities this
    simulates bag semantics, returning the highest-multiplicity output
    first; with probabilities it returns the most probable witness.
    ``times`` has no inverse on all of ``[0, ∞)`` (zero is not
    invertible), so this dioid advertises ``has_inverse = False``: its
    lane runs products as ``*`` in value space, keys them by negation
    afterwards, and derives a sibling's weight from its prefix.
    """

    float_lane = FloatLane(multiply=True, negate=True)

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def times(self, a: float, b: float) -> float:
        return a * b

    def key(self, a: float) -> float:
        return -a


class BooleanDioid(SelectiveDioid):
    """``({False, True}, ∨, ∧, False, True)`` with inverted order ``1 ≤ 0``.

    Section 6.4: ranking by this dioid with the inverted order makes every
    satisfied witness compare equal (all weights are ``True``), so ranked
    enumeration degenerates to plain query evaluation; priority-queue
    maintenance on single-valued keys costs effectively constant time.
    Conjunction has no inverse (Example 17).
    """

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def times(self, a: bool, b: bool) -> bool:
        return a and b

    def key(self, a: bool) -> int:
        # Inverted order: True (1) ranks before False (0).
        return 0 if a else 1


class LexicographicDioid(SelectiveDioid):
    """Vector weights under element-wise addition, compared lexicographically.

    Section 2.2 ("Generality"): to order results lexicographically by
    their per-relation local weights, give the tuple of relation ``j`` the
    vector weight ``(0, ..., w'(r), ..., 0)`` (non-zero only at position
    ``j``).  ``times`` is element-wise vector addition (a group), and the
    induced order is the lexicographic order on the composed vectors.
    """

    has_inverse = True

    def __init__(self, dimensions: int):
        if dimensions < 1:
            raise ValueError("dimensions must be positive")
        self.dimensions = dimensions
        self._zero = (math.inf,) * dimensions
        self._one = (0.0,) * dimensions

    @property
    def zero(self) -> tuple:
        return self._zero

    @property
    def one(self) -> tuple:
        return self._one

    def times(self, a: tuple, b: tuple) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def key(self, a: tuple) -> tuple:
        return a

    def divide(self, a: tuple, b: tuple) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def unit_vector(self, position: int, weight: float) -> tuple:
        """Weight vector for a tuple of relation ``position`` (0-based)."""
        vec = [0.0] * self.dimensions
        vec[position] = weight
        return tuple(vec)

    def __repr__(self) -> str:
        return f"LexicographicDioid({self.dimensions})"


# The two lanes of a tie-broken value ``(base_value, rank)``.
_BASE_LANE = itemgetter(0)
_RANK_LANE = itemgetter(1)


def _comparable_group(value: Any) -> tuple:
    """Where ``value`` sorts among values it cannot be compared with."""
    if value is None:
        return (0, "")
    if isinstance(value, (int, float)):  # ``bool`` is an ``int``
        return (1, "")
    return (2, type(value).__qualname__)


def ranking_order(values: Iterable[Any]) -> list:
    """The distinct ``values``, ascending: one sort.

    Values that do not order against each other (``int`` with ``str``,
    SQLite's ``None``) are sorted inside their comparable group — ``None``
    first, then numbers, then every other type by its name — and a group
    whose own values still do not compare is ordered by ``repr``.
    """
    distinct = set(values)
    try:
        return sorted(distinct)
    except TypeError:
        groups: dict[tuple, list] = {}
        for value in distinct:
            groups.setdefault(_comparable_group(value), []).append(value)
        ordered: list = []
        for group in sorted(groups):
            try:
                ordered.extend(sorted(groups[group]))
            except TypeError:
                ordered.extend(sorted(groups[group], key=repr))
        return ordered


class TieBreakingDioid(SelectiveDioid):
    """Section 6.3: product of a base dioid with a canonical tie-breaker.

    Values are pairs ``(base_value, rank)``.  Section 6.3 breaks a tie
    by the output assignment, compared variable by variable in a fixed
    global order; a lexicographic order over finite domains is a
    mixed-radix number, so the assignment is carried as one integer:
    ``rank = sum(place[slot] * ordinal[slot][value])`` over the bound
    variables, slot 0 most significant, where ``ordinal[slot]`` numbers
    the distinct values the variable can take in ascending order and
    ``place[slot]`` is the product of the domain sizes of the slots
    after it.  ``times`` aggregates the base weights and *adds* the
    ranks, the order key is ``(base_key, rank)``, and ``one`` / ``zero``
    carry rank ``0``.  Python integers: no width limit, no overflow.

    Addition is the whole merge because operands bind disjoint slots: a
    lift (:func:`repro.dp.builder.make_tie_lift`) gives a stage only the
    variables it *owns* — those no stage above it holds — so a variable
    enters a solution's rank exactly once.  Wherever two ranks are
    compared they cover the same slots and agree on every slot left out
    (inside one connector the join variables, owned further up, are
    equal across entries), so the order is the order of the id vectors;
    a *full* solution's rank is its whole output assignment, injectively.
    Hence two identical output tuples produced by different trees of a
    decomposition receive identical keys, any two distinct outputs
    receive distinct keys, duplicates arrive consecutively from the
    UT-DP union enumerator and can be eliminated on the fly with O(1)
    look-behind.

    The ordinals are numbered once per bind by :meth:`rank_domains`,
    from every value a slot can take in any member of the plan, before
    anything is lifted.  Numbering never fails where comparing two tied
    answers would not have: values that compare equal (``1``, ``1.0``,
    ``True``) share one ordinal, being keyed through a hash table as
    join keys are; values that do not order against each other are
    numbered group by group (:func:`ranking_order`: ``None``, numbers,
    then other types by name), so a mixed-type column ranks
    deterministically instead of raising ``TypeError``.

    There is no inverse: dividing the base lane would change the order
    of its float operations.

    Both lanes are plain numbers, so where the base keeps the lane
    contract (:func:`lane_of`) a union member never calls ``times`` or
    ``key`` here: :mod:`repro.dp.lower` lowers it to a base-value column
    and a rank column per stage, runs the base's operator on the first
    and ``+`` on the second, and keys ``(base_key, rank)`` afterwards —
    exactly the pairs this class would have produced.
    """

    def __init__(self, base: SelectiveDioid, num_variables: int):
        self.base = base
        self.num_variables = num_variables
        self._one = (base.one, 0)
        self._zero = (base.zero, 0)
        #: Per slot, value -> ``place * ordinal`` (see :meth:`rank_domains`).
        self.ranks: tuple[dict, ...] = tuple({} for _ in range(num_variables))

    @property
    def zero(self) -> tuple:
        return self._zero

    @property
    def one(self) -> tuple:
        return self._one

    def rank_domains(self, domains: Sequence[Iterable[Any]]) -> None:
        """Number every slot's values: ``domains[slot]`` is all it can take.

        Once per bind, for all members of the plan together,
        before the first lift; one sort per slot.
        """
        if len(domains) != self.num_variables:
            raise ValueError("one domain per ranked variable")
        ranks: list[dict] = []
        place = 1
        for domain in reversed(domains):
            ordered = ranking_order(domain)
            ranks.append(dict(zip(ordered, count(0, place))))
            place *= len(ordered) or 1
        self.ranks = tuple(reversed(ranks))

    def times(self, a: tuple, b: tuple) -> tuple:
        return (self.base.times(a[0], b[0]), a[1] + b[1])

    def key(self, a: tuple) -> tuple:
        return (self.base.key(a[0]), a[1])

    def times_column(self, a: Sequence[tuple], b: Sequence[tuple]) -> list:
        """Lane-wise ``times``: the base's own column operation, ranks added."""
        base = self.base.times_column(
            list(map(_BASE_LANE, a)), list(map(_BASE_LANE, b))
        )
        return list(zip(base, map(add, map(_RANK_LANE, a), map(_RANK_LANE, b))))

    def key_column(self, values: Sequence[tuple]) -> list:
        base_keys = self.base.key_column(list(map(_BASE_LANE, values)))
        return list(zip(base_keys, map(_RANK_LANE, values)))

    def is_zero(self, a: tuple) -> bool:
        """Only ``zero`` itself.  A solution may carry the base's zero
        weight (``inf`` under tropical, ``0`` under max-times) at rank 0
        — every variable at its least value — and is still an answer."""
        return a is self._zero

    def lift(self, base_value: Any, bindings: dict[int, Any]) -> tuple:
        """Wrap ``base_value`` binding variable positions to (ranked) values."""
        ranks = self.ranks
        return (
            base_value,
            sum([ranks[slot][value] for slot, value in bindings.items()]),
        )

    def base_value(self, a: tuple) -> Any:
        """Recover the first (true weight) dimension (Section 6.3)."""
        return a[0]

    def __repr__(self) -> str:
        return f"TieBreakingDioid({self.base!r}, m={self.num_variables})"


def lane_of(dioid: SelectiveDioid) -> tuple[FloatLane | None, str]:
    """``(lane, "")`` when ``dioid`` keeps its lane contract, else ``(None, why)``.

    The declaration describes the ``times`` and ``key`` of the class that
    made it; a subclass overriding either (to count calls, to clamp, ...)
    inherits the attribute but not the promise.
    """
    cls = type(dioid)
    owner = next(c for c in cls.__mro__ if "float_lane" in vars(c))
    if owner.float_lane is None:
        return None, f"{dioid!r} declares no float lane"
    for name in ("times", "key"):
        if getattr(cls, name) is not getattr(owner, name):
            return None, f"{cls.__name__} overrides {name}"
    return owner.float_lane, ""


#: Shared default instances (the dioids are stateless).
TROPICAL = TropicalDioid()
MAX_PLUS = MaxPlusDioid()
MAX_TIMES = MaxTimesDioid()
BOOLEAN = BooleanDioid()


def _named_dioid(name: str) -> "SelectiveDioid":
    """Pickle hook: resolve a registry name back to the shared instance.

    The engine keys plan caches on dioid *identity*, so a dioid that
    crosses a process boundary (a pickled compiled core or query
    result) must unpickle to the very singleton the registry hands out —
    not to a fresh equal-but-distinct instance.
    """
    return NAMED_DIOIDS[name]


def _install_singleton_reduce() -> None:
    # Registered after NAMED_DIOIDS below; every stateless shared
    # instance round-trips through its canonical registry name.
    canonical = {
        id(TROPICAL): "tropical",
        id(MAX_PLUS): "max-plus",
        id(MAX_TIMES): "max-times",
        id(BOOLEAN): "boolean",
    }

    def reduce(self):
        name = canonical.get(id(self))
        if name is None:
            # A user-constructed instance: these classes are stateless,
            # so an equal fresh instance is a faithful round trip.
            return (type(self), ())
        return (_named_dioid, (name,))

    for cls in (TropicalDioid, MaxPlusDioid, MaxTimesDioid, BooleanDioid):
        cls.__reduce__ = reduce

#: Name -> shared instance, for surfaces that take the ranking function
#: as a string (the CLI flags and the serving wire protocol).  Sharing
#: one registry matters beyond convenience: the engine's plan-cache key
#: uses dioid *identity*, so every name must resolve to the same object
#: on every request.
NAMED_DIOIDS: dict[str, SelectiveDioid] = {
    "tropical": TROPICAL,
    "min-sum": TROPICAL,
    "max-plus": MAX_PLUS,
    "max-sum": MAX_PLUS,
    "max-times": MAX_TIMES,
    "boolean": BOOLEAN,
}

_install_singleton_reduce()
