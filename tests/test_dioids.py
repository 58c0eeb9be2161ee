"""Selective-dioid axioms and implementations (Definition 3, Section 6.4).

Property-based tests verify the semiring axioms on random samples for
each dioid; the lexicographic and tie-breaking dioids get additional
structure tests because the algorithms rely on them subtly.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine.plan import make_tie_lift
from repro.query.atom import Atom
from repro.ranking.dioid import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    TROPICAL,
    LexicographicDioid,
    TieBreakingDioid,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)

NUMERIC_DIOIDS = [TROPICAL, MAX_PLUS]


@pytest.mark.parametrize("dioid", NUMERIC_DIOIDS + [MAX_TIMES, BOOLEAN])
class TestIdentities:
    def test_one_is_times_neutral(self, dioid):
        for x in self._samples(dioid):
            assert dioid.times(x, dioid.one) == x
            assert dioid.times(dioid.one, x) == x

    def test_zero_is_plus_neutral(self, dioid):
        for x in self._samples(dioid):
            assert dioid.plus(x, dioid.zero) == x
            assert dioid.plus(dioid.zero, x) == x

    def test_zero_absorbs_times(self, dioid):
        for x in self._samples(dioid):
            assert dioid.times(x, dioid.zero) == dioid.zero
            assert dioid.times(dioid.zero, x) == dioid.zero

    @staticmethod
    def _samples(dioid):
        if dioid is BOOLEAN:
            return [True, False]
        if dioid is MAX_TIMES:
            return [0.0, 0.5, 1.0, 3.25, 100.0]
        return [-5.0, 0.0, 1.0, 2.5, 1000.0]


@given(x=finite_floats, y=finite_floats, z=finite_floats)
def test_tropical_axioms(x, y, z):
    d = TROPICAL
    assert d.plus(x, y) in (x, y), "plus must be selective"
    assert d.plus(x, y) == min(x, y)
    assert d.times(d.plus(x, y), z) == pytest.approx(
        d.plus(d.times(x, z), d.times(y, z))
    ), "distributivity"
    assert d.times(d.times(x, y), z) == pytest.approx(d.times(x, d.times(y, z)))


@given(x=finite_floats, y=finite_floats, z=finite_floats)
def test_max_plus_axioms(x, y, z):
    d = MAX_PLUS
    assert d.plus(x, y) == max(x, y)
    assert d.times(d.plus(x, y), z) == pytest.approx(
        d.plus(d.times(x, z), d.times(y, z))
    )


@given(x=positive_floats, y=positive_floats, z=positive_floats)
def test_max_times_axioms(x, y, z):
    d = MAX_TIMES
    assert d.plus(x, y) == max(x, y)
    assert d.times(d.plus(x, y), z) == pytest.approx(
        d.plus(d.times(x, z), d.times(y, z))
    )


@given(x=st.booleans(), y=st.booleans(), z=st.booleans())
def test_boolean_axioms(x, y, z):
    d = BOOLEAN
    assert d.plus(x, y) == (x or y), "selective plus is disjunction"
    assert d.times(x, y) == (x and y)
    assert d.times(d.plus(x, y), z) == d.plus(d.times(x, z), d.times(y, z))


def test_boolean_inverted_order():
    # Section 6.4: the order is inverted (1 <= 0) so that satisfied
    # witnesses rank first and ranked enumeration subsumes evaluation.
    assert BOOLEAN.key(True) < BOOLEAN.key(False)
    assert BOOLEAN.plus(True, False) is True


class TestInverses:
    def test_tropical_divide(self):
        assert TROPICAL.divide(7.0, 3.0) == 4.0
        assert TROPICAL.has_inverse

    def test_max_plus_divide(self):
        assert MAX_PLUS.divide(7.0, 3.0) == 4.0

    def test_max_times_has_no_inverse(self):
        assert not MAX_TIMES.has_inverse
        with pytest.raises(NotImplementedError):
            MAX_TIMES.divide(4.0, 2.0)

    def test_boolean_has_no_inverse(self):
        assert not BOOLEAN.has_inverse


class TestLexicographic:
    def test_dimensions_validation(self):
        with pytest.raises(ValueError):
            LexicographicDioid(0)

    def test_times_is_vector_addition(self):
        d = LexicographicDioid(3)
        assert d.times((1, 2, 3), (10, 20, 30)) == (11, 22, 33)
        assert d.times((1, 2, 3), d.one) == (1, 2, 3)

    def test_order_is_lexicographic(self):
        d = LexicographicDioid(2)
        assert d.plus((1, 99), (2, 0)) == (1, 99)
        assert d.plus((1, 5), (1, 3)) == (1, 3)

    def test_unit_vector(self):
        d = LexicographicDioid(3)
        assert d.unit_vector(1, 7.0) == (0.0, 7.0, 0.0)

    def test_divide(self):
        d = LexicographicDioid(2)
        assert d.divide((5, 7), (2, 3)) == (3, 4)

    @given(
        a=st.tuples(finite_floats, finite_floats),
        b=st.tuples(finite_floats, finite_floats),
    )
    def test_selectivity(self, a, b):
        d = LexicographicDioid(2)
        assert d.plus(a, b) in (a, b)


class TestTieBreaking:
    def test_lift_and_key(self):
        tie = TieBreakingDioid(TROPICAL, 3)
        v = tie.lift(5.0, {0: "a", 2: "b"})
        assert v == (5.0, (("a",), (), ("b",)))
        assert tie.key(v) == (5.0, (("a",), (), ("b",)))
        assert tie.base_value(v) == 5.0

    def test_times_merges_bindings(self):
        tie = TieBreakingDioid(TROPICAL, 3)
        a = tie.lift(1.0, {0: 10})
        b = tie.lift(2.0, {1: 20})
        combined = tie.times(a, b)
        assert combined == (3.0, ((10,), (20,), ()))

    def test_ties_broken_by_bindings(self):
        tie = TieBreakingDioid(TROPICAL, 2)
        a = tie.lift(1.0, {0: 1, 1: 2})
        b = tie.lift(1.0, {0: 1, 1: 1})
        assert tie.plus(a, b) == b, "equal weights break ties lexicographically"

    def test_identical_outputs_get_identical_keys(self):
        tie = TieBreakingDioid(TROPICAL, 2)
        # Two trees composing the same full assignment in different
        # orders must produce the same key (Section 6.3 adjacency).
        left = tie.times(tie.lift(1.0, {0: "x"}), tie.lift(2.0, {1: "y"}))
        right = tie.times(tie.lift(2.0, {1: "y"}), tie.lift(1.0, {0: "x"}))
        assert tie.key(left) == tie.key(right)

    def test_one_and_zero(self):
        tie = TieBreakingDioid(TROPICAL, 2)
        v = tie.lift(3.0, {0: 1})
        assert tie.times(v, tie.one) == v
        assert tie.key(tie.zero)[0] == math.inf


def _reference_times(tie, a, b):
    """Section 6.3 as written: base product, slot-wise first-bound."""
    ids = tuple(y if x == () else x for x, y in zip(a[1], b[1]))
    return (tie.base.times(a[0], b[0]), ids)


@st.composite
def compatible_operands(draw, count):
    """``count`` partial witnesses of one full assignment (so they agree
    on shared variables), with integer-valued weights: exact arithmetic,
    so associativity is an equality, not a tolerance."""
    m = draw(st.integers(min_value=1, max_value=6))
    tie = TieBreakingDioid(TROPICAL, m)
    assignment = draw(
        st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    )
    operands = []
    for _ in range(count):
        bound = draw(st.sets(st.integers(0, m - 1)))
        weight = float(draw(st.integers(-50, 50)))
        operands.append(tie.lift(weight, {p: assignment[p] for p in bound}))
    return tie, operands


class TestTieBreakingAlgebra:
    """The short-circuiting ``times`` and the templated lift (ISSUE 15)
    against the definitions they replaced."""

    @given(compatible_operands(2))
    def test_times_equals_reference(self, drawn):
        tie, (a, b) = drawn
        assert tie.times(a, b) == _reference_times(tie, a, b)
        assert tie.times(b, a) == _reference_times(tie, b, a)

    @given(compatible_operands(1))
    def test_one_is_two_sided_identity(self, drawn):
        tie, (a,) = drawn
        assert tie.times(a, tie.one) == a
        assert tie.times(tie.one, a) == a
        # An all-unbound vector that is not ``one`` itself (a bag that
        # binds no ranked variable) is folded the same way.
        blank = tie.lift(0.0, {})
        assert blank[1] is not tie.one[1]
        assert tie.times(a, blank) == a == tie.times(blank, a)

    @given(compatible_operands(3))
    def test_associativity(self, drawn):
        tie, (a, b, c) = drawn
        assert tie.times(tie.times(a, b), c) == tie.times(a, tie.times(b, c))

    def test_base_arithmetic_survives_the_identity(self):
        # ``one`` must not be skipped: the base dioid's ``0.0 + x``
        # turns an int weight into a float and ``-0.0`` into ``0.0``.
        tie = TieBreakingDioid(TROPICAL, 1)
        product = tie.times(tie.lift(2, {0: 7}), tie.one)
        assert repr(product[0]) == "2.0"
        product = tie.times(tie.one, tie.lift(-0.0, {0: 7}))
        assert math.copysign(1.0, product[0]) == 1.0

    @given(
        variables=st.lists(
            st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=4
        ),
        ranked=st.lists(
            st.sampled_from(["a", "b", "c", "d", "e"]), unique=True, max_size=5
        ),
        rows=st.lists(
            st.tuples(
                st.lists(
                    st.one_of(st.integers(-2, 2), st.sampled_from([1.0, "x"])),
                    min_size=4, max_size=4,
                ),
                finite_floats,
            ),
            min_size=1, max_size=5,
        ),
    )
    def test_make_tie_lift_equals_dioid_lift(self, variables, ranked, rows):
        # ``variables`` may repeat (R(x, x)) and may name variables that
        # are not ranked (the UCQ pipeline ranks head variables only).
        var_position = {var: slot for slot, var in enumerate(ranked)}
        tie = TieBreakingDioid(TROPICAL, max(1, len(ranked)))
        atoms = [Atom("R", variables), Atom("S", variables[::-1])]
        lift = make_tie_lift(tie, var_position)
        for values, weight in rows:
            # Alternating atoms: the compiled template must follow.
            for atom in atoms:
                row = tuple(values[: atom.arity])
                expected = tie.lift(
                    weight,
                    {
                        var_position[var]: value
                        for var, value in zip(atom.variables, row)
                        if var in var_position
                    },
                )
                assert lift(atom, row, weight) == expected


class TestTimesAll:
    def test_times_all_folds(self):
        assert TROPICAL.times_all([1.0, 2.0, 3.0]) == 6.0
        assert TROPICAL.times_all([]) == 0.0
        assert MAX_TIMES.times_all([2.0, 3.0]) == 6.0

    def test_is_zero(self):
        assert TROPICAL.is_zero(math.inf)
        assert not TROPICAL.is_zero(0.0)
        assert BOOLEAN.is_zero(False)

    def test_leq(self):
        assert TROPICAL.leq(1.0, 2.0)
        assert MAX_PLUS.leq(2.0, 1.0), "max-plus prefers larger weights"
