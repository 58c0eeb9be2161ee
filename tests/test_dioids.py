"""Selective-dioid axioms and implementations (Definition 3, Section 6.4).

Property-based tests verify the semiring axioms on random samples for
each dioid; the lexicographic and tie-breaking dioids get additional
structure tests because the algorithms rely on them subtly.
"""

import dis
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dp.builder import make_tie_lift
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery
from repro.query.jointree import build_join_tree
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


def ranked_tie(base, *domains):
    tie = TieBreakingDioid(base, len(domains))
    tie.rank_domains(domains)
    return tie


class TestTieBreaking:
    def test_lift_and_key(self):
        tie = ranked_tie(TROPICAL, "ab", "xy", "ab")
        v = tie.lift(5.0, {0: "a", 2: "b"})
        # Mixed radix, slot 0 most significant: a=0, b=1 at places 4, 2, 1.
        assert v == (5.0, 0 * 4 + 1 * 1)
        assert tie.key(v) == (5.0, 1)
        assert tie.base_value(v) == 5.0

    def test_times_adds_the_ranks_of_disjoint_bindings(self):
        tie = ranked_tie(TROPICAL, [10, 11], [20, 21, 22], [30])
        a = tie.lift(1.0, {0: 11})
        b = tie.lift(2.0, {1: 22})
        assert tie.times(a, b) == (3.0, 1 * 3 + 2 * 1) == tie.lift(3.0, {0: 11, 1: 22})

    def test_ties_broken_by_bindings(self):
        tie = ranked_tie(TROPICAL, [1], [1, 2])
        a = tie.lift(1.0, {0: 1, 1: 2})
        b = tie.lift(1.0, {0: 1, 1: 1})
        assert tie.plus(a, b) == b, "equal weights break ties lexicographically"

    def test_identical_outputs_get_identical_keys(self):
        tie = ranked_tie(TROPICAL, "wx", "yz")
        # Two trees composing the same full assignment in different
        # orders must produce the same key (Section 6.3 adjacency).
        left = tie.times(tie.lift(1.0, {0: "x"}), tie.lift(2.0, {1: "y"}))
        right = tie.times(tie.lift(2.0, {1: "y"}), tie.lift(1.0, {0: "x"}))
        assert tie.key(left) == tie.key(right)

    def test_one_and_zero(self):
        tie = ranked_tie(TROPICAL, [1], [2])
        v = tie.lift(3.0, {0: 1})
        assert tie.times(v, tie.one) == v
        assert tie.one == (0.0, 0) and tie.zero == (math.inf, 0)
        assert tie.key(tie.zero)[0] == math.inf
        assert tie.is_zero(tie.zero)
        # Rank 0 is also what the least full assignment packs to.
        assert not tie.is_zero(tie.lift(math.inf, {0: 1, 1: 2}))

    def test_times_is_one_expression(self):
        # No loop, no container but the pair: ``+`` is the whole merge.
        opnames = [
            instruction.opname
            for instruction in dis.get_instructions(TieBreakingDioid.times)
        ]
        assert not {"FOR_ITER", "BUILD_LIST", "BUILD_MAP", "BUILD_SET"} & set(opnames)
        assert opnames.count("BUILD_TUPLE") == 1


@st.composite
def owned_operands(draw, count):
    """``count`` partial witnesses of one full assignment that bind
    *disjoint* slots (each variable owned once), with integer-valued
    weights: exact arithmetic, so associativity is an equality."""
    m = draw(st.integers(min_value=1, max_value=6))
    domains = [
        draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5)) for _ in range(m)
    ]
    tie = ranked_tie(TROPICAL, *domains)
    assignment = [draw(st.sampled_from(domain)) for domain in domains]
    owner = [draw(st.integers(0, count)) for _ in range(m)]  # ``count``: nobody
    operands = [
        tie.lift(
            float(draw(st.integers(-50, 50))),
            {p: assignment[p] for p in range(m) if owner[p] == part},
        )
        for part in range(count)
    ]
    return tie, operands


class TestTieBreakingAlgebra:
    """``times`` on the packed rank against Section 6.3 as written (the
    id vectors of ``tests/vector_tie.py`` are compared pipeline by
    pipeline in ``tests/test_tie_rank.py``)."""

    @given(owned_operands(2))
    def test_times_is_the_base_product_and_the_rank_sum(self, drawn):
        tie, (a, b) = drawn
        assert tie.times(a, b) == (a[0] + b[0], a[1] + b[1]) == tie.times(b, a)

    @given(owned_operands(1))
    def test_one_is_two_sided_identity(self, drawn):
        tie, (a,) = drawn
        assert tie.times(a, tie.one) == a
        assert tie.times(tie.one, a) == a
        # A bag that binds no ranked variable is folded the same way.
        blank = tie.lift(0.0, {})
        assert tie.times(a, blank) == a == tie.times(blank, a)

    @given(owned_operands(3))
    def test_associativity(self, drawn):
        tie, (a, b, c) = drawn
        assert tie.times(tie.times(a, b), c) == tie.times(a, tie.times(b, c))

    def test_base_arithmetic_survives_the_identity(self):
        # ``one`` must not be skipped: the base dioid's ``0.0 + x``
        # turns an int weight into a float and ``-0.0`` into ``0.0``.
        tie = ranked_tie(TROPICAL, [7])
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
    def test_make_tie_lift_binds_what_each_stage_owns(self, variables, ranked, rows):
        # ``variables`` may repeat (R(x, x)) and may name variables that
        # are not ranked (the UCQ pipeline ranks head variables only).
        var_position = {var: slot for slot, var in enumerate(ranked)}
        query = ConjunctiveQuery(
            None, [Atom("R", variables), Atom("S", variables[::-1])]
        )
        tree = build_join_tree(query)
        tie = TieBreakingDioid(TROPICAL, max(1, len(ranked)))
        values = [value for row, _weight in rows for value in row]
        tie.rank_domains([values] * tie.num_variables)
        lift = make_tie_lift(tie, var_position, tree)
        first, second = (query.atoms[index] for index in tree.order)
        for values, weight in rows:
            row = tuple(values[: first.arity])
            # The first stage owns every ranked variable it holds (read
            # from its first column there); the second shares them all.
            owned = {}
            for var, value in zip(first.variables, row):
                if var in var_position:
                    owned.setdefault(var_position[var], value)
            assert lift(first, row, weight) == tie.lift(weight, owned)
            assert lift(second, row[::-1], weight) == (weight, 0)
            # Alternating atoms: the column form follows the scalar one.
            for atom, stage_row in ((first, row), (second, row[::-1])):
                assert lift.column(atom, [stage_row], [weight]) == [
                    lift(atom, stage_row, weight)
                ]


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
