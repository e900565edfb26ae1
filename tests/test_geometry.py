"""Tests for the exact bisector formulas and strip areas."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapwall.errors import DomainError
from trapwall.geometry import (
    QuadraticLength,
    Trapezoid,
    area,
    complement_area,
    cumulative_area,
    transversal_at,
    transversal_bisector,
    transversal_given_upper_area,
)

SMT26 = Trapezoid(Fraction(5, 3), Fraction(1, 3), 1)

positive = st.fractions(min_value=Fraction(1, 60), max_value=100, max_denominator=60)


@st.composite
def trapezoids(draw):
    lower = draw(positive)
    upper = lower + draw(st.fractions(min_value=0, max_value=100, max_denominator=60))
    height = draw(positive)
    return Trapezoid(upper, lower, height)


def brute_cumulative(trap, k, n):
    total = Fraction(0)
    for i in range(1, k + 1):
        widths = transversal_at(trap, i - 1, n) + transversal_at(trap, i, n)
        total += widths / 2 * trap.height / n
    return total


# The interpolation formulas the library used before each strip value became
# one integer quotient, kept as references that share no formula with it.
def interpolated_transversal(trap, k, n):
    t = Fraction(k, n)
    return (1 - t) * trap.upper + t * trap.lower


def interpolated_cumulative(trap, k, n):
    t = Fraction(k, n)
    return (t * trap.height / 2) * ((2 - t) * trap.upper + t * trap.lower)


def interpolated_complement(trap, k, n):
    return area(trap) - interpolated_cumulative(trap, k, n)


def test_quadratic_length_from_square():
    result = QuadraticLength.from_square(Fraction(49, 9))
    assert result.exact_root == Fraction(7, 3)
    assert QuadraticLength.from_square(Fraction(2)).exact_root is None
    with pytest.raises(DomainError):
        QuadraticLength.from_square(Fraction(-1))


def test_trapezoid_invariants():
    with pytest.raises(DomainError):
        Trapezoid(1, 2, 1)
    with pytest.raises(DomainError):
        Trapezoid(1, 0, 1)
    with pytest.raises(DomainError):
        Trapezoid(2, 1, 0)
    with pytest.raises(DomainError):
        Trapezoid(0.5, 0.25, 1)  # floats are not exact


def test_area_examples():
    assert area(SMT26) == 1
    assert area(Trapezoid(1, 1, 1)) == 1
    assert area(Trapezoid(130, 30, 225)) == 18000


def test_transversal_bisector_examples():
    assert transversal_bisector(35, 5).exact_root == 25
    assert transversal_bisector(7, 7).exact_root == 7
    result = transversal_bisector(Fraction(5, 3), Fraction(1, 3))
    assert result.value_sq == Fraction(13, 9) and result.exact_root is None
    with pytest.raises(DomainError):
        transversal_bisector(1, 2)
    with pytest.raises(DomainError):
        transversal_bisector(1, 0)


def test_transversal_at_examples():
    assert transversal_at(SMT26, 3, 10) == Fraction(19, 15)
    assert transversal_at(SMT26, 0, 10) == SMT26.upper
    assert transversal_at(SMT26, 10, 10) == SMT26.lower
    assert transversal_at(SMT26, 7, 20) == Fraction(6, 5)
    with pytest.raises(DomainError):
        transversal_at(SMT26, 11, 10)
    with pytest.raises(DomainError):
        transversal_at(SMT26, -1, 10)
    with pytest.raises(DomainError):
        transversal_at(SMT26, 1, 0)


def test_cumulative_area_examples():
    assert cumulative_area(SMT26, 10, 10) == area(SMT26)
    assert cumulative_area(SMT26, 3, 10) == Fraction(11, 25)
    assert cumulative_area(SMT26, 4, 10) == Fraction(14, 25)
    assert cumulative_area(SMT26, 0, 10) == 0


def test_complement_area_examples():
    assert complement_area(SMT26, 0, 10) == area(SMT26)
    assert complement_area(SMT26, 4, 10) == Fraction(11, 25)
    assert complement_area(SMT26, 10, 10) == 0


def test_transversal_given_upper_area_examples():
    trap = Trapezoid(130, 30, 225)
    assert transversal_given_upper_area(trap, 16200).exact_root == 50
    assert transversal_given_upper_area(trap, 0).exact_root == trap.upper
    assert transversal_given_upper_area(trap, area(trap)).exact_root == trap.lower
    with pytest.raises(DomainError):
        transversal_given_upper_area(trap, -1)
    with pytest.raises(DomainError):
        transversal_given_upper_area(trap, area(trap) + 1)


@given(trapezoids())
@settings(max_examples=200)
def test_bisection_identity(trap):
    # Half the area prescribed from the wide end reproduces the bisector square.
    half = transversal_given_upper_area(trap, area(trap) / 2)
    bisector = transversal_bisector(trap.upper, trap.lower)
    assert half.value_sq == bisector.value_sq


def test_height_ratio_identity_at_rational_point():
    # With d rational, (a+b)/(2(b+d)) + (a+b)/(2(a+d)) = 1 exactly.
    a, b = Fraction(35), Fraction(5)
    d = transversal_bisector(a, b).exact_root
    assert d == 25
    assert (a + b) / (2 * (b + d)) + (a + b) / (2 * (a + d)) == 1


@given(trapezoids())
@settings(max_examples=200)
def test_height_ratio_identity_squared_form(trap):
    # The radical-free equivalent of the same identity: (a+b)^2 - 2ab = 2 d^2.
    a, b = trap.upper, trap.lower
    d_sq = transversal_bisector(a, b).value_sq
    assert (a + b) ** 2 - 2 * a * b == 2 * d_sq


@given(trapezoids(), st.integers(min_value=1, max_value=30))
@settings(max_examples=200)
def test_transversal_monotonicity(trap, n):
    widths = [transversal_at(trap, k, n) for k in range(n + 1)]
    if trap.upper == trap.lower:
        assert all(w == trap.upper for w in widths)
    else:
        assert all(widths[i] > widths[i + 1] for i in range(n))


def test_strip_sum_oracle_all_small_n():
    for trap in (SMT26, Trapezoid(Fraction(22, 7), Fraction(3, 11), Fraction(13, 5))):
        for n in range(1, 51):
            for k in range(n + 1):
                assert cumulative_area(trap, k, n) == brute_cumulative(trap, k, n)


@given(trapezoids(), st.integers(min_value=1, max_value=40))
@settings(max_examples=200)
def test_conservation(trap, n):
    for k in range(n + 1):
        assert cumulative_area(trap, k, n) + complement_area(trap, k, n) == area(trap)


@given(trapezoids(), st.integers(min_value=1, max_value=200))
@settings(max_examples=100)
def test_integer_quotients_match_interpolation(trap, n):
    for k in range(n + 1):
        left = cumulative_area(trap, k, n)
        right = complement_area(trap, k, n)
        assert transversal_at(trap, k, n) == interpolated_transversal(trap, k, n)
        assert left == interpolated_cumulative(trap, k, n)
        assert right == interpolated_complement(trap, k, n)
        # Two closed forms that do not subtract one from the other.
        assert left + right == area(trap)


@pytest.mark.parametrize(
    "k, n, message",
    [
        (-1, 10, "need n >= 1 and 0 <= k <= n, got k=-1, n=10"),
        (11, 10, "need n >= 1 and 0 <= k <= n, got k=11, n=10"),
        (0, 0, "need n >= 1 and 0 <= k <= n, got k=0, n=0"),
        (Fraction(1), 10, "strip indices must be integers"),
        (1.0, 10, "strip indices must be integers"),
    ],
)
@pytest.mark.parametrize("fn", [transversal_at, cumulative_area, complement_area])
def test_strip_values_refuse_bad_indices(fn, k, n, message):
    with pytest.raises(DomainError) as refused:
        fn(SMT26, k, n)
    assert str(refused.value) == message
