"""Closed-form bisector lengths and strip areas for trapezoids, all exact.

Lengths that are generally irrational (the bisector and the transversal
below a prescribed area) are carried as QuadraticLength: the exact square
plus the exact root when the square happens to be a perfect rational square.
Nothing in this module is ever approximated; truncation to base-60 digits is
the caller's business.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .errors import DomainError
from .sexagesimal import Rational, exact_fraction, isqrt


def check_widths(upper: Rational, lower: Rational) -> tuple[Fraction, Fraction]:
    """Both widths as Fractions, refused unless upper >= lower > 0."""
    a = exact_fraction(upper, "upper width")
    b = exact_fraction(lower, "lower width")
    if not a >= b > 0:
        raise DomainError("widths must satisfy upper >= lower > 0")
    return a, b


def check_wall_widths(upper: Rational, lower: Rational) -> tuple[Fraction, Fraction]:
    """Both widths as Fractions, refused unless upper > lower > 0, as a party wall needs."""
    a, b = check_widths(upper, lower)
    if a == b:
        raise DomainError("wall problems need upper > lower > 0")
    return a, b


def _index_pair(k: int, n: int) -> None:
    if not isinstance(k, int) or not isinstance(n, int):
        raise DomainError("strip indices must be integers")
    if n < 1 or not 0 <= k <= n:
        raise DomainError(f"need n >= 1 and 0 <= k <= n, got k={k}, n={n}")


class Trapezoid(namedtuple("Trapezoid", "upper lower height")):
    """Widths and height of a trapezoid: upper >= lower > 0, height > 0."""

    __slots__ = ()

    def __new__(cls, upper: Rational, lower: Rational, height: Rational) -> "Trapezoid":
        upper, lower = check_widths(upper, lower)
        height = exact_fraction(height, "height")
        if height <= 0:
            raise DomainError("height must be positive")
        return super().__new__(cls, upper, lower, height)

    @classmethod
    def _make(cls, iterable: Iterable[Rational]) -> "Trapezoid":
        # namedtuple's own _make, which _replace calls, skips __new__'s checks.
        return cls(*iterable)


class QuadraticLength(namedtuple("QuadraticLength", "value_sq exact_root")):
    """A length stored exactly as its square, with the root when rational."""

    __slots__ = ()

    @classmethod
    def from_square(cls, value_sq: Fraction) -> "QuadraticLength":
        if value_sq < 0:
            raise DomainError("squared length cannot be negative")
        num_root, num_ok = isqrt(value_sq.numerator)
        den_root, den_ok = isqrt(value_sq.denominator)
        root = Fraction(num_root, den_root) if num_ok and den_ok else None
        return cls(value_sq, root)


def check_wall_index(trap: Trapezoid, n: int, k0: int) -> None:
    """Refuse strip k0 of n as a party wall unless upper > lower and 1 < k0 < n."""
    check_wall_widths(trap.upper, trap.lower)
    if not isinstance(n, int) or not isinstance(k0, int) or not 1 < k0 < n:
        raise DomainError(f"need integers with 1 < k0 < n, got k0={k0}, n={n}")


def area(trap: Trapezoid) -> Fraction:
    """Exact area height * (upper + lower) / 2."""
    return trap.height * (trap.upper + trap.lower) / 2


def transversal_bisector(upper: Rational, lower: Rational) -> QuadraticLength:
    """Length of the transversal splitting the trapezoid into equal areas.

    Its square is (upper^2 + lower^2) / 2, independent of the height.
    """
    a, b = check_widths(upper, lower)
    return QuadraticLength.from_square((a * a + b * b) / 2)


def _integer_widths(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """Integers A, B and D with a = A/D and b = B/D: the one integer form of two widths."""
    return a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator


def transversal_at(trap: Trapezoid, k: int, n: int) -> Fraction:
    """Width of the k-th of n equally spaced transversals, ((n-k) a + k b) / n.

    Like the two strip areas below, it is one exact quotient of integers.
    """
    _index_pair(k, n)
    big, small, den = _integer_widths(trap.upper, trap.lower)
    return Fraction((n - k) * big + k * small, n * den)


def cumulative_area(trap: Trapezoid, k: int, n: int) -> Fraction:
    """Total area of the first k of n equal-height strips (from the wide end).

    h k ((2n-k) a + k b) / (2n^2), as one exact quotient of integers.
    """
    _index_pair(k, n)
    big, small, den = _integer_widths(trap.upper, trap.lower)
    h = trap.height
    cut = k * ((2 * n - k) * big + k * small)
    return Fraction(h.numerator * cut, 2 * n * n * den * h.denominator)


def complement_area(trap: Trapezoid, k: int, n: int) -> Fraction:
    """Area right of the k-th of n transversals, to the narrow end.

    h (n^2 (a+b) - k ((2n-k) a + k b)) / (2n^2), as one exact quotient of
    integers. Its term k ((2n-k) a + k b) is cumulative_area's: S + S' checks
    the factors around it and that the two copies agree, not the term itself,
    which the tests check against brute-force and interpolated references.
    """
    _index_pair(k, n)
    big, small, den = _integer_widths(trap.upper, trap.lower)
    h = trap.height
    cut = k * ((2 * n - k) * big + k * small)
    return Fraction(h.numerator * (n * n * (big + small) - cut), 2 * n * n * den * h.denominator)


def transversal_given_upper_area(trap: Trapezoid, upper_area: Rational) -> QuadraticLength:
    """Transversal width cutting off a prescribed area next to the wide end.

    d^2 = upper^2 - 2 (upper - lower) * upper_area / height.
    """
    s1 = exact_fraction(upper_area, "upper area")
    if not 0 <= s1 <= area(trap):
        raise DomainError("prescribed area must lie within [0, area]")
    d_sq = trap.upper**2 - 2 * (trap.upper - trap.lower) * s1 / trap.height
    return QuadraticLength.from_square(d_sq)
