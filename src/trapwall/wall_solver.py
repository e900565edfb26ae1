"""Which strip of an n-strip partition bisects a trapezoid, and for which shapes.

Choosing strip k0 of n as a party wall leaves equal shares iff k0 solves

    2(a-b) k0^2 - (4na - 2b + 2a) k0 + n^2(a+b) + 2na + a - b = 0

with a, b the widths. Natural solutions in 1 < k0 < n are rare: they need the
discriminant to be a perfect square. With a = r*b the discriminant reduces to
4 b^2 * kernel(r, n), kernel(r, n) = (2n^2 - 1)(r^2 + 1) + 2r, so the search
over integer ratios scans kernel values for perfect squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, IrrationalRootsError
from .geometry import Rational, Trapezoid, check_wall_index, check_widths, transversal_at
from .sexagesimal import check_int, exact_fraction, is_regular


@dataclass(frozen=True)
class WallQuadratic:
    """Exact coefficients of lead*k^2 + linear*k + constant = 0."""

    lead: Fraction
    linear: Fraction
    constant: Fraction

    def evaluate(self, k: Rational) -> Fraction:
        k = Fraction(k)
        return self.lead * k * k + self.linear * k + self.constant


@dataclass(frozen=True)
class SearchHit:
    """An admissible triple: width ratio r, strip count n, wall index k0."""

    r: int
    n: int
    k0: int
    n_regular: bool


def wall_quadratic(upper: Rational, lower: Rational, n: int) -> WallQuadratic:
    """The quadratic in the wall index for a trapezoid cut into n strips."""
    a, b = check_widths(upper, lower)
    if a == b:
        raise DomainError("wall problems need upper > lower > 0")
    check_int(n, "strip count", 3)
    return WallQuadratic(
        lead=2 * (a - b),
        linear=-(4 * n * a - 2 * b + 2 * a),
        constant=n * n * (a + b) + 2 * n * a + a - b,
    )


def discriminant(upper: Rational, lower: Rational, n: int) -> Fraction:
    """Discriminant 4(2n^2-1)(a^2 + b^2) + 8ab of the wall quadratic; always positive."""
    a = exact_fraction(upper, "upper width")
    b = exact_fraction(lower, "lower width")
    if a <= 0 or b <= 0:
        raise DomainError("widths must be positive")
    check_int(n, "strip count", 2)
    return 4 * (2 * n * n - 1) * (a * a + b * b) + 8 * a * b


def discriminant_kernel(r: int, n: int) -> int:
    """(2n^2 - 1)(r^2 + 1) + 2r; the discriminant at a = r*b is 4 b^2 times this."""
    check_int(r, "ratio", 2)
    check_int(n, "strip count", 3)
    return (2 * n * n - 1) * (r * r + 1) + 2 * r


def k0_closed_form(r: int, n: int) -> tuple[Fraction, Fraction]:
    """Both roots ((2n+1)r - 1 -+ sqrt(kernel)) / (2(r-1)), ascending.

    Raises IrrationalRootsError when the kernel is not a perfect square.
    """
    kern = discriminant_kernel(r, n)
    root = math.isqrt(kern)
    if root * root != kern:
        raise IrrationalRootsError(f"kernel {kern} is not a perfect square")
    base = (2 * n + 1) * r - 1
    den = 2 * (r - 1)
    return Fraction(base - root, den), Fraction(base + root, den)


def _roots_between(neg_linear: int, root: int, den: int, n: int) -> list[int]:
    """The integers among (neg_linear -+ root) / den strictly between 1 and n.

    Callers pass root > 0 and den > 0, so the roots come out distinct and ascending.
    """
    found = []
    for numerator in (neg_linear - root, neg_linear + root):
        quotient, rem = divmod(numerator, den)
        if rem == 0 and 1 < quotient < n:
            found.append(quotient)
    return found


def solve_k0(upper: Rational, lower: Rational, n: int) -> list[int]:
    """All integer wall indices strictly between 1 and n solving the quadratic.

    Works for arbitrary rational widths: the quadratic is cleared to integer
    coefficients and integer roots are extracted by a perfect-square
    discriminant test plus divisibility, with no floating point anywhere.
    """
    quad = wall_quadratic(upper, lower, n)
    scale = math.lcm(
        quad.lead.denominator, quad.linear.denominator, quad.constant.denominator
    )
    lead = int(quad.lead * scale)
    linear = int(quad.linear * scale)
    constant = int(quad.constant * scale)
    # Positive: wall_quadratic has checked upper > lower > 0 (see discriminant).
    disc = linear * linear - 4 * lead * constant
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    return _roots_between(-linear, root, 2 * lead, n)


def verify_split(trap: Trapezoid, n: int, k0: int) -> bool:
    """Brute-force oracle: sum the strip areas on each side of strip k0 and compare.

    Deliberately independent of the quadratic and of the closed-form strip
    areas; uses only the transversal widths and elementary trapezoid areas.
    """
    check_wall_index(trap, n, k0)

    def strip(i: int) -> Fraction:
        widths = transversal_at(trap, i - 1, n) + transversal_at(trap, i, n)
        return widths / 2 * trap.height / n

    left = sum(strip(i) for i in range(1, k0))
    right = sum(strip(i) for i in range(k0 + 1, n + 1))
    return left == right


def search_hits(
    r_lo: int, r_hi: int, n_lo: int, n_hi: int, regular_only: bool = False
) -> list[SearchHit]:
    """Scan integer ratios r and strip counts n for admissible wall indices.

    Hits are emitted in (r, n, k0) lexicographic order. With regular_only,
    only configurations a sexagesimal scribe could use exactly are kept:
    both the ratio and the strip count must be regular numbers.
    """
    for name, value in (("r_lo", r_lo), ("r_hi", r_hi), ("n_lo", n_lo), ("n_hi", n_hi)):
        if not isinstance(value, int):
            raise DomainError(f"{name} must be an integer")
    if not 2 <= r_lo <= r_hi:
        raise DomainError("need 2 <= r_lo <= r_hi")
    if not 3 <= n_lo <= n_hi:
        raise DomainError("need 3 <= n_lo <= n_hi")

    hits = []
    for r in range(r_lo, r_hi + 1):
        for n in range(n_lo, n_hi + 1):
            kern = (2 * n * n - 1) * (r * r + 1) + 2 * r
            root = math.isqrt(kern)
            if root * root != kern:
                continue
            found = solve_k0(r, 1, n)
            # Every closed-form root that is an integer in (1, n) must be found.
            # Explicit raises, not asserts, so that python -O keeps the checks.
            for candidate in k0_closed_form(r, n):
                if candidate.denominator == 1 and 1 < candidate < n and candidate not in found:
                    raise AssertionError(f"root {candidate} lost at r={r}, n={n}")
            if not found:
                continue
            n_reg = is_regular(n) is not None
            if regular_only and not (n_reg and is_regular(r) is not None):
                continue
            for k0 in found:
                if not verify_split(Trapezoid(r, 1, 1), n, k0):
                    raise AssertionError(f"oracle rejects r={r}, n={n}, k0={k0}")
                hits.append(SearchHit(r=r, n=n, k0=k0, n_regular=n_reg))
    return hits
