"""Which strip of an n-strip partition bisects a trapezoid, and for which shapes.

Choosing strip k0 of n as a party wall leaves equal shares iff k0 solves

    2(a-b) k0^2 - (4na - 2b + 2a) k0 + n^2(a+b) + 2na + a - b = 0

with a, b the widths; solve_k0 takes them in geometry's one integer form.
The discriminant is 4K, K = 2(a^2 + b^2) n^2 - (a - b)^2, so natural solutions
in 1 < k0 < n are rare: they need K to be a perfect square, the one kernel
test that wall and search share. With a = r*b, K = b^2 * kernel(r, n) where
kernel(r, n) = (2n^2 - 1)(r^2 + 1) + 2r.

The search draws its (r, n) from one of two sources. A residue sieve drops
the (r, n) whose kernel is a non-square modulo small m. The ratio band starts
from the wall instead: with u = 2(n - k0) + 1 and v = 2k0 - 1, strip k0 of n
is a wall for a ratio r >= 2 exactly when r den = num, where
den = (2n^2 - u^2 - 1)/2 and num = (2n^2 - v^2 - 1)/2. A wall's u/n lies just
below a slope that rises with r, so a window of large ratios holds its walls
in a thin wedge of lattice points (n, u), which a walk of the Stern-Brocot
tree lists. Each window takes the source with the smaller integer bound on
its work. Either way the root test has the last word on each (r, n): it
must return exactly the band's k0, and the strip oracle confirms every hit.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator

from .geometry import Rational, Trapezoid, _integer_widths, check_wall_index, check_wall_widths
from .sexagesimal import check_int, is_regular, isqrt

# A perfect square is a square residue modulo every m, so an (r, n) whose
# kernel is a non-residue modulo one of these is skipped without an isqrt.
# Each costs one C-level AND per line and at most m mask builds per block of
# values, and each survivor costs ~0.7 us of Python (walk, _integer_roots).
# Summed over the 27 windows of search_scan seeds 3-5, 43 and 47 cut the
# survivors from 7,583 to 2,221 and search_hits' time by ~10% (median of eight
# runs); adding 53 too, or 53 and 59, or putting 43 and 47 (and 53) in place
# of 11, was slower in that median. A modulus must be at most 256:
# _patterns translates through a table of 256 bytes.
SIEVE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Values sieved at once. A block builds at most sum(SIEVE_MODULI) masks of
# SIEVE_BLOCK bits (490, about 280 KB as Python ints) and drops them before the
# next, so memory grows neither with the range nor with the number of lines.
SIEVE_BLOCK = 4096
# The sieve's cost in the unit of the band's work bound, one lattice point:
# a fixed part per search plus one point per _SIEVE_CASES_PER_POINT cases.
# Measured on ~9,000 windows of random shape, in-process, each source forced
# and timed best of five: a search costs the sieve ~11 us plus 0.3-2 ns per
# case, and the band ~3 us plus up to ~0.2 us per unit of its bound where
# slopes dominate (~0.03 us along a ray such as r = 41's slope 7/5). Of the
# pairs tried, 70 and 120 gave the lowest total time among those under which
# no window that took the band ran more than ~1% slower than on the sieve.
_SIEVE_FIXED_POINTS = 70
_SIEVE_CASES_PER_POINT = 120


def _patterns(m: int) -> tuple[list[int], ...]:
    """The rows and the columns of kernel(r, n)'s square residues mod m, as ints of m bits.

    Bit j of rows[i] and bit i of columns[j] are 1 when kernel(r, n) is a square
    modulo m for r = i, n = j (mod m): row r % m is the pattern over n for the
    ratio r, column n % m the pattern over r for the strip count n.
    """
    squares = {y * y % m for y in range(m)}
    periodic = bytes(b"01"[q in squares] for q in range(m)) * (m + 1)
    n_squares = bytes([j * j % m for j in range(m)])
    rows = []
    for i in range(m):
        # kernel(r, n) = (2n^2 - 1)(r^2 + 1) + 2r = 2(r^2 + 1) n^2 - (r - 1)^2,
        # so kernel = 2(i^2 + 1) q - (i - 1)^2 with q = j^2 mod m: byte q of the
        # extended slice is the residue digit of that kernel, for q < m. A step
        # of 0 mod m is taken as m, which lands on the same residue each time.
        step, start = 2 * (i * i + 1) % m or m, -((i - 1) ** 2) % m
        by_q = periodic[start : start + step * m : step].ljust(256, b"0")
        rows.append(n_squares.translate(by_q))
    digits = b"".join(rows)
    transposed = b"".join(digits[j::m] for j in range(m))
    full = (1 << m) - 1
    # Bit k of each int is digit k of its table, so row i is bits i * m to i * m + m - 1.
    return tuple(
        [bits >> i * m & full for i in range(m)]
        for bits in (int(digits[::-1], 2), int(transposed[::-1], 2))
    )


@functools.cache
def _sieve_patterns() -> tuple[tuple[int, list[int], list[int]], ...]:
    """(m, rows, columns) for each of SIEVE_MODULI, built on the first search and kept."""
    return tuple((m, *_patterns(m)) for m in SIEVE_MODULI)


class SearchHit(namedtuple("SearchHit", "r n k0 n_regular")):
    """An admissible triple: width ratio r, strip count n, wall index k0."""

    __slots__ = ()


def _integer_quadratic(a: int, b: int, n: int) -> tuple[int, int, int]:
    """(lead, linear, constant) of the wall quadratic for integer widths a > b > 0."""
    return 2 * (a - b), -(4 * n * a - 2 * b + 2 * a), n * n * (a + b) + 2 * n * a + a - b


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


def _integer_roots(a: int, b: int, n: int) -> list[int]:
    """The wall indices strictly between 1 and n for integer widths a > b > 0.

    The discriminant is 4K with K = 2(a^2 + b^2) n^2 - (a - b)^2 > 0, so there
    is no root unless K is a perfect square: the one kernel test, and the only
    work done on any other K. On a square K the quadratic formula finds the
    roots from its own discriminant and isqrt, and the closed form
    ((2n + 1) a - b -+ sqrt(K)) / 2(a - b) divides them again. It must give no
    index that the formula missed: an explicit raise, not an assert, so that
    python -O keeps the check.
    """
    kern = 2 * (a * a + b * b) * n * n - (a - b) ** 2
    half = math.isqrt(kern)
    if half * half != kern:
        return []
    lead, linear, constant = _integer_quadratic(a, b, n)
    root, perfect = isqrt(linear * linear - 4 * lead * constant)
    found = _roots_between(-linear, root, 2 * lead, n) if perfect else []
    base = (2 * n + 1) * a - b
    for numerator in (base - half, base + half):
        k0, rem = divmod(numerator, 2 * (a - b))
        if rem == 0 and 1 < k0 < n and k0 not in found:
            raise AssertionError(f"root {k0} lost at a={a}, b={b}, n={n}")
    return found


def solve_k0(upper: Rational, lower: Rational, n: int) -> list[int]:
    """All integer wall indices strictly between 1 and n solving the quadratic.

    Works for arbitrary rational widths: every coefficient is linear in the
    widths, so widths A/D and B/D (geometry's integer form) have the roots of
    widths A and B, and _integer_roots extracts them with no floating point
    anywhere. A non-square kernel ends the call before the quadratic formula.
    """
    a, b = check_wall_widths(upper, lower)
    check_int(n, "strip count", 3)
    big, small, _ = _integer_widths(a, b)
    return _integer_roots(big, small, n)


def verify_split(trap: Trapezoid, n: int, k0: int) -> bool:
    """Brute-force oracle: sum the strip areas on each side of strip k0 and compare.

    Deliberately independent of the quadratic and of the closed-form strip
    areas; it walks the transversal widths w[0..n] strip by strip in integers.
    With the widths in geometry's integer form A/D and B/D, n D w[i] is the
    integer (n - i) A + i B. Strip i has area (w[i-1] + w[i]) * height / 2n,
    and the factor height / 2n is common, so equal areas mean equal sums of w[i-1] + w[i].
    Within a side each inner width bounds two strips and is counted twice: the
    walk sums it once and doubles it, and adds the side's two outer widths once.
    """
    check_wall_index(trap, n, k0)
    upper, lower, _ = _integer_widths(trap.upper, trap.lower)
    # width[i] = n * D * w[i] for i = 0..n; strip i spans width[i - 1] to width[i].
    width = range(n * upper, n * lower + lower - upper, lower - upper)
    left = width[0] + 2 * sum(width[1 : k0 - 1]) + width[k0 - 1]
    right = width[k0] + 2 * sum(width[k0 + 1 : n]) + width[n]
    return left == right


def _candidates(r_lo: int, r_hi: int, n_lo: int, n_hi: int) -> Iterator[tuple[int, int]]:
    """Every (r, n) of the window whose kernel is a square residue modulo all SIEVE_MODULI.

    The sieve runs along the longer side of the window, in blocks of SIEVE_BLOCK
    values; the lines across it are the values of the shorter side. A line's
    mask for modulus m has bit i set when value start + i passes modulo m, and
    ANDing the masks leaves the survivors. The mask for m depends only on the
    line modulo m, so each block builds the masks of its first min(m, lines)
    lines from their pattern ints in _sieve_patterns(), one multiply and one
    shift each, and cycles that list over the rest. The masks are ANDed per
    line in C through a chain of maps; only the survivor walk is a Python
    loop. Blocks are the outer loop, so the candidates do not come in (r, n) order.
    """
    along_n = n_hi - n_lo >= r_hi - r_lo
    if along_n:
        lo, hi, lines = n_lo, n_hi, range(r_lo, r_hi + 1)
    else:
        lo, hi, lines = r_lo, r_hi, range(n_lo, n_hi + 1)
    # A pattern of m bits times repeat is the pattern tiled over more than
    # length + m bits, so it still covers a block after a shift by offset < m.
    length = min(SIEVE_BLOCK, hi - lo + 1)
    sieves = []
    for m, rows, columns in _sieve_patterns():
        repeat = ((1 << m * (length // m + 2)) - 1) // ((1 << m) - 1)
        sieves.append((m, rows if along_n else columns, repeat))
    for start in range(lo, hi + 1, SIEVE_BLOCK):
        # The first AND drops the bits past the block's end. Every input of the
        # chain is endless and zip stops it with the lines, so the chain makes
        # one combined mask per line and holds no more than one at a time.
        masks = itertools.repeat((1 << min(SIEVE_BLOCK, hi + 1 - start)) - 1)
        for m, patterns, repeat in sieves:
            built = [patterns[line % m] * repeat >> start % m for line in lines[:m]]
            # Line residues repeat with period m, so cycling the list tiles the
            # lines without a reference per line.
            masks = map(operator.and_, masks, itertools.cycle(built))
        for line, mask in zip(lines, masks):
            while mask:
                top = mask.bit_length() - 1
                mask ^= 1 << top
                at = start + top
                yield (line, at) if along_n else (at, line)


def _wedge(r_lo: int, r_hi: int, n_lo: int, n_hi: int) -> tuple[int, int, int]:
    """(lo, hi, scale) with lo <= scale * u / n <= hi for every wall of the window.

    A wall's u solves (r - 1) u^2 + 4nu - 2(r + 1) n^2 + (r - 1) = 0, so
    u = (sqrt(K) - 2n) / (r - 1), and n s(r) - u = (r - 1) / (n sqrt(D) + sqrt(K))
    with D = 2(r^2 + 1) and s(r) = 2(r + 1) / (sqrt(D) + 2). s rises with r, and
    u/n falls short of it by less than 1 / (sqrt(2) n^2), so u/n lies in
    [s(r_lo) - 1/n_lo^2, s(r_hi)]. Both ends are rounded outward to integers
    over scale = 2^B, which widens the wedge by less than 1/50 of 1/n_hi^2.
    """
    scale = 1 << 2 * n_hi.bit_length() + 8
    # isqrt(D scale^2) <= scale sqrt(D) < isqrt(D scale^2) + 1.
    root_hi = math.isqrt(2 * (r_hi * r_hi + 1) * scale * scale)
    root_lo = math.isqrt(2 * (r_lo * r_lo + 1) * scale * scale) + 1
    # Rounded outward: hi up, s(r_lo) down and the margin 1/n_lo^2 up.
    hi = -(-2 * (r_hi + 1) * scale * scale // (root_hi + 2 * scale))
    lo = 2 * (r_lo + 1) * scale * scale // (root_lo + 2 * scale) + -scale // (n_lo * n_lo)
    return lo, hi, scale


def _slopes(lo: int, hi: int, scale: int, q_max: int) -> Iterator[tuple[int, int]]:
    """Every reduced p/q with 0 < lo <= scale * p / q <= hi and q <= q_max, the simplest first.

    A walk of the Stern-Brocot tree: each node p/q is the mediant of its bounds
    a/b < p/q < c/d, and every fraction strictly between them descends from it.
    So the first node inside the interval is its simplest fraction, and every
    other one descends from it. A run of steps in one direction is one batched
    descent: from a mediant below lo the walk takes the least k with
    (a + kc)/(b + kd) at or above lo in one division, and likewise from a
    mediant above hi.
    """
    stack = [(0, 1, 1, 0)]
    while stack:
        a, b, c, d = stack.pop()
        while b + d <= q_max:
            p, q = a + c, b + d
            if p * scale < lo * q:
                k = -((a * scale - lo * b) // (c * scale - lo * d))
                a, b = a + (k - 1) * c, b + (k - 1) * d
            elif p * scale > hi * q:
                k = -((hi * d - c * scale) // (hi * b - a * scale))
                c, d = c + (k - 1) * a, d + (k - 1) * b
            else:
                yield p, q
                # A node on an end of the interval has nothing inside beyond it.
                if p * scale < hi * q:
                    stack.append((p, q, c, d))
                if p * scale > lo * q:
                    stack.append((a, b, p, q))
                break


def _band(r_lo: int, r_hi: int, n_lo: int, n_hi: int) -> tuple[int, Iterator[tuple[int, int]]]:
    """A bound on the number of the band's lattice points, and the points (n, u) themselves.

    Each wall's (n, u) is m (q, p) for a reduced slope p/q of the wedge (_wedge)
    with q <= n_hi and n_lo <= m q <= n_hi. Fractions of denominator at most
    n_hi differ by at least 1/n_hi^2, so a wedge of width w holds at most
    1 + w n_hi^2 of them. None has a smaller denominator than the simplest,
    q_min, so each has at most (n_hi - n_lo) // q_min + 1 multiples in range.
    """
    lo, hi, scale = _wedge(r_lo, r_hi, n_lo, n_hi)
    slopes = _slopes(lo, hi, scale, n_hi)
    simplest = next(slopes, None)
    if simplest is None:
        return 0, iter(())
    bound = (1 + (hi - lo) * n_hi * n_hi // scale) * ((n_hi - n_lo) // simplest[1] + 1)
    points = (
        (m * q, m * p)
        for p, q in itertools.chain([simplest], slopes)
        for m in range(-(-n_lo // q), n_hi // q + 1)
    )
    return bound, points


def _band_roots(
    points: Iterator[tuple[int, int]], r_lo: int, r_hi: int
) -> Iterator[tuple[int, int, list[int]]]:
    """(r, n, [k0]) for each point (n, u) that is a wall for a ratio r_lo <= r <= r_hi.

    The identity r den = num shares no code with the quadratic, so the root
    test must return exactly [k0] at (r, 1, n): an explicit raise, not an
    assert, so that python -O keeps the check.
    """
    for n, u in points:
        v = 2 * n - u
        if not u & 1 or u < 3 or v < 3:
            continue
        den = (2 * n * n - u * u - 1) >> 1
        if den <= 0:
            continue
        r, rem = divmod((2 * n * n - v * v - 1) >> 1, den)
        if rem or not r_lo <= r <= r_hi:
            continue
        k0 = (v + 1) >> 1
        found = _integer_roots(r, 1, n)
        if found != [k0]:
            raise AssertionError(f"band gives k0={k0} at r={r}, n={n}, the root test {found}")
        yield r, n, found


def search_hits(
    r_lo: int, r_hi: int, n_lo: int, n_hi: int, regular_only: bool = False
) -> list[SearchHit]:
    """Scan integer ratios r and strip counts n for admissible wall indices.

    The cases come from the ratio band when its bound on lattice points is
    below the sieve's estimate in the same unit (a fixed part plus one point
    per _SIEVE_CASES_PER_POINT cases), and from the residue sieve otherwise.
    Hits are emitted in (r, n, k0) lexicographic order. With regular_only,
    only configurations a sexagesimal scribe could use exactly are kept:
    both the ratio and the strip count must be regular numbers.
    """
    check_int(r_lo, "r_lo", 2)
    check_int(r_hi, "r_hi", r_lo)
    check_int(n_lo, "n_lo", 3)
    check_int(n_hi, "n_hi", n_lo)

    bound, points = _band(r_lo, r_hi, n_lo, n_hi)
    cases = (r_hi - r_lo + 1) * (n_hi - n_lo + 1)
    if bound < _SIEVE_FIXED_POINTS + cases // _SIEVE_CASES_PER_POINT:
        found_at = _band_roots(points, r_lo, r_hi)
    else:
        # The window is checked above, so widths r > 1 need no validation here.
        found_at = ((r, n, _integer_roots(r, 1, n)) for r, n in _candidates(r_lo, r_hi, n_lo, n_hi))
    hits = []
    for r, n, found in found_at:
        if not found:
            continue
        n_reg = is_regular(n) is not None
        if regular_only and not (n_reg and is_regular(r) is not None):
            continue
        for k0 in found:
            # An explicit raise, not an assert, so that python -O keeps the check.
            if not verify_split(Trapezoid(r, 1, 1), n, k0):
                raise AssertionError(f"oracle rejects r={r}, n={n}, k0={k0}")
            hits.append(SearchHit(r=r, n=n, k0=k0, n_regular=n_reg))
    # The sieve yields block by block, and along r in (n, r) order, the band
    # slope by slope: sorting the hits as tuples restores (r, n, k0) order.
    hits.sort()
    return hits
