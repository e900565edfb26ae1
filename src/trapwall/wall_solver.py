"""Which strip of an n-strip partition bisects a trapezoid, and for which shapes.

Choosing strip k0 of n as a party wall leaves equal shares iff k0 solves

    2(a-b) k0^2 - (4na - 2b + 2a) k0 + n^2(a+b) + 2na + a - b = 0

with a, b the widths; solve_k0 clears it to integers. Natural solutions in
1 < k0 < n are rare: they need the discriminant to be a perfect square. With
a = r*b it is 4 b^2 * kernel(r, n), kernel(r, n) = (2n^2 - 1)(r^2 + 1) + 2r,
so the search scans kernel values for perfect squares. A residue sieve first
drops the (r, n) whose kernel is a non-square modulo small m.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator

from .geometry import Rational, Trapezoid, check_wall_index, check_wall_widths
from .sexagesimal import check_int, is_regular, isqrt

# A perfect square is a square residue modulo every m, so an (r, n) whose
# kernel is a non-residue modulo one of these is skipped without an isqrt.
# Each costs one C-level AND per line and at most m mask builds per block of
# values, and each survivor costs ~0.3-0.5 us of Python (walk, kernel, isqrt).
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

    The discriminant is 4K with K = 2(a^2 + b^2) n^2 - (a - b)^2 > 0, so the
    roots are a perfect-square test plus divisibility. The closed form
    ((2n + 1) a - b -+ sqrt(K)) / 2(a - b) then divides the same roots with its
    own isqrt and divmod, and must give no index that the formula missed:
    an explicit raise, not an assert, so that python -O keeps the check.
    """
    lead, linear, constant = _integer_quadratic(a, b, n)
    root, perfect = isqrt(linear * linear - 4 * lead * constant)
    found = _roots_between(-linear, root, 2 * lead, n) if perfect else []
    kern = 2 * (a * a + b * b) * n * n - (a - b) ** 2
    half = math.isqrt(kern)
    if half * half == kern:
        base = (2 * n + 1) * a - b
        for numerator in (base - half, base + half):
            k0, rem = divmod(numerator, 2 * (a - b))
            if rem == 0 and 1 < k0 < n and k0 not in found:
                raise AssertionError(f"root {k0} lost at a={a}, b={b}, n={n}")
    return found


def solve_k0(upper: Rational, lower: Rational, n: int) -> list[int]:
    """All integer wall indices strictly between 1 and n solving the quadratic.

    Works for arbitrary rational widths: every coefficient is linear in the
    widths, so clearing the widths' denominators by one lcm clears the
    quadratic to integers, and _integer_roots extracts the roots with no
    floating point anywhere.
    """
    a, b = check_wall_widths(upper, lower)
    check_int(n, "strip count", 3)
    scale = math.lcm(a.denominator, b.denominator)
    return _integer_roots(
        a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator), n
    )


def verify_split(trap: Trapezoid, n: int, k0: int) -> bool:
    """Brute-force oracle: sum the strip areas on each side of strip k0 and compare.

    Deliberately independent of the quadratic and of the closed-form strip
    areas; it walks the transversal widths w[0..n] strip by strip in integers.
    With the widths' denominators cleared by one lcm, n times w[i] is the
    integer (n - i) * upper + i * lower. Strip i has area (w[i-1] + w[i]) * height / 2n,
    and the factor height / 2n is common, so equal areas mean equal sums of w[i-1] + w[i].
    Within a side each inner width bounds two strips and is counted twice: the
    walk sums it once and doubles it, and adds the side's two outer widths once.
    """
    check_wall_index(trap, n, k0)
    scale = math.lcm(trap.upper.denominator, trap.lower.denominator)
    upper = trap.upper.numerator * (scale // trap.upper.denominator)
    lower = trap.lower.numerator * (scale // trap.lower.denominator)
    # width[i] = n * scale * w[i] for i = 0..n; strip i spans width[i - 1] to width[i].
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


def search_hits(
    r_lo: int, r_hi: int, n_lo: int, n_hi: int, regular_only: bool = False
) -> list[SearchHit]:
    """Scan integer ratios r and strip counts n for admissible wall indices.

    Hits are emitted in (r, n, k0) lexicographic order. With regular_only,
    only configurations a sexagesimal scribe could use exactly are kept:
    both the ratio and the strip count must be regular numbers.
    """
    check_int(r_lo, "r_lo", 2)
    check_int(r_hi, "r_hi", r_lo)
    check_int(n_lo, "n_lo", 3)
    check_int(n_hi, "n_hi", n_lo)

    hits = []
    for r, n in _candidates(r_lo, r_hi, n_lo, n_hi):
        kern = (2 * n * n - 1) * (r * r + 1) + 2 * r
        # Inline, not sexagesimal.isqrt: this runs once per sieve survivor.
        root = math.isqrt(kern)
        if root * root != kern:
            continue
        # The window is checked above, so widths r > 1 need no validation here.
        found = _integer_roots(r, 1, n)
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
    # The sieve yields block by block, and along r in (n, r) order: sorting the
    # hits as tuples restores (r, n, k0) order.
    hits.sort()
    return hits
