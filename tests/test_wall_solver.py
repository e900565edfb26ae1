"""Tests for the wall quadratic, discriminant kernel and the (r, n) search."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapwall
from trapwall.errors import DomainError
from trapwall.geometry import Trapezoid, check_widths, transversal_at
from trapwall.party_wall import plan_wall
from trapwall.sexagesimal import check_int, is_regular
from trapwall.wall_solver import (
    SIEVE_BLOCK,
    SIEVE_MODULI,
    SearchHit,
    _candidates,
    _integer_quadratic,
    _integer_roots,
    _patterns,
    _roots_between,
    _sieve_patterns,
    search_hits,
    solve_k0,
    verify_split,
)

TABLE1 = [
    (2, 37, 16),
    (3, 17, 7),
    (3, 305, 117),
    (4, 65, 24),
    (5, 10, 4),
    (6, 25, 9),
    (8, 35, 12),
    (9, 20, 7),
    (12, 11, 4),
    (13, 246, 78),
    (15, 511, 160),
    (17, 8, 3),
    (17, 505, 157),
    (18, 89, 28),
]

# The criterion-2 hits with r > 133 (README).
BEYOND_133 = [(148, 273, 81), (157, 39, 12), (172, 555, 164), (173, 314, 93), (211, 175, 52)]

widths = st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60)


def plain_scan(r_lo, r_hi, n_lo, n_hi, regular_only=False):
    """search_hits without the residue sieve: an isqrt test on every (r, n), then solve_k0."""
    hits = []
    for r in range(r_lo, r_hi + 1):
        for n in range(n_lo, n_hi + 1):
            kern = (2 * n * n - 1) * (r * r + 1) + 2 * r
            root = math.isqrt(kern)
            if root * root != kern:
                continue
            n_reg = is_regular(n) is not None
            if regular_only and not (n_reg and is_regular(r) is not None):
                continue
            hits.extend(SearchHit(r=r, n=n, k0=k0, n_regular=n_reg) for k0 in solve_k0(r, 1, n))
    return hits


def fraction_wall_quadratic(upper, lower, n):
    """The paper's wall quadratic as (lead, linear, constant) in Fractions: the tests' own copy."""
    a, b = check_widths(upper, lower)
    if a == b:
        raise DomainError("wall problems need upper > lower > 0")
    check_int(n, "strip count", 3)
    return (
        2 * (a - b),
        -(4 * n * a - 2 * b + 2 * a),
        n * n * (a + b) + 2 * n * a + a - b,
    )


def paper_discriminant(a, b, n):
    """4(2n^2 - 1)(a^2 + b^2) + 8ab, the wall quadratic's discriminant in the paper: the tests' own copy."""
    return 4 * (2 * n * n - 1) * (a * a + b * b) + 8 * a * b


def paper_kernel(r, n):
    """(2n^2 - 1)(r^2 + 1) + 2r: the discriminant at widths r*b and b over 4 b^2, the tests' own copy."""
    return (2 * n * n - 1) * (r * r + 1) + 2 * r


def paper_closed_form(r, n):
    """Both roots ((2n+1)r - 1 -+ sqrt(kernel)) / (2(r-1)), ascending: the tests' own copy.

    The kernel must be a perfect square.
    """
    root = math.isqrt(paper_kernel(r, n))
    assert root * root == paper_kernel(r, n)
    base, den = (2 * n + 1) * r - 1, 2 * (r - 1)
    return Fraction(base - root, den), Fraction(base + root, den)


def cleared_widths(upper, lower):
    """Both widths times the lcm of their denominators, as ints, and that lcm: the tests' own clearing."""
    upper, lower = Fraction(upper), Fraction(lower)
    scale = math.lcm(upper.denominator, lower.denominator)
    return int(upper * scale), int(lower * scale), scale


def cleared_discriminant(upper, lower, n):
    """linear^2 - 4 lead constant of the solver's integer quadratic at the cleared widths."""
    a, b, _ = cleared_widths(upper, lower)
    lead, linear, constant = _integer_quadratic(a, b, n)
    return linear * linear - 4 * lead * constant


def evaluate(quad, k):
    """lead * k^2 + linear * k + constant for a (lead, linear, constant) tuple."""
    lead, linear, constant = quad
    return lead * k * k + linear * k + constant


def fraction_solve_k0(upper, lower, n):
    """The solver that integer coefficients replaced: the Fraction quadratic, cleared by one lcm."""
    quad = fraction_wall_quadratic(upper, lower, n)
    scale = math.lcm(*(coefficient.denominator for coefficient in quad))
    lead, linear, constant = (int(coefficient * scale) for coefficient in quad)
    disc = linear * linear - 4 * lead * constant
    root = math.isqrt(disc)
    if root * root != disc:
        return []
    return _roots_between(-linear, root, 2 * lead, n)


def sieve_by_definition(r_lo, r_hi, n_lo, n_hi):
    """The window's (r, n), in (r, n) order, whose kernel is a square modulo every sieve modulus."""
    squares = [(m, {y * y % m for y in range(m)}) for m in SIEVE_MODULI]
    return [
        (r, n)
        for r in range(r_lo, r_hi + 1)
        for n in range(n_lo, n_hi + 1)
        for kernel in [(2 * n * n - 1) * (r * r + 1) + 2 * r]
        if all(kernel % m in residues for m, residues in squares)
    ]


def fraction_verify_split(trap, n, k0):
    """The Fraction strip-area oracle that verify_split's integer walk replaced."""

    def strip(i):
        widths = transversal_at(trap, i - 1, n) + transversal_at(trap, i, n)
        return widths / 2 * trap.height / n

    left = sum(strip(i) for i in range(1, k0))
    right = sum(strip(i) for i in range(k0 + 1, n + 1))
    return left == right


def test_wall_quadratic_coefficients():
    # Integer widths need no clearing: the scale is 1.
    assert cleared_widths(5, 1) == (5, 1, 1)
    assert _integer_quadratic(5, 1, 10) == (8, -208, 704)
    quad = fraction_wall_quadratic(5, 1, 10)
    assert evaluate(quad, 4) == 0 and evaluate(quad, 22) == 0
    assert _integer_quadratic(17, 1, 8) == (32, -576, 1440)
    quad = fraction_wall_quadratic(17, 1, 8)
    assert evaluate(quad, 3) == 0 and evaluate(quad, 15) == 0
    # SMT 26's widths 1;40 and 0;20 clear to 5 and 1 with scale 3.
    assert cleared_widths(Fraction(5, 3), Fraction(1, 3)) == (5, 1, 3)
    with pytest.raises(DomainError):
        solve_k0(1, 1, 5)
    with pytest.raises(DomainError):
        solve_k0(5, 1, 2)


def test_discriminant_examples():
    # Integer widths need no clearing, so the solver's discriminant is the paper's.
    assert cleared_discriminant(5, 1, 10) == paper_discriminant(5, 1, 10) == 20736 == 144**2
    assert cleared_discriminant(17, 1, 8) == paper_discriminant(17, 1, 8) == 147456 == 384**2
    # Widths with denominators: the cleared discriminant is scale^2 times the paper's.
    assert cleared_discriminant(Fraction(5, 3), Fraction(1, 3), 10) == 9 * paper_discriminant(
        Fraction(5, 3), Fraction(1, 3), 10
    ) == 20736


def test_discriminant_kernel_examples():
    assert paper_kernel(5, 10) == 5184 == 72**2
    assert paper_kernel(17, 8) == 36864 == 192**2
    assert paper_kernel(2, 3) == 89 and math.isqrt(89) ** 2 != 89


def test_discriminant_positivity_grid():
    for r in range(2, 51):
        for n in range(3, 201):
            assert cleared_discriminant(r, 1, n) > 0


def test_kernel_scales_discriminant():
    for r, n in ((5, 10), (2, 3), (17, 8), (7, 19)):
        for b in (1, 2, Fraction(1, 3), Fraction(7, 5)):
            assert paper_discriminant(r * Fraction(b), Fraction(b), n) == 4 * Fraction(b) ** 2 * paper_kernel(r, n)


def test_k0_closed_form_examples():
    assert paper_closed_form(5, 10) == (4, 22)
    assert paper_closed_form(17, 8) == (3, 15)


def test_k0_closed_form_matches_quadratic_roots():
    for r, n, _ in TABLE1:
        low, high = paper_closed_form(r, n)
        quad = fraction_wall_quadratic(r, 1, n)
        assert evaluate(quad, low) == 0 and evaluate(quad, high) == 0
        assert low < high
        # The root test that solve_k0 and search_hits share finds exactly the
        # closed-form roots that are integers in (1, n).
        assert _integer_roots(r, 1, n) == [
            int(k) for k in (low, high) if k.denominator == 1 and 1 < k < n
        ]


def test_solve_k0_examples():
    assert solve_k0(5, 1, 10) == [4]
    assert solve_k0(17, 1, 8) == [3]
    assert solve_k0(2, 1, 5) == []
    with pytest.raises(DomainError):
        solve_k0(1, 1, 10)


def test_solve_k0_rational_widths():
    # SMT 26 data: same ratio as (5, 1), so the same index must come out.
    assert solve_k0(Fraction(5, 3), Fraction(1, 3), 10) == [4]
    assert solve_k0(Fraction(5, 7), Fraction(1, 7), 10) == [4]


def test_verify_split_examples():
    smt26 = Trapezoid(Fraction(5, 3), Fraction(1, 3), 1)
    assert verify_split(smt26, 10, 4)
    assert not verify_split(smt26, 10, 5)
    with pytest.raises(DomainError):
        verify_split(Trapezoid(1, 1, 1), 10, 4)
    with pytest.raises(DomainError):
        verify_split(smt26, 10, 1)
    with pytest.raises(DomainError):
        verify_split(smt26, 10, 10)


def run_under_python_O(script):
    """The stdout lines of script run by a fresh python -O that imports this trapwall."""
    src = str(Path(trapwall.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return run.stdout.splitlines()


def test_search_hits_reproduces_table1():
    hits = search_hits(2, 20, 3, 1000)
    assert [(h.r, h.n, h.k0) for h in hits] == TABLE1
    regular_ns = {10, 25, 20, 8}
    for hit in hits:
        assert hit.n_regular == (hit.n in regular_ns)
    # Under python -O the scan still finds Table 1 and still consults the
    # oracle: an oracle that rejects everything makes it raise.
    script = (
        "from trapwall import wall_solver\n"
        "print([(h.r, h.n, h.k0) for h in wall_solver.search_hits(2, 20, 3, 1000)])\n"
        "wall_solver.verify_split = lambda trap, n, k0: False\n"
        "try:\n"
        "    wall_solver.search_hits(5, 5, 10, 10)\n"
        "except AssertionError:\n"
        "    print('rejected')\n"
    )
    assert run_under_python_O(script) == [repr(TABLE1), "rejected"]


def test_only_a_search_builds_the_sieve_patterns():
    # Importing the CLI and converting a numeral builds no pattern; the first
    # search builds all of them once, and the next search reuses them.
    script = (
        "from trapwall import cli, wall_solver\n"
        "built = wall_solver._sieve_patterns.cache_info\n"
        "print(cli.main(['convert', '5/3']), built().misses)\n"
        "wall_solver.search_hits(5, 5, 10, 10)\n"
        "wall_solver.search_hits(2, 20, 3, 40)\n"
        "print(built().misses, built().hits)\n"
    )
    src = str(Path(trapwall.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.splitlines() == ["1;40", "0 0", "1 1"]


def test_search_hits_catches_a_lost_root_under_python_O():
    # On every perfect-square kernel the root test checks the quadratic
    # formula's roots against the closed-form roots, also under python -O: a
    # formula that finds nothing makes it raise at the first admissible root
    # instead of returning [].
    script = (
        "from trapwall import wall_solver\n"
        "wall_solver._roots_between = lambda neg_linear, root, den, n: []\n"
        "try:\n"
        "    print(wall_solver.search_hits(2, 20, 3, 1000))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    assert run_under_python_O(script) == ["root 16 lost at a=2, b=1, n=37"]


def test_wall_catches_a_lost_root_under_python_O():
    # solve_k0 shares the scan's root test, so `wall` gets the same check: a
    # formula that finds nothing raises instead of printing "no admissible wall".
    script = (
        "from trapwall import cli, wall_solver\n"
        "wall_solver._roots_between = lambda neg_linear, root, den, n: []\n"
        "for call in (lambda: wall_solver.solve_k0(2, 1, 37),\n"
        "             lambda: cli.main(['wall', '2', '1', '1', '37'])):\n"
        "    try:\n"
        "        print(call())\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
    )
    assert run_under_python_O(script) == ["root 16 lost at a=2, b=1, n=37"] * 2


def test_wall_catches_a_spurious_root_under_python_O():
    # `wall` confirms each index by geometry's closed-form areas, which share
    # no code with the quadratic: a solver that returns a wrong index raises.
    script = (
        "from trapwall import cli, wall_solver\n"
        "wall_solver.solve_k0 = lambda upper, lower, n: [15]\n"
        "try:\n"
        "    print(cli.main(['wall', '2', '1', '1', '37']))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    assert run_under_python_O(script) == ["unequal shares at k0=15, n=37"]


@pytest.mark.parametrize(
    "window, regular_only, count",
    [
        ((2, 211, 3, 1000), False, 37),
        ((2, 45, 3, 30000), False, 49),
        ((2, 60, 3, 1000), True, 3),
        # Wider in r than in n, so sieved along r: the hits must still come in (r, n) order.
        ((2, 9000, 3, 20), False, 6),
        ((2, 2000, 3, 60), False, 13),
        ((2, 5000, 3, 40), True, 3),
        ((2, 2, 3, 3), False, 0),
        ((5, 5, 10, 10), False, 1),
    ],
)
def test_sieve_loses_no_case(window, regular_only, count):
    hits = search_hits(*window, regular_only=regular_only)
    assert hits == plain_scan(*window, regular_only=regular_only)
    assert len(hits) == count


def test_kernel_square_tables_match_their_definition():
    # Bit j of row i and bit i of column j are 1 when (2(i^2 + 1) j^2 - (i - 1)^2)
    # mod m is a square modulo m, for every modulus, not only the ones the sieve uses.
    for m in range(1, 200):
        is_square = {y * y % m for y in range(m)}
        flags = [
            [(2 * (i * i + 1) * j * j - (i - 1) ** 2) % m in is_square for j in range(m)]
            for i in range(m)
        ]
        rows, columns = _patterns(m)
        assert rows == [sum(flags[i][j] << j for j in range(m)) for i in range(m)], m
        assert columns == [sum(flags[i][j] << i for i in range(m)) for j in range(m)], m
    # The sieve keeps the same ints, for SIEVE_MODULI in order.
    assert _sieve_patterns() == tuple((m, *_patterns(m)) for m in SIEVE_MODULI)


def test_sieve_loses_no_case_at_any_offset():
    # n_lo takes every residue mod 64 (and each starts the blocks elsewhere
    # modulo the other moduli); every window crosses two block boundaries,
    # and (23, 4103, 1254) falls on either side of the first one.
    assert max(SIEVE_MODULI) < SIEVE_BLOCK
    reference = plain_scan(2, 23, 3, 66 + 2 * SIEVE_BLOCK)
    for n_lo in range(3, 67):
        n_hi = n_lo + 2 * SIEVE_BLOCK
        expected = [hit for hit in reference if n_lo <= hit.n <= n_hi]
        assert SearchHit(r=23, n=4103, k0=1254, n_regular=False) in expected
        assert search_hits(2, 23, n_lo, n_hi) == expected


def test_sieve_along_r_loses_no_case_at_any_offset():
    # The same along r: 11 strip counts against 8,193 ratios, r_lo at every
    # residue mod 64, and (5869, 326, 96) on either side of the first boundary.
    reference = plain_scan(1742, 1805 + 2 * SIEVE_BLOCK, 320, 330)
    for r_lo in range(1742, 1806):
        r_hi = r_lo + 2 * SIEVE_BLOCK
        expected = [hit for hit in reference if r_lo <= hit.r <= r_hi]
        assert SearchHit(r=5869, n=326, k0=96, n_regular=False) in expected
        assert search_hits(r_lo, r_hi, 320, 330) == expected


@pytest.mark.parametrize(
    "window",
    [
        # Sieved along n: 70 ratios, more than any modulus, so masks built for
        # one ratio of a block are reused by later ones; the strip counts span
        # two blocks.
        (2, 71, 4000, 4000 + SIEVE_BLOCK + 99),
        # Sieved along r: the same with 70 strip counts across two blocks of ratios.
        (900, 900 + SIEVE_BLOCK + 99, 3, 72),
    ],
)
def test_candidates_equal_their_definition(window):
    # The hit-level tests cannot see a mask cached under the wrong residue
    # when no hit lands on it; the candidates themselves can.
    r_lo, r_hi, n_lo, n_hi = window
    lines, values = sorted((r_hi - r_lo + 1, n_hi - n_lo + 1))
    assert lines > max(SIEVE_MODULI) and values > SIEVE_BLOCK
    assert sorted(_candidates(*window)) == sieve_by_definition(*window)


# Line counts below, at and above a modulus (11, 41, 43, 47, 63, 64 and 65
# are moduli), and value counts within one block or across a SIEVE_BLOCK boundary.
LINE_COUNTS = [1, 2, 10, 11, 41, 43, 47, 48, 63, 64, 65, 66, 130]
VALUE_EXTRAS = st.one_of(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=SIEVE_BLOCK - 2, max_value=SIEVE_BLOCK + 70),
)


@given(
    lines=st.sampled_from(LINE_COUNTS),
    extra=VALUE_EXTRAS,
    line_lo=st.integers(min_value=3, max_value=30_000),
    value_lo=st.integers(min_value=3, max_value=30_000),
    along_r=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_candidates_equal_their_definition_on_any_window(lines, extra, line_lo, value_lo, along_r):
    # The sieve runs along the longer side, so each window has `lines` lines
    # across `lines + extra` values, the other way round when along_r.
    line_hi, value_hi = line_lo + lines - 1, value_lo + lines + extra - 1
    if along_r:
        window = (value_lo, value_hi, line_lo, line_hi)
    else:
        window = (line_lo, line_hi, value_lo, value_hi)
    assert sorted(_candidates(*window)) == sieve_by_definition(*window)


def test_sieve_cache_memory_is_bounded():
    # 599 ratios take every residue of every modulus, so each block of strip
    # counts builds all sum(SIEVE_MODULI) masks of SIEVE_BLOCK bits (see
    # SIEVE_BLOCK), dropped before the next block.
    bound = sum(SIEVE_MODULI) * SIEVE_BLOCK // 8
    tracemalloc.start()
    try:
        hits = search_hits(2, 600, 3, 9000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(h.r, h.n, h.k0) for h in hits if h.r <= 20 and h.n <= 1000] == TABLE1
    assert peak < bound + 128 * 1024


@pytest.mark.parametrize(
    "window, expected",
    [
        ((3, 3, 3, 300_000), [(3, 17, 7), (3, 305, 117), (3, 5473, 2091), (3, 98209, 37513)]),
        ((2, 300_000, 17, 17), [(3, 17, 7)]),
    ],
)
def test_sieve_memory_does_not_grow_with_the_range(window, expected):
    # 300,000 values are about 73 blocks; one mask over the whole range
    # would take more than 290 KiB on its own.
    tracemalloc.start()
    try:
        hits = search_hits(*window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(h.r, h.n, h.k0) for h in hits] == expected
    assert peak < 256 * 1024


@given(widths, widths, widths, st.integers(min_value=3, max_value=40))
@settings(max_examples=100)
def test_integer_oracle_matches_fraction_oracle(lower, delta, height, n):
    trap = Trapezoid(lower + delta, lower, height)
    for k0 in range(2, n):
        assert verify_split(trap, n, k0) == fraction_verify_split(trap, n, k0)


@pytest.mark.parametrize(
    "scale, height", [(1, 1), (Fraction(1, 7), Fraction(3, 11)), (Fraction(13, 60), 45)]
)
def test_integer_oracle_matches_fraction_oracle_on_hits(scale, height):
    for r, n, k0 in [hit for hit in TABLE1 if hit[1] <= 65]:
        trap = Trapezoid(r * scale, scale, height)
        verdicts = [verify_split(trap, n, k) for k in range(2, n)]
        assert verdicts == [fraction_verify_split(trap, n, k) for k in range(2, n)]
        assert [k for k, ok in zip(range(2, n), verdicts) if ok] == [k0]


@pytest.mark.parametrize("r, n, k0", BEYOND_133)
def test_integer_oracle_on_hits_beyond_133(r, n, k0):
    trap = Trapezoid(r, 1, 1)
    assert verify_split(trap, n, k0)
    assert not verify_split(trap, n, k0 - 1)
    assert not verify_split(trap, n, k0 + 1)


def test_search_hits_regular_only():
    hits = search_hits(2, 20, 3, 1000, regular_only=True)
    assert [(h.r, h.n, h.k0) for h in hits] == [(5, 10, 4), (6, 25, 9), (9, 20, 7)]
    assert all(h.n_regular for h in hits)


def test_search_hits_validates_ranges():
    with pytest.raises(DomainError):
        search_hits(1, 20, 3, 1000)
    with pytest.raises(DomainError):
        search_hits(2, 20, 2, 1000)
    with pytest.raises(DomainError):
        search_hits(20, 2, 3, 1000)


def test_search_hit_record():
    assert search_hits(5, 5, 10, 10) == [SearchHit(r=5, n=10, k0=4, n_regular=True)]


def test_solve_k0_agrees_with_exhaustive_oracle():
    # Integer ratios 2..12, any strip count up to 40: the solver finds exactly
    # the indices the brute-force oracle accepts.
    for ratio in range(2, 13):
        trap = Trapezoid(ratio, 1, 1)
        for n in range(3, 41):
            from_oracle = [k for k in range(2, n) if verify_split(trap, n, k)]
            assert solve_k0(trap.upper, trap.lower, n) == from_oracle


@given(widths, widths, st.integers(min_value=3, max_value=100))
@settings(max_examples=300)
def test_quadratic_discriminant_consistency(lower, delta, n):
    upper = lower + delta
    lead, linear, constant = fraction_wall_quadratic(upper, lower, n)
    assert linear**2 - 4 * lead * constant == paper_discriminant(upper, lower, n)


@given(widths, widths, st.integers(min_value=3, max_value=200))
@settings(max_examples=300)
def test_integer_solve_k0_matches_fraction_solver(lower, delta, n):
    upper = lower + delta
    a, b, scale = cleared_widths(upper, lower)
    cleared = _integer_quadratic(a, b, n)
    assert tuple(Fraction(c, scale) for c in cleared) == fraction_wall_quadratic(upper, lower, n)
    assert solve_k0(upper, lower, n) == fraction_solve_k0(upper, lower, n)


@pytest.mark.parametrize(
    "upper, lower, n",
    [
        (2.5, 1, 10),
        (5, 1.0, 10),
        (3, 3, 10),
        (Fraction(1, 2), Fraction(1, 2), 10),
        (5, 1, 2),
        (5, 1, 3.0),
    ],
)
def test_integer_solve_k0_refuses_as_the_fraction_solver(upper, lower, n):
    with pytest.raises(DomainError) as fraction:
        fraction_solve_k0(upper, lower, n)
    with pytest.raises(DomainError) as integer:
        solve_k0(upper, lower, n)
    assert str(integer.value) == str(fraction.value)


def test_equal_widths_get_one_refusal():
    # The solver, the planner and the oracle share one check of a wall's widths.
    trap = Trapezoid(1, 1, 1)
    refusals = set()
    for refuse in (
        lambda: solve_k0(trap.upper, trap.lower, 10),
        lambda: plan_wall(trap, 10, 4),
        lambda: verify_split(trap, 10, 4),
    ):
        with pytest.raises(DomainError) as caught:
            refuse()
        refusals.add(str(caught.value))
    assert refusals == {"wall problems need upper > lower > 0"}


@given(widths, widths, widths, st.integers(min_value=3, max_value=60))
@settings(max_examples=300)
def test_solve_k0_scale_invariance(lower, delta, scale, n):
    upper = lower + delta
    assert solve_k0(scale * upper, scale * lower, n) == solve_k0(upper, lower, n)


def test_every_hit_passes_oracle():
    for r, n, k0 in TABLE1:
        assert verify_split(Trapezoid(r, 1, 7), n, k0)
