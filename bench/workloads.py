"""Seeded request generators for the two benchmark workloads.

A workload is a fixed list of `Request`s, one round of load. The same seed
gives the same list. Each request carries the argv passed to
`trapwall.cli.main`, the exit code the benchmark's own arithmetic predicts and
a check of the printed output (see `checks`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import checks

# Denominators whose reciprocals end in base 60, and some whose reciprocals never do.
REGULAR_DENS = (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)
NON_REGULAR_DENS = (7, 11, 13, 14, 21, 22, 26, 33, 39, 77)
FORMATS = ("table", "jsonl")
PLACES = 5  # the CLI's default places for truncated values


@dataclass(frozen=True)
class Request:
    """One `trapwall` invocation and how to judge it."""

    kind: str
    argv: list[str]
    items: int  # scanned (r, n) cases, or 1 for a one-shot request
    expect_exit: int
    check: Callable[[str, str], dict] = field(compare=False)


def sex_text(x: Fraction) -> str:
    """Base-60 text of a nonnegative value whose denominator is regular."""
    places = checks.places_needed(x)
    scaled = x.numerator * checks.BASE**places // x.denominator
    frac = []
    for _ in range(places):
        scaled, digit = divmod(scaled, checks.BASE)
        frac.append(digit)
    whole = []
    while True:
        scaled, digit = divmod(scaled, checks.BASE)
        whole.append(digit)
        if not scaled:
            break
    text = ",".join(map(str, reversed(whole)))
    return text + (";" + ",".join(map(str, reversed(frac))) if frac else "")


def ratio_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _value(rng: random.Random, lo: int, hi: int, dens: tuple[int, ...]) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _widths(rng: random.Random, dens: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    while True:
        a, b = _value(rng, 1, 240, dens), _value(rng, 1, 240, dens)
        if a != b:
            return max(a, b), min(a, b)


def _out_check(check: Callable[..., dict]) -> Callable[[str, str], dict]:
    """Adapt a check of stdout alone; a successful request writes nothing to stderr."""

    def run(out: str, err: str) -> dict:
        checks.require(err == "", f"unexpected stderr {err[:80]!r}")
        return check(out)

    return run


# --- search_scan ------------------------------------------------------------

SEARCH_WINDOWS = 8
SEARCH_RATIOS = 250
SEARCH_COUNTS = 1000
# Ratios below 2**15 keep r*r + 1 within one 30-bit digit of a Python int, so
# every seeded window costs about the same per case; hits are rare up here.
SEARCH_R_RANGE = (10_000, 32_000)
SEARCH_N_LO_RANGE = (1_000, 3_000)


def search_scan(seed: int) -> list[Request]:
    """The criterion-2 window plus seeded windows of large ratios, where hits are rare."""
    rng = random.Random(seed)
    windows = [checks.CRITERION2_WINDOW]
    for _ in range(SEARCH_WINDOWS):
        r_lo = rng.randint(SEARCH_R_RANGE[0], SEARCH_R_RANGE[1] - SEARCH_RATIOS + 1)
        n_lo = rng.randint(*SEARCH_N_LO_RANGE)
        windows.append((r_lo, r_lo + SEARCH_RATIOS - 1, n_lo, n_lo + SEARCH_COUNTS - 1))
    requests = []
    for i, window in enumerate(windows):
        fmt = FORMATS[i % 2]
        r_lo, r_hi, n_lo, n_hi = window
        requests.append(Request(
            "search",
            ["search", *map(str, window), "--format", fmt],
            (r_hi - r_lo + 1) * (n_hi - n_lo + 1),
            0,
            _out_check(partial(checks.check_search, window, fmt)),
        ))
    return requests


# --- cli_requests -----------------------------------------------------------


def _convert_sex(rng: random.Random, i: int) -> Request:
    x = _value(rng, 1, 10_000, REGULAR_DENS)
    fmt = FORMATS[i % 2]
    return Request("convert", ["convert", sex_text(x), "--format", fmt], 1, 0,
                   _out_check(partial(checks.check_convert, x, fmt, "sex", None)))


def _convert_ratio(rng: random.Random, i: int) -> Request:
    x = _value(rng, 1, 10_000, REGULAR_DENS)
    fmt, numeral = FORMATS[i % 2], ("sex", "rat", "dec")[i % 3]
    return Request("convert", ["convert", ratio_text(x), "--format", fmt, "--numeral", numeral], 1, 0,
                   _out_check(partial(checks.check_convert, x, fmt, numeral, None)))


def _convert_truncated(rng: random.Random, i: int) -> Request:
    x = _value(rng, 1, 10_000, NON_REGULAR_DENS)
    while checks.places_needed(x) is not None:
        x = _value(rng, 1, 10_000, NON_REGULAR_DENS)
    fmt, places = FORMATS[i % 2], rng.randint(1, 8)
    return Request("convert", ["convert", ratio_text(x), "--format", fmt, "--places", str(places)], 1, 0,
                   _out_check(partial(checks.check_convert, x, fmt, "sex", places)))


def _bisect(a: Fraction, b: Fraction, i: int) -> Request:
    fmt = FORMATS[i % 2]
    return Request("bisect", ["bisect", sex_text(a), sex_text(b), "--format", fmt], 1, 0,
                   _out_check(partial(checks.check_bisect, a, b, fmt, PLACES)))


def _bisect_exact(rng: random.Random, i: int) -> Request:
    # a^2 + b^2 = 2 d^2 for a = p^2 + 2pq - q^2, b = |p^2 - 2pq - q^2|, d = p^2 + q^2.
    p = rng.randint(2, 12)
    q = rng.randint(1, p - 1)
    scale = _value(rng, 1, 59, REGULAR_DENS)
    a, b = scale * (p * p + 2 * p * q - q * q), scale * abs(p * p - 2 * p * q - q * q)
    return _bisect(max(a, b), min(a, b), i)


def _bisect_irrational(rng: random.Random, i: int) -> Request:
    while True:
        a, b = _widths(rng, REGULAR_DENS)
        if checks.exact_root((a * a + b * b) / 2) is None:
            return _bisect(a, b, i)


def _wall(a: Fraction, b: Fraction, h: Fraction, n: int, i: int) -> Request:
    fmt = FORMATS[i % 2]
    expect = 0 if checks.wall_indices(a, b, n) else 1
    return Request("wall", ["wall", sex_text(a), sex_text(b), sex_text(h), str(n), "--format", fmt], 1, expect,
                   partial(checks.check_wall, (a, b, h), n, fmt, PLACES))


def _wall_table1(rng: random.Random, i: int) -> Request:
    r, n, _ = rng.choice(checks.TABLE1)
    w = _value(rng, 1, 59, REGULAR_DENS)
    return _wall(r * w, w, _value(rng, 1, 120, REGULAR_DENS), n, i)


def _wall_random(rng: random.Random, i: int) -> Request:
    a, b = _widths(rng, REGULAR_DENS)
    return _wall(a, b, _value(rng, 1, 120, REGULAR_DENS), rng.randint(3, 60), i)


# Strip counts of one-shot `strips` requests: small, so that these calls cost
# about as much as the other kinds and per-call costs still dominate.
STRIPS_N = (4, 14)


def _strips(rng: random.Random, i: int, regular: bool) -> Request:
    """A regular shape and count (every value exact) or a non-regular one (values truncated)."""
    dens, text = (REGULAR_DENS, sex_text) if regular else (NON_REGULAR_DENS, ratio_text)
    n = rng.choice([n for n in range(STRIPS_N[0], STRIPS_N[1] + 1) if checks.is_regular(n) == regular])
    a, b = _widths(rng, dens)
    h = _value(rng, 1, 120, dens)
    fmt = FORMATS[i % 2]
    return Request("strips", ["strips", text(a), text(b), text(h), str(n), "--format", fmt], 1, 0,
                   _out_check(partial(checks.check_strips, (a, b, h), n, fmt, PLACES)))


def _strips_exact(rng: random.Random, i: int) -> Request:
    return _strips(rng, i, True)


def _strips_truncated(rng: random.Random, i: int) -> Request:
    return _strips(rng, i, False)


def _smt26(rng: random.Random, i: int) -> Request:
    part, fmt = ("reverse", "obverse1")[i % 2], FORMATS[(i // 2) % 2]
    return Request("smt26", ["smt26", "--part", part, "--format", fmt], 1, 0,
                   _out_check(partial(checks.check_smt26, part, fmt)))


# Requests of each kind in one round of cli_requests. The `strips` requests
# keep the strip walk and its exact-or-truncated rendering in the load; a
# workload of large `strips` tables alone ran up to 1.7x slower for whole
# 40-second runs on a shared 2-vCPU host, too unsteady for its bounds.
CLI_MIX = (
    (_convert_sex, 50),
    (_convert_ratio, 40),
    (_convert_truncated, 30),
    (_bisect_exact, 50),
    (_bisect_irrational, 50),
    (_wall_table1, 70),
    (_wall_random, 70),
    (_smt26, 40),
    (_strips_exact, 20),
    (_strips_truncated, 20),
)


def cli_requests(seed: int) -> list[Request]:
    """The README's one-shot subcommands on small seeded inputs, in seeded order."""
    rng = random.Random(seed)
    requests = [make(rng, i) for make, count in CLI_MIX for i in range(count)]
    rng.shuffle(requests)
    return requests


WORKLOADS = {"search_scan": search_scan, "cli_requests": cli_requests}
