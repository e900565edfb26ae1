"""Exact base-60 numerals: parsing, writing, regular numbers and square roots.

A numeral is text at the edges and a Fraction inside: parse_sex reads text
into its exact value, and rational_to_sex, truncate_sex and sqrt_sex write a
value as canonical text through one digit writer. Notation is absolute (not
floating): ";" separates the integer part from the fractional part and ","
separates digits, so "1;12,30" is 1 + 12/60 + 30/3600. All conversions are
exact rational arithmetic; the only lossy operations are the explicit
truncations (`sqrt_sex`, `truncate_sex`).
"""

from __future__ import annotations

import math
import numbers
import re
from collections import namedtuple
from fractions import Fraction

from .errors import (
    DomainError,
    NonTerminatingError,
    ParseError,
    PlacesExceededError,
)

BASE = 60
# The most fractional places an exact rendering may take before the output
# layers truncate it or refuse it.
MAX_EXACT_PLACES = 20

Rational = Fraction | int

# A digit renders as a plain decimal integer with no zero padding.
_DIGIT_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")


def _parse_digit_group(text: str) -> list[int]:
    digits = []
    for token in text.split(","):
        if not token:
            raise ParseError("empty digit group")
        if not _DIGIT_RE.match(token):
            raise ParseError(f"malformed digit {token!r}")
        # Without leading zeros, a digit of three or more figures exceeds 59,
        # and int() refuses one of more than 4,300.
        if len(token) > 2 or int(token) >= BASE:
            raise ParseError(f"digit {token} exceeds 59")
        digits.append(int(token))
    return digits


def parse_sex(text: str) -> Fraction:
    """The exact value of sexagesimal text.

    Grammar: ["-"] digits [";" digits] where digits is a comma-separated list
    of decimal integers in 0..59 without leading zeros ("1;8", not "1;08").
    """
    if not isinstance(text, str) or not text:
        raise ParseError("empty numeral")
    negative = text.startswith("-")
    parts = (text[1:] if negative else text).split(";")
    if len(parts) > 2:
        raise ParseError("more than one ';' separator")
    int_digits = _parse_digit_group(parts[0])
    frac_digits = _parse_digit_group(parts[1]) if len(parts) == 2 else []
    scaled = 0
    for d in int_digits + frac_digits:
        scaled = scaled * BASE + d
    value = Fraction(scaled, BASE ** len(frac_digits))
    return -value if negative else value


class RegularFactorization(namedtuple("RegularFactorization", "pow2 pow3 pow5")):
    """Exponents of 2, 3 and 5 whose product reconstructs the integer exactly."""

    __slots__ = ()


def is_regular(m: int) -> RegularFactorization | None:
    """Factor m as 2^p * 3^q * 5^r if possible, else None.

    Regular integers are exactly those whose reciprocals terminate in base 60.
    """
    check_int(m, "is_regular's argument", 1)
    exponents = [(m & -m).bit_length() - 1]
    m >>= exponents[0]
    for p in (3, 5):
        count = 0
        while m % p == 0:
            # Divide out p, then p^2, p^4, ... while each divides; then start again at p.
            m //= p
            count += 1
            power, k = p * p, 2
            while m % power == 0:
                m //= power
                count += k
                power, k = power * power, 2 * k
        exponents.append(count)
    if m != 1:
        return None
    return RegularFactorization(*exponents)


def _int_text(m: int) -> str:
    """m in decimal for a message, or its size when int() would refuse to write it out."""
    try:
        return str(m)
    except ValueError:
        return f"<{m.bit_length()}-bit integer>"


def reciprocal_regular(m: int) -> Fraction:
    """Exact reciprocal of a regular integer; any other has no finite base-60 expansion."""
    if is_regular(m) is None:
        raise NonTerminatingError(f"{_int_text(m)} has a prime factor other than 2, 3, 5")
    return Fraction(1, m)


def _places_needed(fact: RegularFactorization) -> int:
    # 60^p = 2^(2p) * 3^p * 5^p, so the denominator divides 60^p iff
    # p >= ceil(pow2/2), p >= pow3 and p >= pow5.
    return max((fact.pow2 + 1) // 2, fact.pow3, fact.pow5)


def exact_fraction(value: Rational, what: str) -> Fraction:
    """The argument as a Fraction.

    Anything but a numbers.Rational (an int or a Fraction, say) is a
    DomainError: text, floats and Decimals included. Text is read at the
    edges, by parse_sex and the CLI.
    """
    # A Fraction is immutable and passes through uncopied; ints and Fraction
    # subclasses need no abstract base class lookup.
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) or isinstance(value, numbers.Rational):
        return Fraction(value)
    raise DomainError(f"{what} must be an int or Fraction, not {type(value).__name__}")


def check_int(value: int, what: str, lo: int) -> None:
    """Refuse anything but an int that is at least lo."""
    if not isinstance(value, int) or value < lo:
        raise DomainError(f"{what} must be an integer >= {lo}")


def _from_scaled_int(negative: bool, scaled: int, frac_places: int) -> str:
    """Canonical text of scaled / 60^frac_places, signed when negative: the one digit writer.

    Canonical: no leading zero digit, no trailing zero fractional digit, and
    zero unsigned, so a negative value that truncates to 0 prints "0".
    """
    while frac_places and scaled % BASE == 0:
        scaled //= BASE
        frac_places -= 1
    if not scaled:
        return "0"
    digits = []
    # At least one integer digit, and none past the leading nonzero one.
    while scaled or len(digits) <= frac_places:
        scaled, d = divmod(scaled, BASE)
        digits.append(str(d))
    digits.reverse()
    split = len(digits) - frac_places
    text = ",".join(digits[:split])
    if frac_places:
        text += ";" + ",".join(digits[split:])
    return "-" + text if negative else text


def rational_to_sex(x: Fraction, max_frac_places: int) -> str:
    """Exact canonical base-60 text of a rational, or an error when impossible.

    Raises NonTerminatingError when the reduced denominator is not regular and
    PlacesExceededError when it is regular but needs more than max_frac_places
    fractional digits.
    """
    check_int(max_frac_places, "max_frac_places", 0)
    x = exact_fraction(x, "value")
    numerator, denominator = x.numerator, x.denominator
    fact = is_regular(denominator)
    if fact is None:
        raise NonTerminatingError(f"denominator {_int_text(denominator)} is not regular")
    places = _places_needed(fact)
    if places > max_frac_places:
        raise PlacesExceededError(
            f"needs {places} fractional places, only {max_frac_places} allowed"
        )
    scaled = abs(numerator) * BASE**places // denominator
    return _from_scaled_int(numerator < 0, scaled, places)


def truncate_sex(x: Fraction, frac_places: int) -> str:
    """Canonical base-60 text of a rational truncated toward zero to frac_places digits."""
    check_int(frac_places, "frac_places", 0)
    x = exact_fraction(x, "value")
    scaled = abs(x.numerator) * BASE**frac_places // x.denominator
    return _from_scaled_int(x.numerator < 0, scaled, frac_places)


def isqrt(m: int) -> tuple[int, bool]:
    """Floor square root of a nonnegative integer, plus a perfect-square flag."""
    root = math.isqrt(m)
    return root, root * root == m


def sqrt_sex(x: Fraction, frac_places: int) -> str:
    """Canonical base-60 text of the square root truncated (not rounded) to frac_places digits.

    Exact whenever the root is rational and representable within the places.
    """
    x = exact_fraction(x, "value")
    if x < 0:
        raise DomainError("square root of a negative value")
    check_int(frac_places, "frac_places", 0)
    # Largest t with (t / 60^p)^2 <= x, i.e. t = floor(sqrt(num*60^2p / den)).
    scaled = math.isqrt(x.numerator * BASE ** (2 * frac_places) // x.denominator)
    return _from_scaled_int(False, scaled, frac_places)
