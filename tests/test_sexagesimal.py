"""Unit and property tests for base-60 parsing, writing and roots: text in and out, Fractions inside."""

import numbers
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trapwall.errors import (
    DomainError,
    NonTerminatingError,
    ParseError,
    PlacesExceededError,
)
from trapwall.geometry import Trapezoid, transversal_bisector
from trapwall.sexagesimal import (
    RegularFactorization,
    exact_fraction,
    is_regular,
    isqrt,
    parse_sex,
    rational_to_sex,
    reciprocal_regular,
    sqrt_sex,
    truncate_sex,
)


def positional_value(int_digits, frac_digits):
    """The sum of int digits times 60^i and frac digits times 60^-j: the tests' own reading."""
    whole = sum(d * 60**i for i, d in enumerate(reversed(int_digits)))
    return whole + sum(Fraction(d, 60 ** (j + 1)) for j, d in enumerate(frac_digits))


@pytest.mark.parametrize(
    "text,sign,int_digits,frac_digits",
    [
        ("1;40", 1, (1,), (40,)),
        ("0", 1, (0,), ()),
        ("2,53,20", 1, (2, 53, 20), ()),
        ("-1;12,30", -1, (1,), (12, 30)),
        ("0;0,16", 1, (0,), (0, 16)),
        ("59", 1, (59,), ()),
    ],
)
def test_parse_examples(text, sign, int_digits, frac_digits):
    value = parse_sex(text)
    assert value == sign * positional_value(int_digits, frac_digits)
    assert rational_to_sex(value, 20) == text


@pytest.mark.parametrize(
    "text",
    ["", ";40", "1;", "1,,2", "60", "1;60", "08", "1;08", "1:40", "abc", "1.5", "-"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_sex(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty numeral"),
        ("-", "empty digit group"),
        (";40", "empty digit group"),
        ("1;", "empty digit group"),
        ("1,,2", "empty digit group"),
        ("1;08", "malformed digit '08'"),
        ("1:40", "malformed digit '1:40'"),
        ("60", "digit 60 exceeds 59"),
        ("1;60", "digit 60 exceeds 59"),
        ("1;2;3", "more than one ';' separator"),
        # The integer part is read before the fraction.
        ("1,,2;60", "empty digit group"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        parse_sex(text)
    assert str(exc.value) == message


# int() refuses text of more than 4,300 digits; a base-60 digit has at most two.
LONG = "1" * 5000


@pytest.mark.parametrize(
    "text",
    ["1;" + LONG, LONG, f"-1,{LONG};1"],
    ids=["fractional digit", "integer digit", "inner digit"],
)
def test_parse_refuses_an_over_long_digit(text):
    with pytest.raises(ParseError) as exc:
        parse_sex(text)
    assert str(exc.value) == f"digit {LONG} exceeds 59"


def test_parse_canonicalises():
    # Non-canonical text reads as its value and is written back canonical:
    # no leading zero digit, no trailing zero digit, and zero unsigned.
    assert parse_sex("0,30") == Fraction(30) and rational_to_sex(parse_sex("0,30"), 20) == "30"
    assert parse_sex("1;30,0") == Fraction(3, 2) and rational_to_sex(parse_sex("1;30,0"), 20) == "1;30"
    for zero in ("-0", "0;0"):
        assert parse_sex(zero) == 0 and rational_to_sex(parse_sex(zero), 20) == "0"
    assert truncate_sex(Fraction(-1, 7200), 1) == "0"


@pytest.mark.parametrize(
    "fn,args,what",
    [
        (Trapezoid, (None, 1, 1), "upper width"),
        (Trapezoid, (2, 1, [1]), "height"),
        (transversal_bisector, ([1], 1), "upper width"),
        (transversal_bisector, (2, 1j), "lower width"),
        (rational_to_sex, (b"1", 2), "value"),
        (truncate_sex, (None, 2), "value"),
        (sqrt_sex, ({}, 1), "value"),
        # Fraction reads a Decimal, but a Decimal is not a numbers.Rational,
        # and an infinite one would escape as a bare OverflowError.
        (Trapezoid, (Decimal("Infinity"), 1, 1), "upper width"),
        (Trapezoid, (Decimal("NaN"), 1, 1), "upper width"),
        (Trapezoid, (Decimal("1.5"), 1, 1), "upper width"),
        (Trapezoid, (2.0, 1, 1), "upper width"),
        # Text is read at the edges (parse_sex, the CLI), never by the library:
        # well-formed p/q and numerals included, and what Fraction() reads.
        (Trapezoid, ("x", 1, 1), "upper width"),
        (Trapezoid, (2, 1, "1/0"), "height"),
        (transversal_bisector, ("abc", 1), "upper width"),
        (transversal_bisector, (2, ""), "lower width"),
        (rational_to_sex, ("1/0", 3), "value"),
        (truncate_sex, ("1;40", 2), "value"),
        (sqrt_sex, ("two", 1), "value"),
        (Trapezoid, ("1_0", 1, 1), "upper width"),
        (Trapezoid, (20, "\u0661\u0660", 1), "lower width"),
        (Trapezoid, (2, 1, "\uff11\uff10"), "height"),
        (rational_to_sex, ("1.5", 3), "value"),
        (sqrt_sex, ("1e3", 2), "value"),
        (Trapezoid, ("5/3", Fraction(1, 3), 1), "upper width"),
        (rational_to_sex, ("5/3", 2), "value"),
    ],
)
def test_wrong_argument_type_is_a_domain_error(fn, args, what):
    # Fraction refuses most of these with a TypeError and reads the text,
    # neither of which may pass: the refusal names the argument and its type.
    bad = next(arg for arg in args if not isinstance(arg, (int, Fraction)))
    message = f"{what} must be an int or Fraction, not {type(bad).__name__}"
    with pytest.raises(DomainError, match=re.escape(message)):
        fn(*args)


class Ratio:
    """A numbers.Rational that is neither an int nor a Fraction."""

    numerator, denominator = 5, 3


numbers.Rational.register(Ratio)


class FractionSubclass(Fraction):
    pass


def test_exact_fraction_passes_fractions_through():
    value = Fraction(5, 3)
    assert exact_fraction(value, "x") is value


@pytest.mark.parametrize(
    "value", [FractionSubclass(5, 3), 7, Ratio()], ids=["subclass", "int", "Ratio"]
)
def test_exact_fraction_converts_other_rationals(value):
    converted = exact_fraction(value, "x")
    assert type(converted) is Fraction and converted == value


@pytest.mark.parametrize(
    "text,value",
    [
        ("3,45", Fraction(225)),
        ("0;0,16", Fraction(1, 225)),
        ("0;26,24", Fraction(11, 25)),
        ("-2;30", Fraction(-5, 2)),
        ("2,53,20", Fraction(10400)),
    ],
)
def test_sex_to_rational(text, value):
    assert parse_sex(text) == value


@pytest.mark.parametrize(
    "value,places,text",
    [
        (Fraction(5, 3), 2, "1;40"),
        (Fraction(1), 0, "1"),
        (Fraction(0), 0, "0"),
        (Fraction(-5, 2), 1, "-2;30"),
        (Fraction(11, 25), 2, "0;26,24"),
        (0, 5, "0"),
        (Fraction(0), 20, "0"),
    ],
)
def test_rational_to_sex(value, places, text):
    assert rational_to_sex(value, places) == text


def test_rational_to_sex_errors():
    with pytest.raises(NonTerminatingError):
        rational_to_sex(Fraction(1, 7), 10)
    with pytest.raises(PlacesExceededError):
        rational_to_sex(Fraction(5, 3), 0)
    with pytest.raises(DomainError):
        rational_to_sex(Fraction(1, 2), -1)


def test_is_regular_examples():
    assert is_regular(225) == RegularFactorization(0, 2, 2)
    assert is_regular(1) == RegularFactorization(0, 0, 0)
    assert is_regular(37) is None
    assert is_regular(8) == RegularFactorization(3, 0, 0)
    with pytest.raises(DomainError):
        is_regular(0)


def test_is_regular_matches_divisor_of_power_of_sixty():
    # m <= 10^5 is regular iff m divides 60^16.
    oracle = 60**16
    for m in range(1, 100001):
        assert (is_regular(m) is not None) == (oracle % m == 0)


def test_regular_factorization_reconstructs():
    huge = (60**3001, 2**12004 * 3**6002 * 5**6002)
    for m in (1, 2, 8, 225, 14400, 2**10 * 3**7 * 5**4, *huge):
        fact = is_regular(m)
        assert fact is not None and 2**fact.pow2 * 3**fact.pow3 * 5**fact.pow5 == m
    for m in huge:
        assert is_regular(7 * m) is None


def test_reciprocal_regular():
    assert reciprocal_regular(225) == Fraction(1, 225)
    assert reciprocal_regular(1) == 1
    with pytest.raises(NonTerminatingError, match=r"^7 has a prime factor"):
        reciprocal_regular(7)


def test_non_regular_messages_state_the_size_of_huge_integers():
    # An integer of more digits than int() writes out is named by its bit count.
    huge = 7 * 10**5000
    with pytest.raises(NonTerminatingError, match=r"^denominator <16613-bit integer> is not regular$"):
        rational_to_sex(Fraction(1, huge), 20)
    with pytest.raises(NonTerminatingError, match=r"^<16613-bit integer> has a prime factor"):
        reciprocal_regular(huge)
    # Around int()'s limit an integer is written out or named, and none raises:
    # up to the limit it is written out, past it named.
    limit = sys.get_int_max_str_digits()
    for digits in range(limit - 2, limit + 3):
        for m in (10 ** (digits - 1) + 7, 10**digits - 3):
            with pytest.raises(NonTerminatingError) as raised:
                rational_to_sex(Fraction(1, m), 20)
            named = re.fullmatch(r"denominator <\d+-bit integer> is not regular", str(raised.value))
            assert bool(named) == (digits > limit), digits
            if not named:
                assert str(raised.value) == f"denominator {m} is not regular"


def test_isqrt_examples():
    assert isqrt(0) == (0, True)
    assert isqrt(2500) == (50, True)
    assert isqrt(5184) == (72, True)
    assert isqrt(2) == (1, False)


def test_isqrt_exhaustive_floor_contract():
    for m in range(0, 1_000_001):
        root, perfect = isqrt(m)
        assert root * root <= m < (root + 1) * (root + 1)
        assert perfect == (root * root == m)


@pytest.mark.parametrize(
    "value,places,text",
    [
        (Fraction(625), 0, "25"),
        (Fraction(13, 9), 5, "1;12,6,39,41,30"),
        (Fraction(13, 9), 1, "1;12"),
        (Fraction(0), 3, "0"),
        (Fraction(4), 2, "2"),
    ],
)
def test_sqrt_sex(value, places, text):
    assert sqrt_sex(value, places) == text


def test_sqrt_sex_rejects_negative():
    with pytest.raises(DomainError):
        sqrt_sex(Fraction(-1), 2)


def test_truncate_sex():
    assert truncate_sex(Fraction(1, 7), 3) == "0;8,34,17"
    assert truncate_sex(Fraction(-1, 7), 3) == "-0;8,34,17"
    with pytest.raises(NonTerminatingError):
        rational_to_sex(Fraction(1, 7), 3)
    text = truncate_sex(Fraction(11, 25), 4)
    assert text == "0;26,24"
    assert rational_to_sex(Fraction(11, 25), 4) == text


digit = st.integers(min_value=0, max_value=59)


@st.composite
def canonical_sex(draw):
    """(text, sign, integer digits, fractional digits) of a canonical numeral."""
    int_digits = draw(st.lists(digit, min_size=1, max_size=4))
    frac_digits = draw(st.lists(digit, min_size=0, max_size=4))
    sign = draw(st.sampled_from([1, -1]))
    while len(int_digits) > 1 and int_digits[0] == 0:
        del int_digits[0]
    while frac_digits and frac_digits[-1] == 0:
        del frac_digits[-1]
    if int_digits == [0] and not frac_digits:
        sign = 1
    text = ",".join(map(str, int_digits))
    if frac_digits:
        text += ";" + ",".join(map(str, frac_digits))
    if sign < 0:
        text = "-" + text
    return text, sign, int_digits, frac_digits


@given(canonical_sex())
def test_format_parse_round_trip(numeral):
    text = numeral[0]
    assert rational_to_sex(parse_sex(text), 20) == text


@given(canonical_sex())
def test_positional_round_trip(numeral):
    # The value is the digits' positional sum, and it needs exactly as many
    # fractional places as the text has fractional digits.
    text, sign, int_digits, frac_digits = numeral
    value = parse_sex(text)
    assert value == sign * positional_value(int_digits, frac_digits)
    assert rational_to_sex(value, len(frac_digits)) == text
    if frac_digits:
        with pytest.raises(PlacesExceededError):
            rational_to_sex(value, len(frac_digits) - 1)


@st.composite
def regular_rationals(draw):
    numerator = draw(st.integers(min_value=-(10**6), max_value=10**6))
    denominator = 2 ** draw(st.integers(0, 6)) * 3 ** draw(st.integers(0, 4)) * 5 ** draw(
        st.integers(0, 4)
    )
    return Fraction(numerator, denominator)


@given(regular_rationals())
def test_rational_round_trip(x):
    assert parse_sex(rational_to_sex(x, 20)) == x


@given(
    st.fractions(min_value=0, max_value=10**4, max_denominator=10**6),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=200)
def test_sqrt_sex_truncation_bounds(x, places):
    # Compare by squaring: truncation <= sqrt(x) < truncation + 60^-places.
    approx = parse_sex(sqrt_sex(x, places))
    step = Fraction(1, 60**places)
    assert approx * approx <= x
    assert (approx + step) * (approx + step) > x
