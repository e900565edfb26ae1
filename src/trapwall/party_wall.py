"""Full party-wall divisions and the SMT No. 26 tablet's step-by-step arithmetic.

The traces reproduce the tablet's computations value for value, with each
step carried both as an exact rational and as its base-60 rendering. The one
approximate step on the tablet (the truncated square root) is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import geometry
from .errors import DomainError
from .geometry import Rational, Trapezoid
from .sexagesimal import (
    SexValue,
    exact_fraction,
    isqrt,
    rational_to_sex,
    reciprocal_regular,
    sex_to_rational,
    sqrt_sex,
)


@dataclass(frozen=True)
class PartyWallPlan:
    """A solved division: wall edges, midline, heights and the three areas."""

    left_edge: Fraction
    right_edge: Fraction
    midline: Fraction
    edge_diff: Fraction
    wall_thickness: Fraction
    left_height: Fraction
    right_height: Fraction
    left_area: Fraction
    wall_area: Fraction
    right_area: Fraction


@dataclass(frozen=True)
class TraceStep:
    """One tablet computation: line label, what it does, exact value, base-60 text."""

    label: str
    description: str
    value: Fraction
    sex: SexValue
    truncated: bool = False


def wall_offset(trap: Trapezoid, thickness: Rational) -> Fraction:
    """Difference between the two wall edges: thickness * (upper - lower) / height."""
    h0 = exact_fraction(thickness, "wall thickness")
    if not 0 < h0 < trap.height:
        raise DomainError("wall thickness must lie strictly between 0 and the height")
    return h0 * (trap.upper - trap.lower) / trap.height


def plan_wall(trap: Trapezoid, n: int, k0: int) -> PartyWallPlan:
    """Divide the trapezoid with strip k0 of n as the party wall.

    The equal-share condition is not required: the plan reports whatever
    areas the data yields, and equality is a checkable property.
    """
    geometry.check_wall_index(trap, n, k0)
    thickness = trap.height / n
    left_edge = geometry.transversal_at(trap, k0 - 1, n)
    right_edge = geometry.transversal_at(trap, k0, n)
    midline = (left_edge + right_edge) / 2
    return PartyWallPlan(
        left_edge=left_edge,
        right_edge=right_edge,
        midline=midline,
        edge_diff=left_edge - right_edge,
        wall_thickness=thickness,
        left_height=(k0 - 1) * thickness,
        right_height=(n - k0) * thickness,
        left_area=geometry.cumulative_area(trap, k0 - 1, n),
        wall_area=thickness * midline,
        right_area=geometry.complement_area(trap, k0, n),
    )


def _step(label: str, description: str, value: Fraction, truncated: bool = False) -> TraceStep:
    return TraceStep(label, description, value, rational_to_sex(value, 20), truncated)


def scribe_trace_smt26() -> list[TraceStep]:
    """The reverse-side party-wall computation: widths 1;40 and 0;20, length 1,
    wall thickness 0;6 (so 10 strips, wall at strip 4)."""
    upper = Fraction(5, 3)
    lower = Fraction(1, 3)
    thickness = Fraction(1, 10)
    left_height = Fraction(3, 10)
    right_height = Fraction(3, 5)

    diff = upper - lower
    offset = diff * thickness
    half_offset = offset / 2
    upper_sq = upper * upper
    lower_sq = lower * lower
    sum_sq = upper_sq + lower_sq
    half_sum = sum_sq / 2
    # The scribe truncates the irrational root to one place and works with
    # that; for this data the truncation equals the exact wall midline 6/5.
    # Explicit raises, not asserts, so that python -O keeps the checks.
    midline = sex_to_rational(sqrt_sex(half_sum, 1))
    if midline != Fraction(6, 5):
        raise AssertionError(f"truncated root {midline} is not the wall midline 6/5")
    left_edge = midline + half_offset
    right_edge = midline - half_offset
    right_pair = right_edge + lower
    wall_area = thickness * midline
    right_product = right_height * right_pair
    right_share = right_product / 2
    left_pair = upper + left_edge
    left_product = left_height * left_pair
    left_share = left_product / 2

    return [
        _step("reverse L5", "upper width exceeds lower width", diff),
        _step("reverse L6", "multiply the excess by the wall thickness", offset),
        _step("reverse L6", "break it in two", half_offset),
        _step("reverse L7", "square of upper width", upper_sq),
        _step("reverse L8", "square of lower width", lower_sq),
        _step("reverse L8-9", "sum of squares", sum_sq),
        _step("reverse L9", "half of the sum", half_sum),
        _step(
            "reverse L9",
            "square root paced off, truncated to one place",
            midline,
            truncated=True,
        ),
        _step("reverse L13", "left edge: wall width plus half the excess", left_edge),
        _step("reverse L13", "right edge: wall width minus half the excess", right_edge),
        _step("reverse L13", "right edge plus lower width", right_pair),
        _step("reverse L14-15", "wall area: thickness times wall width", wall_area),
        _step("reverse L16", "right height times the width sum", right_product),
        _step("reverse L16", "halve it: the right share", right_share),
        _step("reverse L17", "upper width plus left edge", left_pair),
        _step("reverse L17", "left height times the width sum", left_product),
        _step("reverse L17", "halve it: the left share", left_share),
    ]


def scribe_trace_obverse1() -> list[TraceStep]:
    """The obverse problem: widths 2,10 and 30, length 3,45, upper area 4,30,0;
    find the transversal below the prescribed area."""
    upper = Fraction(130)
    lower = Fraction(30)
    height = Fraction(225)
    upper_area = Fraction(16200)

    diff = upper - lower
    recip = reciprocal_regular(int(height))
    ratio = recip * diff
    doubled = 2 * ratio
    scaled = doubled * upper_area
    upper_sq = upper * upper
    remainder = upper_sq - scaled
    root_int, perfect = isqrt(int(remainder))
    if remainder.denominator != 1 or not perfect:
        raise AssertionError(f"{remainder} is not the square of an integer")
    root = Fraction(root_int)

    return [
        _step("obverse L2", "upper width exceeds lower width", diff),
        _step("obverse L3", "reciprocal of the length", recip),
        _step("obverse L3", "multiply by the excess", ratio),
        _step("obverse L4", "double it", doubled),
        _step("obverse L4", "multiply by the given upper area", scaled),
        _step("obverse L5", "square of upper width", upper_sq),
        _step("obverse L6", "subtract", remainder),
        _step("obverse L6", "square root", root),
    ]
