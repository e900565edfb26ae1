"""Full party-wall divisions and the SMT No. 26 tablet's step-by-step arithmetic.

The traces reproduce the tablet's computations value for value, with each
step carried both as an exact rational and as its base-60 rendering. The one
approximate step on the tablet (the truncated square root) is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import geometry
from .geometry import Trapezoid
from .sexagesimal import (
    MAX_EXACT_PLACES,
    SexValue,
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


# SMT No. 26's reverse problem as (trapezoid, strip count, wall index): widths
# 1;40 and 0;20, length 1, cut into 10 strips with the wall at strip 4.
SMT26_WALL = (Trapezoid(Fraction(5, 3), Fraction(1, 3), 1), 10, 4)


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


def _step(
    steps: list[TraceStep], label: str, what: str, value: Fraction, truncated: bool = False
) -> Fraction:
    """Append a computed value to the trace, with its exact base-60 text, and return it."""
    sex = rational_to_sex(value, MAX_EXACT_PLACES)
    steps.append(TraceStep(label, what, value, sex, truncated))
    return value


def scribe_trace_smt26() -> list[TraceStep]:
    """The reverse-side party-wall computation on SMT26_WALL: wall thickness 0;6.

    The last step checks that the plan's three areas make up the whole field.
    """
    trap, n, k0 = SMT26_WALL
    plan = plan_wall(trap, n, k0)
    upper, lower = trap.upper, trap.lower
    # The wall's thickness and the heights left and right of it, named as `wall` prints them.
    h0, h1, h2 = plan.wall_thickness, plan.left_height, plan.right_height
    steps: list[TraceStep] = []
    step = partial(_step, steps)

    diff = step("reverse L5", "upper width exceeds lower width", upper - lower)
    offset = step("reverse L6", "multiply the excess by the wall thickness", diff * h0)
    half_offset = step("reverse L6", "break it in two", offset / 2)
    upper_sq = step("reverse L7", "square of upper width", upper * upper)
    lower_sq = step("reverse L8", "square of lower width", lower * lower)
    sum_sq = step("reverse L8-9", "sum of squares", upper_sq + lower_sq)
    half_sum = step("reverse L9", "half of the sum", sum_sq / 2)
    # The scribe truncates the irrational root to one place and works with
    # that; for this data the truncation equals the exact wall midline.
    # Explicit raises, not asserts, so that python -O keeps the checks.
    midline = step(
        "reverse L9",
        "square root paced off, truncated to one place",
        sex_to_rational(sqrt_sex(half_sum, 1)),
        truncated=True,
    )
    if midline != plan.midline:
        raise AssertionError(f"truncated root {midline} is not the wall midline {plan.midline}")
    left_edge = step(
        "reverse L13", "left edge: wall width plus half the excess", midline + half_offset
    )
    right_edge = step(
        "reverse L13", "right edge: wall width minus half the excess", midline - half_offset
    )
    right_pair = step("reverse L13", "right edge plus lower width", right_edge + lower)
    step("reverse L14-15", "wall area: thickness times wall width", h0 * midline)
    right_product = step("reverse L16", "right height times the width sum", h2 * right_pair)
    step("reverse L16", "halve it: the right share", right_product / 2)
    left_pair = step("reverse L17", "upper width plus left edge", upper + left_edge)
    left_product = step("reverse L17", "left height times the width sum", h1 * left_pair)
    step("reverse L17", "halve it: the left share", left_product / 2)
    step("check", "S_left + S_wall + S_right", plan.left_area + plan.wall_area + plan.right_area)
    return steps


def scribe_trace_obverse1() -> list[TraceStep]:
    """The obverse problem: widths 2,10 and 30, length 3,45, upper area 4,30,0;
    find the transversal below the prescribed area."""
    upper = Fraction(130)
    lower = Fraction(30)
    height = Fraction(225)
    upper_area = Fraction(16200)
    steps: list[TraceStep] = []
    step = partial(_step, steps)

    diff = step("obverse L2", "upper width exceeds lower width", upper - lower)
    recip = step("obverse L3", "reciprocal of the length", reciprocal_regular(int(height)))
    ratio = step("obverse L3", "multiply by the excess", recip * diff)
    doubled = step("obverse L4", "double it", 2 * ratio)
    scaled = step("obverse L4", "multiply by the given upper area", doubled * upper_area)
    upper_sq = step("obverse L5", "square of upper width", upper * upper)
    remainder = step("obverse L6", "subtract", upper_sq - scaled)
    root_int, perfect = isqrt(int(remainder))
    if remainder.denominator != 1 or not perfect:
        raise AssertionError(f"{remainder} is not the square of an integer")
    step("obverse L6", "square root", Fraction(root_int))
    return steps
