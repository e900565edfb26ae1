"""Full party-wall divisions and the SMT No. 26 tablet's step-by-step arithmetic.

The traces reproduce the tablet's computations value for value, each step
carried as an exact rational; the CLI renders them in base 60. The one
approximate step on the tablet (the truncated square root) is flagged.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial

from . import geometry
from .geometry import Trapezoid
from .sexagesimal import isqrt, parse_sex, reciprocal_regular, sqrt_sex


class PartyWallPlan(
    namedtuple(
        "PartyWallPlan",
        "left_edge right_edge midline edge_diff wall_thickness"
        " left_height right_height left_area wall_area right_area",
    )
):
    """A solved division: wall edges, midline, heights and the three areas."""

    __slots__ = ()


class TraceStep(namedtuple("TraceStep", "label description value truncated", defaults=(False,))):
    """One tablet computation: line label, what it does, its exact value, and
    whether the scribe truncated it. The value is never text: the CLI renders it."""

    __slots__ = ()


# SMT No. 26's reverse problem as (trapezoid, strip count, wall index): widths
# 1;40 and 0;20, length 1, cut into 10 strips with the wall at strip 4.
SMT26_WALL = (Trapezoid(Fraction(5, 3), Fraction(1, 3), 1), 10, 4)
# SMT No. 26's first obverse problem as (trapezoid, upper area): widths 2,10
# and 30, length 3,45, with the area 4,30,0 prescribed next to the wide end.
SMT26_OBVERSE = (Trapezoid(130, 30, 225), Fraction(16200))


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
    """Append a computed value to the trace and return it; the trace holds no text."""
    steps.append(TraceStep(label, what, value, truncated))
    return value


def scribe_trace_smt26() -> list[TraceStep]:
    """The reverse-side party-wall computation on SMT26_WALL: wall thickness 0;6.

    Every value the scribe shares with plan_wall must equal the plan's, and
    the last step sums the scribe's three areas, which make up the whole field.
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
    # the numeral written; for this data it equals the exact wall midline.
    midline = step(
        "reverse L9",
        "square root paced off, truncated to one place",
        parse_sex(sqrt_sex(half_sum, 1)),
        truncated=True,
    )
    left_edge = step(
        "reverse L13", "left edge: wall width plus half the excess", midline + half_offset
    )
    right_edge = step(
        "reverse L13", "right edge: wall width minus half the excess", midline - half_offset
    )
    right_pair = step("reverse L13", "right edge plus lower width", right_edge + lower)
    wall_area = step("reverse L14-15", "wall area: thickness times wall width", h0 * midline)
    right_product = step("reverse L16", "right height times the width sum", h2 * right_pair)
    right_area = step("reverse L16", "halve it: the right share", right_product / 2)
    left_pair = step("reverse L17", "upper width plus left edge", upper + left_edge)
    left_product = step("reverse L17", "left height times the width sum", h1 * left_pair)
    left_area = step("reverse L17", "halve it: the left share", left_product / 2)
    step("check", "S_left + S_wall + S_right", left_area + wall_area + right_area)
    # The plan with the scribe's values put in must be the plan itself: an
    # explicit raise, not an assert, so that python -O keeps the check.
    scribe = plan._replace(
        midline=midline, left_edge=left_edge, right_edge=right_edge,
        wall_area=wall_area, right_area=right_area, left_area=left_area,
    )
    if scribe != plan:
        raise AssertionError(f"the scribe's values {scribe} are not the plan's {plan}")
    return steps


def scribe_trace_obverse1() -> list[TraceStep]:
    """The obverse problem SMT26_OBVERSE: find the transversal below the prescribed
    area. The root must be geometry's exact transversal for the same data."""
    trap, upper_area = SMT26_OBVERSE
    upper, lower, height = trap.upper, trap.lower, trap.height
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
    root = step("obverse L6", "square root", Fraction(root_int))
    if root != geometry.transversal_given_upper_area(*SMT26_OBVERSE).exact_root:
        raise AssertionError(f"root {root} is not geometry's exact transversal")
    return steps
