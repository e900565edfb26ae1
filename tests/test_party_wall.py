"""Tests for party-wall plans and the tablet traces."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapwall
from trapwall.errors import DomainError
from trapwall.geometry import Trapezoid, area, transversal_at
from trapwall.party_wall import (
    plan_wall,
    scribe_trace_obverse1,
    scribe_trace_smt26,
)
from trapwall.sexagesimal import MAX_EXACT_PLACES, rational_to_sex
from trapwall.wall_solver import solve_k0, verify_split

SMT26 = Trapezoid(Fraction(5, 3), Fraction(1, 3), 1)

positive = st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60)


@st.composite
def wall_configs(draw):
    lower = draw(positive)
    upper = lower + draw(positive)
    height = draw(positive)
    n = draw(st.integers(min_value=3, max_value=40))
    k0 = draw(st.integers(min_value=2, max_value=n - 1))
    return Trapezoid(upper, lower, height), n, k0


def test_plan_wall_smt26_values():
    plan = plan_wall(SMT26, 10, 4)
    assert plan.left_edge == Fraction(19, 15)
    assert plan.right_edge == Fraction(17, 15)
    assert plan.midline == Fraction(6, 5)
    assert plan.edge_diff == Fraction(2, 15)
    assert plan.wall_thickness == Fraction(1, 10)
    assert plan.left_height == Fraction(3, 10)
    assert plan.right_height == Fraction(3, 5)
    assert plan.left_area == Fraction(11, 25)
    assert plan.wall_area == Fraction(3, 25)
    assert plan.right_area == Fraction(11, 25)
    assert plan.left_area + plan.wall_area + plan.right_area == 1


def test_plan_wall_rejects_bad_input():
    with pytest.raises(DomainError):
        plan_wall(Trapezoid(1, 1, 1), 10, 4)
    with pytest.raises(DomainError):
        plan_wall(SMT26, 10, 1)
    with pytest.raises(DomainError):
        plan_wall(SMT26, 10, 10)
    with pytest.raises(DomainError):
        plan_wall(SMT26, 2, 1)


@pytest.mark.parametrize(
    "trap, n, k0",
    [(Trapezoid(1, 1, 1), 10, 4), (SMT26, 10, 1), (SMT26, 10, 10), (SMT26, Fraction(10), 4)],
    ids=["equal widths", "k0 = 1", "k0 = n", "non-integer n"],
)
def test_plan_wall_and_verify_split_refuse_alike(trap, n, k0):
    with pytest.raises(DomainError) as planned:
        plan_wall(trap, n, k0)
    with pytest.raises(DomainError) as verified:
        verify_split(trap, n, k0)
    assert str(planned.value) == str(verified.value)


def test_plan_wall_without_equal_shares():
    plan = plan_wall(Trapezoid(5, 1, 2), 10, 5)
    assert plan.left_area != plan.right_area


@given(wall_configs())
@settings(max_examples=300)
def test_plan_invariants(config):
    trap, n, k0 = config
    plan = plan_wall(trap, n, k0)
    assert plan.left_area + plan.wall_area + plan.right_area == area(trap)
    assert plan.midline == (plan.left_edge + plan.right_edge) / 2
    assert plan.midline == transversal_at(trap, 2 * k0 - 1, 2 * n)
    assert plan.edge_diff == (trap.upper - trap.lower) / n
    assert plan.wall_area == plan.wall_thickness * plan.midline
    assert plan.left_height + plan.wall_thickness + plan.right_height == trap.height
    assert plan.left_edge == plan.midline + plan.edge_diff / 2
    assert plan.right_edge == plan.midline - plan.edge_diff / 2


def test_equal_share_equivalence():
    # The plan halves the remainder exactly when the solver admits the index.
    for ratio in (2, 3, 5, 9, 17):
        trap = Trapezoid(ratio, 1, 3)
        for n in range(3, 26):
            admitted = solve_k0(trap.upper, trap.lower, n)
            for k0 in range(2, n):
                plan = plan_wall(trap, n, k0)
                assert (plan.left_area == plan.right_area) == (k0 in admitted)


EXPECTED_REVERSE = [
    ("reverse L5", Fraction(4, 3), "1;20", False),
    ("reverse L6", Fraction(2, 15), "0;8", False),
    ("reverse L6", Fraction(1, 15), "0;4", False),
    ("reverse L7", Fraction(25, 9), "2;46,40", False),
    ("reverse L8", Fraction(1, 9), "0;6,40", False),
    ("reverse L8-9", Fraction(26, 9), "2;53,20", False),
    ("reverse L9", Fraction(13, 9), "1;26,40", False),
    ("reverse L9", Fraction(6, 5), "1;12", True),
    ("reverse L13", Fraction(19, 15), "1;16", False),
    ("reverse L13", Fraction(17, 15), "1;8", False),
    ("reverse L13", Fraction(22, 15), "1;28", False),
    ("reverse L14-15", Fraction(3, 25), "0;7,12", False),
    ("reverse L16", Fraction(22, 25), "0;52,48", False),
    ("reverse L16", Fraction(11, 25), "0;26,24", False),
    ("reverse L17", Fraction(44, 15), "2;56", False),
    ("reverse L17", Fraction(22, 25), "0;52,48", False),
    ("reverse L17", Fraction(11, 25), "0;26,24", False),
    ("check", Fraction(1), "1", False),
]


def sex_text(step):
    """The step's exact base-60 text; raises when its value has none within MAX_EXACT_PLACES.

    Traces carry values, not text, and the CLI renders a value without an
    exact form as truncated text: the golden tests below, which render every
    step of both traces here, are what keeps every step exact.
    """
    return rational_to_sex(step.value, MAX_EXACT_PLACES)


def test_scribe_trace_smt26_golden():
    steps = scribe_trace_smt26()
    assert [(s.label, s.value, sex_text(s), s.truncated) for s in steps] == EXPECTED_REVERSE


def test_scribe_trace_smt26_descriptions():
    steps = scribe_trace_smt26()
    by_description = {s.description: s for s in steps}
    assert by_description["square of upper width"].value == Fraction(25, 9)
    assert by_description["sum of squares"].value == Fraction(26, 9)
    shares = [s for s in steps if sex_text(s) == "0;26,24"]
    assert len(shares) == 2


EXPECTED_OBVERSE = [
    ("obverse L2", Fraction(100), "1,40"),
    ("obverse L3", Fraction(1, 225), "0;0,16"),
    ("obverse L3", Fraction(4, 9), "0;26,40"),
    ("obverse L4", Fraction(8, 9), "0;53,20"),
    ("obverse L4", Fraction(14400), "4,0,0"),
    ("obverse L5", Fraction(16900), "4,41,40"),
    ("obverse L6", Fraction(2500), "41,40"),
    ("obverse L6", Fraction(50), "50"),
]


def test_scribe_trace_obverse1_golden():
    steps = scribe_trace_obverse1()
    assert [(s.label, s.value, sex_text(s)) for s in steps] == EXPECTED_OBVERSE
    assert not any(s.truncated for s in steps)
    by_description = {s.description: s for s in steps}
    assert by_description["reciprocal of the length"].value == Fraction(1, 225)
    assert by_description["subtract"].value == 2500
    assert by_description["square root"].value == 50


def test_trace_truncation_coincides_with_exact_midline():
    # The tablet's truncated root equals the exact wall midline for this data.
    steps = scribe_trace_smt26()
    truncated = [s for s in steps if s.truncated]
    assert len(truncated) == 1
    assert truncated[0].value == plan_wall(SMT26, 10, 4).midline


def run_under_python_O(script):
    """The stdout lines of script run by python -O with this checkout's package."""
    src = str(Path(trapwall.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return run.stdout.splitlines()


def test_trace_checks_survive_python_O():
    # Under python -O the traces still check their own arithmetic: a root
    # truncated off the midline, or a remainder that is not a perfect square,
    # makes them raise instead of returning a wrong trace.
    script = (
        "from trapwall import party_wall\n"
        "print(len(party_wall.scribe_trace_smt26()), len(party_wall.scribe_trace_obverse1()))\n"
        "party_wall.sqrt_sex = lambda x, places: '1;13'\n"
        "party_wall.isqrt = lambda m: (50, False)\n"
        "for trace in (party_wall.scribe_trace_smt26, party_wall.scribe_trace_obverse1):\n"
        "    try:\n"
        "        trace()\n"
        "    except AssertionError:\n"
        "        print('rejected')\n"
    )
    counts = f"{len(scribe_trace_smt26())} {len(scribe_trace_obverse1())}"
    assert run_under_python_O(script) == [counts, "rejected", "rejected"]


def test_traces_check_their_results_against_the_library_under_python_O():
    # The reverse trace compares every value it shares with plan_wall, the
    # right share among them, and the obverse trace compares its root with
    # geometry's exact transversal: a mismatch raises, also under python -O.
    script = (
        "from trapwall import party_wall\n"
        "plan_wall = party_wall.plan_wall\n"
        "def skewed(*args):\n"
        "    plan = plan_wall(*args)\n"
        "    return plan._replace(right_area=plan.right_area + 1)\n"
        "party_wall.plan_wall = skewed\n"
        "party_wall.isqrt = lambda m: (51, True)\n"
        "for trace in (party_wall.scribe_trace_smt26, party_wall.scribe_trace_obverse1):\n"
        "    try:\n"
        "        trace()\n"
        "    except AssertionError:\n"
        "        print('rejected')\n"
    )
    assert run_under_python_O(script) == ["rejected", "rejected"]
