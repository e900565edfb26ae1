"""Tests for the package's top-level namespace and for what its source may contain."""

import ast
from pathlib import Path
from types import ModuleType

import trapwall

PUBLIC_NAMES = [
    "DomainError",
    "NonTerminatingError",
    "ParseError",
    "PlacesExceededError",
    "TrapwallError",
    "QuadraticLength",
    "Trapezoid",
    "area",
    "complement_area",
    "cumulative_area",
    "transversal_at",
    "transversal_bisector",
    "transversal_given_upper_area",
    "PartyWallPlan",
    "TraceStep",
    "plan_wall",
    "scribe_trace_obverse1",
    "scribe_trace_smt26",
    "RegularFactorization",
    "is_regular",
    "isqrt",
    "parse_sex",
    "rational_to_sex",
    "reciprocal_regular",
    "sqrt_sex",
    "truncate_sex",
    "SearchHit",
    "discriminant_kernel",
    "k0_closed_form",
    "search_hits",
    "solve_k0",
    "verify_split",
]


def test_all_lists_the_public_names():
    assert sorted(trapwall.__all__) == sorted(PUBLIC_NAMES)
    assert len(trapwall.__all__) == len(set(trapwall.__all__)) == 32
    for name in trapwall.__all__:
        assert not isinstance(getattr(trapwall, name), ModuleType)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from trapwall import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)


def test_library_has_no_assert_and_no_float():
    # python -O strips assert statements, and exact arithmetic admits no float.
    allowed_math = {"isqrt", "lcm", "gcd"}
    for path in sorted(Path(trapwall.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            assert not isinstance(node, ast.Assert), where
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), where
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "float", where
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert node.value.id != "math" or node.attr in allowed_math, where
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                assert {alias.name for alias in node.names} <= allowed_math, where
