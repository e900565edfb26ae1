"""Tests for the package's top-level namespace."""

from types import ModuleType

import trapwall

PUBLIC_NAMES = [
    "DomainError",
    "IrrationalRootsError",
    "NonTerminatingError",
    "NotRegularError",
    "ParseError",
    "PlacesExceededError",
    "TrapwallError",
    "NestedRadical",
    "QuadraticLength",
    "Trapezoid",
    "area",
    "complement_area",
    "cumulative_area",
    "midpoint_connector",
    "midpoint_connector_from_leg",
    "parallelogram_diagonal",
    "transversal_at",
    "transversal_bisector",
    "transversal_given_upper_area",
    "triangle_median",
    "triangle_parallel_bisector",
    "PartyWallPlan",
    "TraceStep",
    "plan_wall",
    "scribe_trace_obverse1",
    "scribe_trace_smt26",
    "wall_offset",
    "RegularFactorization",
    "SexValue",
    "format_sex",
    "is_regular",
    "isqrt",
    "parse_sex",
    "rational_to_sex",
    "reciprocal_regular",
    "sex_to_rational",
    "sqrt_sex",
    "truncate_sex",
    "SearchHit",
    "WallQuadratic",
    "discriminant",
    "discriminant_kernel",
    "k0_closed_form",
    "search_hits",
    "solve_k0",
    "verify_split",
    "wall_quadratic",
]


def test_all_lists_the_public_names():
    assert sorted(trapwall.__all__) == sorted(PUBLIC_NAMES)
    assert len(trapwall.__all__) == len(set(trapwall.__all__)) == 47
    for name in trapwall.__all__:
        assert not isinstance(getattr(trapwall, name), ModuleType)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from trapwall import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
