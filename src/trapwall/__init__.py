"""Exact trapezoid bisection by transversal strips, with base-60 arithmetic."""

from types import ModuleType as _ModuleType

from .errors import (
    DomainError,
    NonTerminatingError,
    ParseError,
    PlacesExceededError,
    TrapwallError,
)
from .geometry import (
    QuadraticLength,
    Trapezoid,
    area,
    complement_area,
    cumulative_area,
    transversal_at,
    transversal_bisector,
    transversal_given_upper_area,
)
from .party_wall import (
    PartyWallPlan,
    TraceStep,
    plan_wall,
    scribe_trace_obverse1,
    scribe_trace_smt26,
)
from .sexagesimal import (
    RegularFactorization,
    is_regular,
    isqrt,
    parse_sex,
    rational_to_sex,
    reciprocal_regular,
    sqrt_sex,
    truncate_sex,
)
from .wall_solver import (
    SearchHit,
    search_hits,
    solve_k0,
    verify_split,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules bound by those imports are not API.
__all__ = [
    name
    for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
