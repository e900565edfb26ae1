"""Tests for the package's top-level namespace, what its source may contain, what
importing its CLI loads, and the contract of its result records."""

import ast
import importlib
import inspect
import json
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import trapwall
from trapwall import (
    DomainError,
    Trapezoid,
    TraceStep,
    is_regular,
    plan_wall,
    scribe_trace_smt26,
    search_hits,
    transversal_bisector,
)

from conftest import fresh_python

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
    "search_hits",
    "solve_k0",
    "verify_split",
]


def test_all_lists_the_public_names():
    assert sorted(trapwall.__all__) == sorted(PUBLIC_NAMES)
    assert len(trapwall.__all__) == len(set(trapwall.__all__)) == 30
    for name in trapwall.__all__:
        assert not isinstance(getattr(trapwall, name), ModuleType)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from trapwall import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)


def test_library_has_no_assert_and_no_float():
    # python -O strips assert statements, and exact arithmetic admits no float.
    allowed_math = {"isqrt", "gcd"}
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


def test_every_per_layer_benchmark_metric_names_a_public_function():
    # The benchmark's tracer wraps each public function that a layer module
    # defines, as "layer.function"; a metric "layer.function.stat" whose
    # function went or was renamed would silently measure nothing.
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    named = [metric["name"].split(".")[:2] for metric in spec["per_layer"] if metric["name"].count(".") == 2]
    assert named
    for layer, name in named:
        module = importlib.import_module(f"trapwall.{layer}")
        function = vars(module).get(name)
        assert not name.startswith("_") and inspect.isfunction(function), f"{layer}.{name}"
        assert function.__module__ == module.__name__, f"{layer}.{name}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Every one-shot command pays for what `import trapwall.cli` loads, and
    # dataclasses alone brings inspect, ast, dis and tokenize. Only what the
    # import adds counts, not what site loaded before it.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import trapwall.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    run = fresh_python("-c", script, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == ["[]"]


SMT26 = Trapezoid(Fraction(5, 3), Fraction(1, 3), 1)
# Each result record, the repr it prints and its fields in order.
RECORDS = [
    (
        is_regular(225),
        "RegularFactorization(pow2=0, pow3=2, pow5=2)",
        ("pow2", "pow3", "pow5"),
    ),
    (
        SMT26,
        "Trapezoid(upper=Fraction(5, 3), lower=Fraction(1, 3), height=Fraction(1, 1))",
        ("upper", "lower", "height"),
    ),
    (
        transversal_bisector(7, 1),
        "QuadraticLength(value_sq=Fraction(25, 1), exact_root=Fraction(5, 1))",
        ("value_sq", "exact_root"),
    ),
    (
        plan_wall(SMT26, 10, 4),
        "PartyWallPlan(left_edge=Fraction(19, 15), right_edge=Fraction(17, 15),"
        " midline=Fraction(6, 5), edge_diff=Fraction(2, 15), wall_thickness=Fraction(1, 10),"
        " left_height=Fraction(3, 10), right_height=Fraction(3, 5), left_area=Fraction(11, 25),"
        " wall_area=Fraction(3, 25), right_area=Fraction(11, 25))",
        (
            "left_edge", "right_edge", "midline", "edge_diff", "wall_thickness",
            "left_height", "right_height", "left_area", "wall_area", "right_area",
        ),
    ),
    (
        scribe_trace_smt26()[7],
        "TraceStep(label='reverse L9', description='square root paced off, truncated to one place',"
        " value=Fraction(6, 5), truncated=True)",
        ("label", "description", "value", "truncated"),
    ),
    (
        search_hits(5, 5, 10, 10)[0],
        "SearchHit(r=5, n=10, k0=4, n_regular=True)",
        ("r", "n", "k0", "n_regular"),
    ),
]


@pytest.mark.parametrize("record, text, fields", RECORDS, ids=[text.split("(")[0] for _, text, _ in RECORDS])
def test_result_records_are_immutable_named_tuples(record, text, fields):
    assert repr(record) == text
    assert type(record)._fields == fields
    values = tuple(getattr(record, field) for field in fields)
    # A record is the tuple of its values: it unpacks, compares and hashes as one.
    assert tuple(record) == values and record == values and hash(record) == hash(values)
    assert type(record)(*values) == record
    assert type(record)(**dict(zip(fields, values))) == record
    assert record._replace(**{fields[-1]: values[-1]}) == record
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        record.extra = None


def test_a_trace_step_is_not_truncated_by_default():
    step = TraceStep("reverse L5", "upper width exceeds lower width", Fraction(4, 3))
    assert step.truncated is False
    assert step == ("reverse L5", "upper width exceeds lower width", Fraction(4, 3), False)


@pytest.mark.parametrize(
    "widths_and_height, message",
    [
        ((1, 2, 1), "widths must satisfy upper >= lower > 0"),
        ((1, 0, 1), "widths must satisfy upper >= lower > 0"),
        ((2, 1, 0), "height must be positive"),
        ((2, 1, -1), "height must be positive"),
    ],
)
def test_every_way_of_making_a_trapezoid_checks_it(widths_and_height, message):
    # namedtuple's own _make and _replace build the tuple without __new__;
    # Trapezoid routes both through its checks.
    upper, lower, height = widths_and_height
    makers = [
        lambda: Trapezoid(upper, lower, height),
        lambda: Trapezoid._make(widths_and_height),
        lambda: SMT26._replace(upper=upper, lower=lower, height=height),
    ]
    for make in makers:
        with pytest.raises(DomainError, match=message):
            make()
    assert Trapezoid._make([Fraction(5, 3), Fraction(1, 3), 1]) == SMT26
    assert SMT26._replace(height=2) == (Fraction(5, 3), Fraction(1, 3), 2)
