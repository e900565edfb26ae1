"""Tests of the benchmark itself: generators, checkers and tracing.

Run from the root of the checkout: python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def cli_output(argv: list[str]) -> tuple[int, str, str]:
    from trapwall import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    make = workloads.WORKLOADS[name]
    first = [(r.argv, r.items, r.expect_exit) for r in make(7)]
    assert first == [(r.argv, r.items, r.expect_exit) for r in make(7)]
    assert first != [(r.argv, r.items, r.expect_exit) for r in make(8)]


def test_sex_text_round_trips():
    for x in (Fraction(0), Fraction(5, 3), Fraction(10400), Fraction(7, 3600), Fraction(3601, 60)):
        assert checks.parse_sexagesimal(workloads.sex_text(x))[0] == x


def _change_one(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("fmt", ["table", "jsonl"])
def test_search_check_rejects_k0_off_by_one(fmt):
    window = (2, 20, 3, 100)
    _, out, _ = cli_output(["search", *map(str, window), "--format", fmt])
    assert checks.check_search(window, fmt, out) == {"hits": 10}
    old = "5\t10\t4\t" if fmt == "table" else '"r": 5, "n": 10, "k0": 4,'
    new = "5\t10\t5\t" if fmt == "table" else '"r": 5, "n": 10, "k0": 5,'
    with pytest.raises(checks.CheckError):
        checks.check_search(window, fmt, _change_one(out, old, new))


@pytest.mark.parametrize("fmt", ["table", "jsonl"])
def test_wall_check_rejects_k0_off_by_one(fmt):
    shape = (Fraction(5, 3), Fraction(1, 3), Fraction(1))
    _, out, err = cli_output(["wall", "1;40", "0;20", "1", "10", "--format", fmt])
    checks.check_wall(shape, 10, fmt, 5, out, err)
    old, new = ("k0 = 4", "k0 = 5") if fmt == "table" else ('"k0": 4', '"k0": 5')
    with pytest.raises(checks.CheckError):
        checks.check_wall(shape, 10, fmt, 5, _change_one(out, old, new), err)


@pytest.mark.parametrize("fmt", ["table", "jsonl"])
def test_strips_check_rejects_a_changed_digit(fmt):
    shape = (Fraction(5, 3), Fraction(1, 3), Fraction(1))
    _, out, _ = cli_output(["strips", "1;40", "0;20", "1", "3", "--format", fmt])
    checks.check_strips(shape, 3, fmt, 5, out)
    with pytest.raises(checks.CheckError):
        checks.check_strips(shape, 3, fmt, 5, _change_one(out, "0;28,53,20", "0;28,54,20"))


def test_strips_check_rejects_a_missing_truncated_flag():
    shape = (Fraction(5, 7), Fraction(2, 7), Fraction(1))
    _, out, _ = cli_output(["strips", "5/7", "2/7", "1", "3"])
    checks.check_strips(shape, 3, "table", 5, out)
    with pytest.raises(checks.CheckError):
        checks.check_strips(shape, 3, "table", 5, _change_one(out, " (truncated)", ""))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(list(range(1000))) == (99, 989)
    assert run.tail_percentile(list(range(40))) == (75, 29)


def _sample_requests() -> list[workloads.Request]:
    return workloads.search_scan(3)[:1] + workloads.cli_requests(3)[:60]


def test_traced_and_untraced_output_is_identical():
    modules = run.load_program(os.path.join(os.path.dirname(HERE), "src"))
    runner = run.Runner(modules["cli"], _sample_requests())
    runner.check_round()
    assert runner.failures == []
    tracer = Tracer()
    untraced, traced = runner.measure_traced(0, tracer, modules)
    assert runner.failures == []  # every traced reply equals its checked, untraced reply
    assert modules["cli"].main.__module__ == "trapwall.cli" and not hasattr(modules["cli"].main, "__wrapped__")
    names = set(tracer.names[i] for i in tracer.span_name)
    assert {"cli.main", "wall_solver.search_hits", "wall_solver.verify_split", "geometry.transversal_at",
            "sexagesimal.rational_to_sex", "party_wall.plan_wall"} <= names
    totals = tracer.totals(lambda request: 0)[0]
    assert totals["cli.main"][0] == len(runner.requests)
    assert totals["sexagesimal.rational_to_sex"][1] > 0  # raised NonTerminating errors are counted


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    tracer.request = 0
    outer()
    totals = tracer.totals(lambda request: request)[0]
    calls, raised, self_ns, span_ns = totals["m.outer"]
    assert (calls, raised) == (1, 0)
    assert self_ns == span_ns - totals["m.inner"][3]


def test_wrapper_reraises_unchanged():
    tracer = Tracer()
    error = ValueError("boom")

    def fail():
        raise error

    with pytest.raises(ValueError) as caught:
        tracer.wrap("m.fail", fail)()
    assert caught.value is error
    assert tracer.totals(lambda request: 0)[0]["m.fail"][:2] == [1, 1]
