"""End-to-end tests of the command line surface, including exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapwall
from trapwall import cli, errors, geometry
from trapwall.cli import build_parser, main
from trapwall.party_wall import plan_wall
from trapwall.wall_solver import solve_k0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl_records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_convert_to_rational(capsys):
    code, out, _ = run_cli(capsys, "convert", "2,53,20", "--numeral", "rat")
    assert code == 0 and out.strip() == "10400"


def test_convert_to_sexagesimal(capsys):
    code, out, _ = run_cli(capsys, "convert", "5/3")
    assert code == 0 and out.strip() == "1;40"
    code, out, _ = run_cli(capsys, "convert", "+5/3")
    assert code == 0 and out.strip() == "1;40"
    code, out, _ = run_cli(capsys, "convert", "007")
    assert code == 0 and out.strip() == "7"


def test_convert_nonterminating_without_places(capsys):
    code, _, err = run_cli(capsys, "convert", "1/7")
    assert code == 3 and "not regular" in err


def test_convert_nonterminating_with_places(capsys):
    code, out, _ = run_cli(capsys, "convert", "1/7", "--places", "3")
    assert code == 0 and out.strip() == "0;8,34,17 (truncated)"


def test_convert_parse_error(capsys):
    code, _, err = run_cli(capsys, "convert", "1;60")
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, "convert", "1.5")
    assert code == 2
    code, _, _ = run_cli(capsys, "convert", "1/0")
    assert code == 2
    code, _, err = run_cli(capsys, "convert", "5/00")
    assert code == 2 and err == "error: zero denominator\n"
    # A numeral has no '/', so other text with one is refused as a ratio.
    for text in ("5/-3", "1/2/3"):
        assert run_cli(capsys, "convert", text) == (2, "", f"error: malformed ratio {text!r}\n")


def test_convert_decimal_labeled_approx(capsys):
    code, out, _ = run_cli(capsys, "convert", "5/3", "--numeral", "dec", "--places", "4")
    assert code == 0 and out.strip() == "1.6666 (approx)"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["--numeral", "dec", "--places", "0", "--", "-1/3"], "0 (approx)"),
        (["--numeral", "dec", "--", "-1/3000000"], "0.00000 (approx)"),
        (["--numeral", "dec", "--places", "2", "--", "-5/3"], "-1.66 (approx)"),
    ],
)
def test_convert_decimal_zero_is_unsigned(capsys, argv, text):
    code, out, _ = run_cli(capsys, "convert", *argv)
    assert code == 0 and out == text + "\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["convert", "-5/13", "--places", "3"], "-0;23,4,36 (truncated)\n"),
        (["convert", "-1;40"], "-1;40\n"),
        (["convert", "--numeral", "rat", "-1;40"], "-5/3\n"),
    ],
)
def test_negative_value_as_positional(capsys, argv, text):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == text


@pytest.mark.parametrize(
    "argv",
    [
        ["bisect", "-1;40", "0;20"],
        ["strips", "1;40", "0;20", "-1", "10"],
        ["wall", "1;40", "-0;20", "1", "10"],
    ],
)
def test_negative_width_or_height_is_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 4 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["convert", "-x"], ["convert", "-1;40", "-x"]])
def test_dash_letter_is_still_an_option(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_convert_jsonl(capsys):
    code, out, _ = run_cli(capsys, "convert", "5/3", "--format", "jsonl")
    (record,) = jsonl_records(out)
    assert code == 0
    assert record == {"rational": "5/3", "sexagesimal": "1;40", "truncated": False}


@pytest.mark.parametrize(
    "numeral", [[], ["--numeral", "sex"], ["--numeral", "rat"], ["--numeral", "dec"]], ids=lambda argv: " ".join(argv) or "default"
)
def test_convert_jsonl_truncates_only_with_places(capsys, numeral):
    # A JSONL record carries the base-60 text whatever --numeral says, so only
    # --places asks for a truncated one; without it no exact form is exit 3.
    argv = ["convert", "1/7", "--format", "jsonl", *numeral]
    assert run_cli(capsys, *argv) == (3, "", "error: denominator 7 is not regular\n")
    code, out, err = run_cli(capsys, *argv, "--places", "5")
    assert code == 0 and err == ""
    assert jsonl_records(out) == [{"rational": "1/7", "sexagesimal": "0;8,34,17,8,34", "truncated": True}]


def test_bisect_exact(capsys):
    code, out, _ = run_cli(capsys, "bisect", "35", "5")
    assert code == 0
    assert "d^2 = 10,25" in out and "d = 25" in out


def test_bisect_truncated_root(capsys):
    code, out, _ = run_cli(capsys, "bisect", "1;40", "0;20", "--places", "5")
    assert code == 0
    assert "d^2 = 1;26,40" in out
    assert "d = 1;12,6,39,41,30 (truncated)" in out
    # An irrational root in the other two numeral modes: d^2 = 5/2.
    code, out, _ = run_cli(capsys, "bisect", "2", "1", "--numeral", "rat")
    assert (code, out) == (0, "d^2 = 5/2\nd = sqrt(5/2)\n")
    for places, root in ([], "1.58113"), (["--places", "0"], "1"):
        code, out, _ = run_cli(capsys, "bisect", "2", "1", "--numeral", "dec", *places)
        assert code == 0
        assert out.splitlines()[1] == f"d = {root} (approx)"


def test_bisect_of_huge_denominators_prints_truncated_lines(capsys):
    # d^2 has a denominator of some 8,000 digits, more than int() writes out:
    # the NonTerminatingError that renders it as truncated must not need its text.
    value = "1/" + "7" * 4000
    code, out, err = run_cli(capsys, "bisect", value, value)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["d^2 = 0 (truncated)", "d = 0 (truncated)"]


def test_bisect_domain_error(capsys):
    code, _, err = run_cli(capsys, "bisect", "1", "2")
    assert code == 4 and "error" in err


def test_bisect_jsonl(capsys):
    code, out, _ = run_cli(capsys, "bisect", "1;40", "0;20", "--format", "jsonl")
    (record,) = jsonl_records(out)
    assert code == 0
    assert record["d_sq"] == {"rational": "13/9", "sexagesimal": "1;26,40"}
    assert record["d"] is None
    assert record["d_truncated"] == "1;12,6,39,41,30"


def test_strips_smt26(capsys):
    code, out, _ = run_cli(capsys, "strips", "1;40", "0;20", "1", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k\td\tS\tS'"
    assert len(lines) == 12
    row3 = lines[4].split("\t")
    assert row3 == ["3", "1;16", "0;26,24", "0;33,36"]


def test_strips_single(capsys):
    code, out, _ = run_cli(capsys, "strips", "130", "30", "225", "1", "--numeral", "rat")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert rows == [["0", "130", "0", "18000"], ["1", "30", "18000", "0"]]


def test_strips_midpoint(capsys):
    code, out, _ = run_cli(capsys, "strips", "130", "30", "225", "2", "--numeral", "rat")
    assert code == 0
    assert out.splitlines()[2].split("\t")[1] == "80"


@pytest.mark.parametrize("n", ["-3", "0"])
def test_strips_rejects_bad_count_before_output(capsys, n):
    code, out, err = run_cli(capsys, "strips", "1;40", "0;20", "1", n)
    assert (code, out, err) == (4, "", "error: strip count must be an integer >= 1\n")


@pytest.mark.parametrize(
    "bounds, refusal",
    [
        (["1", "20", "3", "10"], "r_lo must be an integer >= 2"),
        (["5", "2", "3", "10"], "r_hi must be an integer >= 5"),
        (["2", "20", "2", "10"], "n_lo must be an integer >= 3"),
        (["2", "20", "10", "3"], "n_hi must be an integer >= 10"),
    ],
)
def test_search_refuses_bad_bounds_as_wall_refuses_a_bad_count(capsys, bounds, refusal):
    code, out, err = run_cli(capsys, "search", *bounds)
    assert (code, out, err) == (4, "", f"error: {refusal}\n")


# Ten in Arabic-Indic and in full-width digits: int() reads both.
ARABIC_TEN = "\u0661\u0660"
WIDE_TEN = "\uff11\uff10"
# int() refuses text of more digits than its limit, 4,300 unless changed.
LONG = "1" * 5000
TOO_LONG = f"more than {sys.get_int_max_str_digits()} digits in one number"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["strips", "5/3", "1/3", "1", "1_0"], "argument n: invalid int value: '1_0'"),
        (["wall", "5/3", "1/3", "1", ARABIC_TEN], f"argument n: invalid int value: '{ARABIC_TEN}'"),
        (["search", "2", "20", "3", WIDE_TEN], f"argument n_hi: invalid int value: '{WIDE_TEN}'"),
        (["convert", "5/3", "--places", "1_0"], "argument --places: invalid places '1_0'"),
        (["strips", "5/3", "1/3", "1", "x"], "argument n: invalid int value: 'x'"),
        (["convert", "5/3", "--places", "x"], "argument --places: invalid places 'x'"),
        (["strips", "5/3", "1/3", "1", LONG], f"argument n: {TOO_LONG}"),
        (["convert", "5/3", "--places", LONG], f"argument --places: {TOO_LONG}"),
    ],
)
def test_integer_arguments_take_ascii_digits_only(capsys, argv, refusal):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"trapwall {argv[0]}: error: {refusal}"


@pytest.mark.parametrize("text", ["1_0", "1e3", ARABIC_TEN, WIDE_TEN])
def test_values_take_ascii_digits_only(capsys, text):
    # Fraction() reads each of these; a value is p/q, an integer or a numeral.
    for argv in (["convert", text], ["wall", text, "1", "1", "10"]):
        assert run_cli(capsys, *argv) == (2, "", f"error: malformed digit {text!r}\n")


@pytest.mark.parametrize(
    "text, refusal",
    [
        (LONG, TOO_LONG),
        (f"-5/{LONG}", TOO_LONG),
        (f"1;{LONG}", f"digit {LONG} exceeds 59"),
        (f"{LONG};1", f"digit {LONG} exceeds 59"),
    ],
    ids=["integer", "denominator", "fractional digit", "integer digit"],
)
def test_over_long_values_are_parse_errors(capsys, text, refusal):
    for argv in (["convert", text], ["bisect", text, "1"]):
        assert run_cli(capsys, *argv) == (2, "", f"error: {refusal}\n")


# 60**3001 - 1: a numeral of 3,001 digits, an integer of some 5,300 decimal digits.
HUGE_NUMERAL = ",".join(["59"] * 3001)


@pytest.mark.parametrize(
    "flags", [["--numeral", "rat"], ["--numeral", "dec"], ["--format", "jsonl"]]
)
def test_convert_refuses_a_value_too_long_to_write_out(capsys, flags):
    # Base-60 text of the value prints; its decimal integers would pass int()'s limit.
    # bisect and wall compose every line before the first prints.
    refusal = f"error: cannot write the value out: {TOO_LONG}\n"
    for argv in (
        ["convert", HUGE_NUMERAL],
        ["bisect", HUGE_NUMERAL, "1"],
        ["wall", "5", "1", HUGE_NUMERAL, "10"],
    ):
        assert run_cli(capsys, *argv, *flags) == (3, "", refusal), argv[0]
    # strips prints row by row: its table header is out before row 0 is refused.
    header = "" if "jsonl" in flags else "k\td\tS\tS'\n"
    assert run_cli(capsys, "strips", HUGE_NUMERAL, "1", "1", "2", *flags) == (3, header, refusal)
    code, out, err = run_cli(capsys, "convert", HUGE_NUMERAL)
    assert (code, out, err) == (0, HUGE_NUMERAL + "\n", "")
    # Decimal text of 1 - 60**-3001 never writes the denominator out.
    code, out, err = run_cli(capsys, "convert", "0;" + HUGE_NUMERAL, "--numeral", "dec")
    assert (code, out, err) == (0, "0.99999 (approx)\n", "")


@pytest.mark.parametrize("text", ["+10", "010", " 10 "])
def test_integer_arguments_take_a_sign_leading_zeros_and_spaces(capsys, text):
    expected = run_cli(capsys, "strips", "5/3", "1/3", "1", "10")
    assert expected[0] == 0
    assert run_cli(capsys, "strips", "5/3", "1/3", "1", text) == expected
    expected = run_cli(capsys, "convert", "1/7", "--places", "10")
    assert run_cli(capsys, "convert", "1/7", "--places", text) == expected


def test_wall_smt26(capsys):
    code, out, _ = run_cli(capsys, "wall", "1;40", "0;20", "1", "10")
    assert code == 0
    assert "k0 = 4" in out
    assert "S_left = 0;26,24" in out
    assert "S_wall = 0;7,12" in out
    assert "S_right = 0;26,24" in out


def test_wall_rejects_small_strip_count(capsys):
    code, out, err = run_cli(capsys, "wall", "2", "1", "1", "2")
    assert (code, out, err) == (4, "", "error: strip count must be an integer >= 3\n")


def test_wall_no_solution(capsys):
    code, out, _ = run_cli(capsys, "wall", "2", "1", "1", "10")
    assert code == 1 and "no admissible wall" in out


def test_wall_table1_row(capsys):
    code, out, _ = run_cli(capsys, "wall", "17", "1", "1", "8")
    assert code == 0 and "k0 = 3" in out


def test_wall_jsonl_plan_shape(capsys):
    code, out, _ = run_cli(capsys, "wall", "1;40", "0;20", "1", "10", "--format", "jsonl")
    (record,) = jsonl_records(out)
    assert code == 0 and record["k0"] == 4
    for key, rational, sexagesimal in [
        ("c", "19/15", "1;16"),
        ("e", "17/15", "1;8"),
        ("d_mid", "6/5", "1;12"),
        ("x", "2/15", "0;8"),
        ("h0", "1/10", "0;6"),
        ("h1", "3/10", "0;18"),
        ("h2", "3/5", "0;36"),
        ("S_left", "11/25", "0;26,24"),
        ("S_wall", "3/25", "0;7,12"),
        ("S_right", "11/25", "0;26,24"),
    ]:
        assert record[key] == {"rational": rational, "sexagesimal": sexagesimal}


def test_search_small_range(capsys):
    code, out, _ = run_cli(capsys, "search", "17", "17", "3", "10")
    assert code == 0
    lines = out.splitlines()
    assert "17\t8\t3\tyes" in lines
    assert lines[-1] == "8 cases, 1 hits"


def test_search_jsonl(capsys):
    code, out, _ = run_cli(capsys, "search", "5", "6", "3", "30", "--format", "jsonl")
    records = jsonl_records(out)
    assert code == 0
    assert records[0] == {"r": 5, "n": 10, "k0": 4, "n_regular": True}
    assert records[1] == {"r": 6, "n": 25, "k0": 9, "n_regular": True}
    assert records[2] == {"cases": 56, "hits": 2}


def test_search_regular_only(capsys):
    code, out, _ = run_cli(capsys, "search", "2", "20", "3", "30", "--regular-only")
    assert code == 0
    body = [line for line in out.splitlines()[1:-1]]
    assert body == ["5\t10\t4\tyes", "6\t25\t9\tyes", "9\t20\t7\tyes"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "2", "6", "3", "30", "--numeral", "dec"],
        ["search", "2", "6", "3", "30", "--places", "3"],
        ["smt26", "--numeral", "rat"],
        ["smt26", "--places", "2"],
    ],
)
def test_search_and_smt26_reject_numeral_options(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_smt26_reverse(capsys):
    code, out, _ = run_cli(capsys, "smt26", "--part", "reverse")
    assert code == 0
    assert out.count("0;26,24") == 2
    assert "1;12 (truncated)" in out
    assert out.splitlines()[-1].endswith("1")


def test_smt26_obverse1(capsys):
    code, out, _ = run_cli(capsys, "smt26", "--part", "obverse1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].split("\t") == ["obverse L6", "square root", "50"]


def test_smt26_jsonl_step_shape(capsys):
    code, out, _ = run_cli(capsys, "smt26", "--part", "reverse", "--format", "jsonl")
    records = jsonl_records(out)
    assert code == 0
    for record in records:
        assert set(record) == {"label", "description", "rational", "sexagesimal", "truncated"}
    assert records[0] == {
        "label": "reverse L5",
        "description": "upper width exceeds lower width",
        "rational": "4/3",
        "sexagesimal": "1;20",
        "truncated": False,
    }
    assert records[-1]["rational"] == "1"
    assert sum(record["truncated"] for record in records) == 1


def test_sexagesimal_output_reparses(capsys):
    # Every base-60 value printed without a truncation flag re-parses to the
    # exact rational the library computed.
    from fractions import Fraction

    from trapwall.geometry import Trapezoid
    from trapwall.party_wall import plan_wall
    from trapwall.sexagesimal import parse_sex

    plan = plan_wall(Trapezoid(Fraction(5, 3), Fraction(1, 3), 1), 10, 4)
    expected = {
        "c": plan.left_edge,
        "e": plan.right_edge,
        "d_mid": plan.midline,
        "x": plan.edge_diff,
        "h0": plan.wall_thickness,
        "h1": plan.left_height,
        "h2": plan.right_height,
        "S_left": plan.left_area,
        "S_wall": plan.wall_area,
        "S_right": plan.right_area,
    }
    _, out, _ = run_cli(capsys, "wall", "1;40", "0;20", "1", "10")
    seen = {}
    for line in out.splitlines():
        key, sep, rendered = line.partition(" = ")
        if not sep or key == "k0":
            continue
        assert "(truncated)" not in rendered
        seen[key] = parse_sex(rendered)
    assert seen == expected


def test_places_flag_validated():
    with pytest.raises(SystemExit) as exc:
        main(["convert", "1/7", "--places", "21"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_every_package_error_has_an_exit_code():
    # main returns the exit code that a refused input's error type carries.
    raised = [
        cls
        for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.TrapwallError)
        and cls is not errors.TrapwallError
    ]
    assert raised
    for cls in raised:
        assert getattr(cls, "exit_code", None) in {2, 3, 4}, cls.__name__


def package_env():
    """The environment for a fresh interpreter that imports this trapwall."""
    src = str(Path(trapwall.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_broken_pipe_exits_141_without_traceback():
    # `trapwall strips 5/3 1/3 1 20000 | head -1`: the output far exceeds a
    # pipe's buffer, so the command is still writing when its reader leaves.
    argv = [sys.executable, "-m", "trapwall", "strips", "5/3", "1/3", "1", "20000"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env()
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert first == b"k\td\tS\tS'\n"
    assert (proc.returncode, err) == (141, b"")


# --- one parser per command --------------------------------------------------


def outcome(argv, call=main):
    """(exit code, stdout, stderr) of call(argv), which may exit through argparse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def full_parser_call(argv):
    """main with the full parser alone: parse argv with all six commands, then run the handler."""
    return cli._dispatch(build_parser().parse_args(argv))


COMMANDS = ["convert", "bisect", "strips", "wall", "search", "smt26"]
WALL_ARGS = ["1;40", "0;20", "1", "10"]
# Arguments the command's own parser does not know: it refuses them under its
# own usage line, where the full parser would use the top-level one. With a
# positional missing ("convert --bogus"), both refuse the missing positional.
LEFTOVER_CASES = [
    ["smt26", "--bogus"],
    ["smt26", "--places", "2"],  # smt26 takes no --places
    ["convert", "5/3", "extra"],
    ["convert", "5/3", "--bogus", "extra"],
    ["wall", *WALL_ARGS, "11"],
]
PARSE_CASES = (
    [[], ["-h"], ["frobnicate"], ["--bogus", "convert"], ["--", "convert", "5/3"]]
    + [["-h", "convert"]]
    + [[command, "-h"] for command in COMMANDS]
    + [[command] for command in COMMANDS if command != "smt26"]  # missing positionals
    + [[command, "--bogus"] for command in COMMANDS if command != "smt26"]
    + LEFTOVER_CASES
    + [
        ["convert", "5/3", "--places", "21"],
        ["convert", "-5/13", "--places", "3", "--numeral", "dec"],
        ["convert", "5/3", "-h"],
        ["convert", "--", "5/3"],
        ["convert", "5/3", "--format=jsonl"],
        ["convert", "5/3", "--format", "jsonl", "--format", "table"],
        ["bisect", "1;40", "0;20", "--format", "jsonl"],
        ["bisect", "1;40", "0;20", "--form", "jsonl"],  # prefixes of option names
        ["strips", *WALL_ARGS, "--numeral", "rat"],
        ["strips", *WALL_ARGS, "--numer", "rat"],
        ["wall", *WALL_ARGS, "--format", "jsonl"],
        ["search", "2", "20", "3", "30", "--regular-only"],
        ["smt26", "--part", "obverse1"],
    ]
)


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_one_subcommand_parses_as_all_six_do(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)  # help and usage wrap at this width
    full = outcome(argv, full_parser_call)
    built = []
    monkeypatch.setattr(
        cli, "build_parser", lambda command=None: built.append(command) or build_parser(command)
    )
    code, out, err = outcome(argv)
    if argv in LEFTOVER_CASES:
        leftover = full[2].splitlines()[-1].partition("unrecognized arguments:")[2]
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: trapwall {argv[0]}")
        assert err.splitlines()[-1] == f"trapwall {argv[0]}: error: unrecognized arguments:{leftover}"
    else:
        assert (code, out, err) == full
    # One parser per call: the command's own, or the full parser (None) without a command name.
    assert built == ([argv[0]] if argv and argv[0] in COMMANDS else [None])


TRAPEZOID_ARGS = ["upper", "lower", "height", "n"]
POSITIONALS = {
    "convert": ["value"],
    "bisect": ["upper", "lower"],
    "strips": TRAPEZOID_ARGS,
    "wall": TRAPEZOID_ARGS,
    "search": ["r_lo", "r_hi", "n_lo", "n_hi"],
    "smt26": [],
}


def reference_parser(command):
    """build_parser(command) as plain ArgumentParser.add_argument calls build it."""
    p = argparse.ArgumentParser(prog=f"trapwall {command}")
    p._negative_number_matcher = cli._NEGATIVE_RE
    p.add_argument("--format", choices=("table", "jsonl"), default="table")
    if command not in ("search", "smt26"):
        p.add_argument("--numeral", choices=("sex", "rat", "dec"))
        p.add_argument("--places", type=cli._places_flag)
    for arg in POSITIONALS[command]:
        p.add_argument(arg, type=cli._integer if arg in ("n", "r_lo", "r_hi", "n_lo", "n_hi") else None)
    p.set_defaults(handler=getattr(cli, f"cmd_{command}"), numeral="sex", places=None)
    if command == "search":
        p.add_argument("--regular-only", action="store_true")
    elif command == "smt26":
        p.add_argument("--part", choices=("reverse", "obverse1"), default="reverse")
    return p


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_matches_plain_add_argument(command, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    built, reference = build_parser(command), reference_parser(command)
    # A positional filed under options would be listed under "options:".
    assert built.format_help() == reference.format_help()
    cases = [argv[1:] for argv in PARSE_CASES if argv and argv[0] == command]
    assert cases
    for args in cases:
        assert outcome(args, built.parse_known_args) == outcome(args, reference.parse_known_args)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_parser_builds_no_formatter_per_argument(command, monkeypatch):
    # argparse's add_argument builds a HelpFormatter to check metavar tuples,
    # the constructor's -h included; a command's parser builds none at all.
    built = []
    init = argparse.HelpFormatter.__init__
    monkeypatch.setattr(
        argparse.HelpFormatter, "__init__", lambda *a, **k: built.append(1) or init(*a, **k)
    )
    build_parser(command)
    assert built == []


# Calls that differ from their predecessor in a flag, a default or an exit.
CALL_SEQUENCES = [
    [["convert", "5/13", "--places", "3"], ["convert", "5/13"]],
    [["search", "2", "20", "3", "30", "--regular-only"], ["search", "2", "20", "3", "30"]],
    [["convert", "5/3", "--places", "21"], ["convert", "5/3"]],
    [["strips", *WALL_ARGS], ["wall", *WALL_ARGS]],
    [["strips", *WALL_ARGS, "--format", "jsonl"], ["wall", *WALL_ARGS, "--format", "jsonl"]],
]


def test_successive_calls_print_what_lone_calls_print():
    calls = [argv for sequence in CALL_SEQUENCES for argv in sequence]
    lone = {tuple(argv): outcome(argv) for argv in reversed(calls)}
    for argv in calls:
        assert outcome(argv) == lone[tuple(argv)], argv


def test_importing_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(1) or init(*a, **k)\n"
        "import trapwall.cli\n"
        "print(len(built))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=package_env(), check=True,
    )
    assert run.stdout == "0\n"


# --- differential property: printed base-60 values against the library -----

DENOMINATORS = (1, 2, 3, 7, 8, 12, 13, 45, 60, 77, 1024, 3600)
# (r, n) pairs with an admissible wall, so that wall prints plans and not only exit 1.
WALL_HITS = ((5, 10), (17, 8), (6, 25), (9, 20), (3, 17))
PLAN_KEYS = {
    "c": "left_edge",
    "e": "right_edge",
    "d_mid": "midline",
    "x": "edge_diff",
    "h0": "wall_thickness",
    "h1": "left_height",
    "h2": "right_height",
    "S_left": "left_area",
    "S_wall": "wall_area",
    "S_right": "right_area",
}
FLAG = " (truncated)"


def read_sex(text):
    """The exact value of canonical base-60 text, read without trapwall."""
    whole, _, frac = text.lstrip("-").partition(";")
    value = Fraction(0)
    for digit in whole.split(","):
        value = value * 60 + int(digit)
    for place, digit in enumerate(frac.split(",") if frac else (), start=1):
        value += Fraction(int(digit), 60**place)
    return -value if text.startswith("-") else value


def has_exact_form(x):
    return (x * 60**20).denominator == 1


def check_value(text, exact, places, flagged=None):
    """Unflagged text is exact; flagged text is exact truncated toward zero to `places`."""
    if flagged is None:
        flagged = text.endswith(FLAG)
        text = text.removesuffix(FLAG)
    value = read_sex(text)
    if not flagged:
        assert value == exact, (text, exact)
        return
    assert value == 0 or (value < 0) == (exact < 0), (text, exact)
    assert 0 < abs(exact) - abs(value) < Fraction(1, 60**places), (text, exact)


def check_root(text, square, places):
    """Text is sqrt(square), irrational, truncated toward zero to `places`."""
    value = read_sex(text)
    assert value >= 0 and value**2 < square < (value + Fraction(1, 60**places)) ** 2


def check_record(record, exact):
    assert Fraction(record["rational"]) == exact
    if record["sexagesimal"] is None:
        assert not has_exact_form(exact)
    else:
        assert read_sex(record["sexagesimal"]) == exact


def call(argv):
    """run_cli without capsys, which hypothesis cannot reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


values = st.builds(Fraction, st.integers(-(10**5), 10**5), st.sampled_from(DENOMINATORS))
widths = st.builds(Fraction, st.integers(1, 10**4), st.sampled_from(DENOMINATORS))


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(("convert", "bisect", "strips", "wall")),
    fmt=st.sampled_from(("table", "jsonl")),
    places=st.none() | st.integers(0, 20),
    data=st.data(),
)
def test_printed_values_match_the_library(command, fmt, places, data):
    # README: every base-60 value printed without a (truncated) flag re-parses
    # to the exact rational the library computed; a flagged one is that value
    # truncated toward zero, less than one unit in its last place away.
    unit_places = 5 if places is None else places
    flags = ["--format", fmt] + ([] if places is None else ["--places", str(places)])
    if command == "convert":
        value = data.draw(values)
        code, out = call(["convert", str(value)] + flags)
        if code == 3:
            assert places is None and not has_exact_form(value)
            return
        assert code == 0
        if fmt == "jsonl":
            record = json.loads(out)
            assert Fraction(record["rational"]) == value
            check_value(record["sexagesimal"], value, unit_places, flagged=record["truncated"])
        else:
            check_value(out.rstrip("\n"), value, unit_places)
        return
    lower = data.draw(widths)
    if command == "bisect":
        upper = lower + data.draw(widths | st.just(Fraction(0)))
        code, out = call(["bisect", str(upper), str(lower)] + flags)
        assert code == 0
        square = geometry.transversal_bisector(upper, lower).value_sq
        root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
        if root**2 != square:
            root = None
        if fmt == "jsonl":
            record = json.loads(out)
            check_record(record["d_sq"], square)
            if root is None:
                assert record["d"] is None
                check_root(record["d_truncated"], square, unit_places)
            else:
                check_record(record["d"], root)
                assert record["d_truncated"] is None
            return
        d_sq_line, d_line = out.splitlines()
        check_value(d_sq_line.removeprefix("d^2 = "), square, unit_places)
        d_text = d_line.removeprefix("d = ")
        if root is None:
            check_root(d_text.removesuffix(FLAG), square, unit_places)
            assert d_text.endswith(FLAG)
        else:
            check_value(d_text, root, unit_places)
        return
    height = data.draw(widths)
    if command == "strips":
        upper = lower + data.draw(widths | st.just(Fraction(0)))
        n = data.draw(st.integers(1, 12))
        code, out = call(["strips", str(upper), str(lower), str(height), str(n)] + flags)
        assert code == 0
        trap = geometry.Trapezoid(upper, lower, height)
        expected = [
            (
                geometry.transversal_at(trap, k, n),
                geometry.cumulative_area(trap, k, n),
                geometry.complement_area(trap, k, n),
            )
            for k in range(n + 1)
        ]
        if fmt == "jsonl":
            records = [json.loads(line) for line in out.splitlines()]
            assert [record["k"] for record in records] == list(range(n + 1))
            for record, exact in zip(records, expected):
                for key, value in zip(("d", "S", "S_prime"), exact):
                    check_record(record[key], value)
            return
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == [str(k) for k in range(n + 1)]
        for row, exact in zip(rows, expected):
            for text, value in zip(row[1:], exact):
                check_value(text, value, unit_places)
        return
    ratio, n = data.draw(
        st.sampled_from(WALL_HITS) | st.tuples(st.integers(2, 20), st.integers(3, 30))
    )
    upper = ratio * lower
    code, out = call(["wall", str(upper), str(lower), str(height), str(n)] + flags)
    indices = solve_k0(upper, lower, n)
    assert code == (0 if indices else 1)
    if not indices:
        return
    trap = geometry.Trapezoid(upper, lower, height)
    plans = {k0: plan_wall(trap, n, k0) for k0 in indices}
    if fmt == "jsonl":
        records = [json.loads(line) for line in out.splitlines()]
        assert [record["k0"] for record in records] == indices
        for record in records:
            for key, attr in PLAN_KEYS.items():
                check_record(record[key], getattr(plans[record["k0"]], attr))
        return
    k0 = None
    for line in out.splitlines():
        key, _, text = line.partition(" = ")
        if key == "k0":
            k0 = int(text)
        else:
            check_value(text, getattr(plans[k0], PLAN_KEYS[key]), unit_places)


# --- contract: no argv of the four value commands escapes main -------------

# Well-formed values, over-long ones, and text that Fraction() or int() reads
# but trapwall refuses.
CONTRACT_VALUES = (
    "5/3", "1;40", "0;20", "1", "30", "-5/13", "1e3", "1.5", "1/0", ARABIC_TEN,
    HUGE_NUMERAL, "0;" + HUGE_NUMERAL, "1/" + "7" * 4000, LONG,
)
CONTRACT_VALUE_ARGS = {"convert": 1, "bisect": 2, "strips": 3, "wall": 3}


def check_whole_strips_rows(out, fmt):
    """out is strips' table header, if any, then whole rows k = 0, 1, ... in order."""
    assert out == "" or out.endswith("\n")
    lines = out.splitlines()
    if fmt != "jsonl" and lines:
        assert lines.pop(0) == "k\td\tS\tS'"
    for k, line in enumerate(lines):
        if fmt == "jsonl":
            assert json.loads(line)["k"] == k
        else:
            fields = line.split("\t")
            assert len(fields) == 4 and fields[0] == str(k)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(sorted(CONTRACT_VALUE_ARGS)),
    fmt=st.sampled_from((None, "table", "jsonl")),
    numeral=st.sampled_from((None, "sex", "rat", "dec")),
    places=st.sampled_from((None, "0", "5", "20")),
    n=st.integers(-1, 4),
    data=st.data(),
)
def test_any_argv_exits_with_a_known_code(command, fmt, numeral, places, n, data):
    # For any argv, main returns or exits with 0-4 and nothing else escapes.
    # A refusal (2, 3 or 4) leaves stdout empty and says why on stderr;
    # only strips, which prints row by row, may have printed whole rows first.
    draw = st.sampled_from(CONTRACT_VALUES)
    argv = [command] + [data.draw(draw) for _ in range(CONTRACT_VALUE_ARGS[command])]
    if command in ("strips", "wall"):
        argv.append(str(n))
    for flag, value in (("--format", fmt), ("--numeral", numeral), ("--places", places)):
        argv += [] if value is None else [flag, value]
    code, out, err = outcome(argv)
    assert code in (0, 1, 2, 3, 4), code
    if code == 0:
        assert err == ""
    if code < 2:
        return
    if err.startswith("usage: "):
        assert code == 2 and f"trapwall {command}: error: " in err.splitlines()[-1]
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if command == "strips" and code == 3:
        check_whole_strips_rows(out, fmt)
    else:
        assert out == ""
