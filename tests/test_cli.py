"""End-to-end tests of the command line surface, including exit codes."""

import json

import pytest

from trapwall.cli import main


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


def test_convert_decimal_labeled_approx(capsys):
    code, out, _ = run_cli(capsys, "convert", "5/3", "--numeral", "dec", "--places", "4")
    assert code == 0 and out.strip() == "1.6666 (approx)"


def test_convert_jsonl(capsys):
    code, out, _ = run_cli(capsys, "convert", "5/3", "--format", "jsonl")
    (record,) = jsonl_records(out)
    assert code == 0
    assert record == {"rational": "5/3", "sexagesimal": "1;40", "truncated": False}


def test_bisect_exact(capsys):
    code, out, _ = run_cli(capsys, "bisect", "35", "5")
    assert code == 0
    assert "d^2 = 10,25" in out and "d = 25" in out


def test_bisect_truncated_root(capsys):
    code, out, _ = run_cli(capsys, "bisect", "1;40", "0;20", "--places", "5")
    assert code == 0
    assert "d^2 = 1;26,40" in out
    assert "d = 1;12,6,39,41,30 (truncated)" in out


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
    assert code == 4 and out == "" and "error" in err


def test_wall_smt26(capsys):
    code, out, _ = run_cli(capsys, "wall", "1;40", "0;20", "1", "10")
    assert code == 0
    assert "k0 = 4" in out
    assert "S_left = 0;26,24" in out
    assert "S_wall = 0;7,12" in out
    assert "S_right = 0;26,24" in out


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
    from trapwall.sexagesimal import parse_sex, sex_to_rational

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
        seen[key] = sex_to_rational(parse_sex(rendered))
    assert seen == expected


def test_places_flag_validated():
    with pytest.raises(SystemExit) as exc:
        main(["convert", "1/7", "--places", "21"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
