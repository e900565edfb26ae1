"""The `trapwall` console script, one fresh process per check.

Each row runs the function that pyproject.toml's [project.scripts] names, as
the wrapper pip installs calls it, with this checkout's package.
"""

import importlib
from pathlib import Path

import pytest

from conftest import fresh_python

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_scripts():
    """{name: "module:function"} from pyproject.toml's [project.scripts].

    Python 3.10 has no tomllib; that table holds only lines name = "value".
    """
    scripts, section = {}, None
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, value = (part.strip() for part in line.split("=", 1))
            scripts[name] = value.strip('"')
    return scripts


def test_the_entry_point_resolves():
    scripts = console_scripts()
    assert list(scripts) == ["trapwall"]
    module, function = scripts["trapwall"].split(":")
    assert callable(getattr(importlib.import_module(module), function, None))


SMT26_ROOT = "reverse L9\tsquare root paced off, truncated to one place\t1;12 (truncated)"
# The integer part of 60**3001 - 1 in base 60.
HUGE = ",".join(["59"] * 3001)

# (argv, exit code, check of stdout and stderr).
ROWS = [
    (["convert", "5/3"], 0, lambda out, err: out.rstrip("\n") == "1;40"),
    # The truncated root that the reverse trace reads back (SMT No. 26).
    (["smt26"], 0, lambda out, err: SMT26_ROOT in out.splitlines()),
    # One window per search source and sieve direction;
    # test_each_window_takes_its_pinned_source pins which.
    # README's window, Table 1.
    (["search", "2", "20", "3", "1000"], 0,
     lambda out, err: out.splitlines()[-1:] == ["18962 cases, 14 hits"]),
    (["search", "2", "2000", "3", "60"], 0,
     lambda out, err: out.splitlines()[-1:] == ["115942 cases, 13 hits"]),
    (["search", "2", "9000", "3", "20"], 0,
     lambda out, err: out.splitlines()[-1:] == ["161982 cases, 6 hits"]),
    # Reaches (153677, 746, 219), the largest integer-ratio design with n <= 1000.
    (["search", "10000", "160000", "600", "760"], 0,
     lambda out, err: out.splitlines()[-1:] == ["24150161 cases, 2 hits"]),
    # The root test that wall and search share: SMT 26's k0.
    (["wall", "1;40", "0;20", "1", "10"], 0, lambda out, err: out.splitlines()[:1] == ["k0 = 4"]),
    # Widths that reach the root test in geometry's integer form (51/9 and 3/9).
    (["wall", "17/3", "1/3", "1", "8"], 0, lambda out, err: out.splitlines()[:1] == ["k0 = 3"]),
    # A strip count with no wall.
    (["wall", "2", "1", "1", "4"], 1, lambda out, err: out.rstrip("\n") == "no admissible wall"),
    # Ten to Python's Fraction(), but malformed to the CLI's one reader of value text.
    (["convert", "1_0"], 2, lambda out, err: out == ""),
    # More digits than int() writes out.
    (["bisect", HUGE, "1", "--numeral", "dec"], 3, lambda out, err: out == ""),
    # The upper width is the narrower one: a domain error.
    (["wall", "1", "2", "1", "10"], 4, lambda out, err: out == ""),
    # smt26 takes no --places; its own parser refuses it under its own usage line.
    (["smt26", "--places", "2"], 2,
     lambda out, err: out == "" and err.startswith("usage: trapwall smt26")),
    # A command's -h is added by trapwall itself, not by argparse's constructor.
    (["search", "-h"], 0, lambda out, err: out.startswith("usage: trapwall search")),
]


@pytest.mark.parametrize("argv, code, check", ROWS, ids=[" ".join(row[0])[:40] for row in ROWS])
def test_console_script(argv, code, check):
    module, function = console_scripts()["trapwall"].split(":")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    run = fresh_python("-c", script, *argv, capture_output=True, text=True, timeout=60)
    assert run.returncode == code, run.stderr
    assert check(run.stdout, run.stderr), (run.stdout[-500:], run.stderr[-500:])
