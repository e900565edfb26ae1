"""The README's examples run as they are written."""

import doctest
import shlex
from pathlib import Path

import pytest

from trapwall import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(language, after):
    """The first ```language block that follows the line `after`."""
    start = README.index(f"```{language}\n", README.index(after)) + len(language) + 4
    return README[start : README.index("```", start)]


CLI_EXAMPLES = [
    shlex.split(line, comments=True)
    for line in fenced_block("sh", "## CLI").splitlines()
    if line.startswith("trapwall ")
]

# What each example's comment says it prints, as whole output lines.
STATED_OUTPUT = {
    "convert 2,53,20 --numeral rat": ["10400"],
    "convert 5/3": ["1;40"],
    "convert -5/13 --places 3": ["-0;23,4,36 (truncated)"],
    "bisect 35 5": ["d^2 = 10,25", "d = 25"],
    "bisect 1;40 0;20 --places 5": ["d = 1;12,6,39,41,30 (truncated)"],
    "wall 1;40 0;20 1 10": ["k0 = 4"],
    "search 2 20 3 1000": ["18962 cases, 14 hits"],
    "search 2 20 3 1000 --regular-only": ["5\t10\t4\tyes", "6\t25\t9\tyes", "9\t20\t7\tyes"],
}


def test_readme_session_runs_as_a_doctest():
    session = fenced_block("pycon", "## The tablet example")
    test = doctest.DocTestParser().get_doctest(session, {}, "README.md", "README.md", 0)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.tries > 0 and runner.failures == 0, "".join(report)


def test_readme_cli_examples_cover_every_command():
    assert {argv[1] for argv in CLI_EXAMPLES} == set(cli._COMMANDS)
    assert set(STATED_OUTPUT) <= {" ".join(argv[1:]) for argv in CLI_EXAMPLES}


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_readme_cli_example_succeeds(capsys, argv):
    assert argv[0] == "trapwall"
    assert cli.main(argv[1:]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    for line in STATED_OUTPUT.get(" ".join(argv[1:]), []):
        assert line in lines
