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


def test_readme_session_runs_as_a_doctest():
    session = fenced_block("pycon", "## The tablet example")
    test = doctest.DocTestParser().get_doctest(session, {}, "README.md", "README.md", 0)
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.tries > 0 and runner.failures == 0, "".join(report)


def test_readme_cli_examples_cover_every_command():
    assert {argv[1] for argv in CLI_EXAMPLES} == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_readme_cli_example_succeeds(capsys, argv):
    assert argv[0] == "trapwall"
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().err == ""
