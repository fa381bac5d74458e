"""The README's examples run as written: every command line and the library example."""

import re
import shlex
from pathlib import Path

import pytest

from divlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ```lang block after the heading line."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [line for line in fenced_block("## Command-line tool", "sh").splitlines()
            if line.startswith("divlab ")]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(capsys, line):
    argv = shlex.split(line, comments=True)
    want = 2 if "exit code 2" in line else 0
    rc = main(argv[1:])
    out = capsys.readouterr()
    assert rc == want, out.err
    assert out.out and not out.err


def test_readme_library_example_runs():
    exec(fenced_block("## Library example", "python"), {})
