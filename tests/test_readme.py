"""The README's examples run: the Quick tour's python block, and the
``verify-theorems``, ``normal-order`` and ``norm-estimate`` lines of its
"Command line" examples through ``cli.main``."""

import re
import shlex
from pathlib import Path

import pytest

from polarkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    """The first ``language`` block under the README's ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_the_quick_tour_runs():
    exec(compile(code_block("Quick tour", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("command", ("verify-theorems", "normal-order", "norm-estimate"))
def test_a_command_line_example_exits_0(command, capsys):
    lines = [shlex.split(line, comments=True) for line in code_block("Command line", "sh").splitlines()]
    (argv,) = [words for words in lines if words[:2] == ["polarkit", command]]
    assert main(argv[1:]) == 0
    if command == "normal-order":
        assert "l=1 m=0 p=[52/27, 17/81, 1/243]" in capsys.readouterr().out
