"""The README's code examples run as written, and its shell examples print
what it shows."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from hypertrees.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# each "$ hypertrees ..." line of an sh block, with the output lines shown under it
SHELL = [
    example
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
    for example in re.findall(r"^\$ (hypertrees .*)\n((?:.+\n)*)", block, re.M)
]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_readme_has_shell_examples():
    assert [command.split()[1] for command, _ in SHELL] == ["count", "table", "oracle", "verify"]


@pytest.mark.parametrize("command, shown", SHELL, ids=[command for command, _ in SHELL])
def test_readme_shell_example_prints_what_it_shows(command, shown):
    # a "..." line stands for lines left out: those before it are a prefix, those after a suffix
    result = CliRunner().invoke(main, shlex.split(command)[1:])
    assert result.exit_code == 0, result.output
    lines, shown = result.stdout.splitlines(), shown.splitlines()
    if "..." not in shown:
        assert lines == shown
        return
    cut = shown.index("...")
    head, tail = shown[:cut], shown[cut + 1:]
    assert lines[: len(head)] == head
    assert lines[len(lines) - len(tail):] == tail
