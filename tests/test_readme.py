"""The README's code examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[0])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {})
