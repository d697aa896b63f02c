"""Byte-exact stdout of the README examples, ``verify --json`` and ``psi``.

The fixtures under data/golden were recorded from the command line; any
change to the printed text or JSON of these runs fails here.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from hypertrees.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
PHI_C00 = str(DATA / "phi-c00.json")

CASES = [
    (["count", "--n", "6", "--profile", "u2=3,u3=1"], "count-n6-u2-3-u3-1.txt"),
    (["table", "--max-n", "4"], "table-max-n4.txt"),
    (["oracle", "--n", "4", "--profile", "u2=1,u3=1"], "oracle-n4-u2-1-u3-1.txt"),
    (["verify", "--t-max", "6", "--z-max", "6"], "verify-t6-z6.txt"),
    (["verify", "--t-max", "6", "--z-max", "6", "--json"], "verify-json-t6-z6.json"),
    (["psi", PHI_C00, "--t-max", "8", "--z-max", "8"], "psi-c00-t8-z8.txt"),
    (["psi", PHI_C00, "--t-max", "8", "--z-max", "8", "--json"], "psi-json-c00-t8-z8.json"),
]


@pytest.mark.parametrize("args,fixture", CASES, ids=[name for _, name in CASES])
def test_stdout_matches_golden(args, fixture):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / fixture).read_bytes()
