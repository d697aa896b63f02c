"""Byte-exact stdout and exit code of the README examples, ``verify``, ``psi``,
an ``oracle`` sweep and ``table`` to n = 12, as text and as JSON.

The fixtures under data/golden were recorded from the command line; any
change to the printed text or JSON of these runs fails here.  The
``--inject-fault`` runs pin the failure text, ``first diff at Monomial(...)``
included, and exit 1.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from hypertrees.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
PHI_C00 = str(DATA / "phi-c00.json")

CASES = [
    (["count", "--n", "6", "--profile", "u2=3,u3=1"], 0, "count-n6-u2-3-u3-1.txt"),
    (["table", "--max-n", "4"], 0, "table-max-n4.txt"),
    (["table", "--max-n", "12"], 0, "table-max-n12.txt"),
    (["table", "--max-n", "12", "--json"], 0, "table-json-max-n12.json"),
    (["oracle", "--n", "4", "--profile", "u2=1,u3=1"], 0, "oracle-n4-u2-1-u3-1.txt"),
    # 192 rows to magnitude 11, 95 of them connected with no hypertree
    (["oracle", "--n", "10", "--max-magnitude", "11", "--json"], 0, "oracle-json-n10-m11.json"),
    (["verify", "--t-max", "6", "--z-max", "6"], 0, "verify-t6-z6.txt"),
    (["verify", "--t-max", "6", "--z-max", "6", "--json"], 0, "verify-json-t6-z6.json"),
    (["verify", "--t-max", "6", "--z-max", "6", "--inject-fault"], 1, "verify-fault-t6-z6.txt"),
    (["verify", "--t-max", "6", "--z-max", "6", "--inject-fault", "--json"], 1,
     "verify-fault-json-t6-z6.json"),
    # at magnitude != z the suite and the substitution route each build their own C,
    # at magnitude > z and at magnitude < z
    (["verify", "--t-max", "8", "--z-max", "3", "--max-edge-size", "9", "--trials", "3",
      "--sub-trials", "3", "--inject-fault", "--json"], 1, "verify-fault-json-t8-z3.json"),
    (["verify", "--t-max", "4", "--z-max", "7", "--max-edge-size", "8", "--trials", "3",
      "--sub-trials", "3", "--inject-fault"], 1, "verify-fault-t4-z7.txt"),
    (["psi", PHI_C00, "--t-max", "8", "--z-max", "8"], 0, "psi-c00-t8-z8.txt"),
    (["psi", PHI_C00, "--t-max", "8", "--z-max", "8", "--json"], 0, "psi-json-c00-t8-z8.json"),
]


@pytest.mark.parametrize("args,exit_code,fixture", CASES, ids=[name for *_, name in CASES])
def test_stdout_matches_golden(args, exit_code, fixture):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == exit_code, result.output
    assert result.stdout_bytes == (GOLDEN / fixture).read_bytes()
