"""The exit-code contract over a grid of boundary values.

Every command must end with exit code 0 (ok), 1 (verification failed),
2 (usage error) or 3 (over budget), and no exception other than
SystemExit may escape: a traceback is never an answer.  Each test walks
one command's grid and reports every run that broke the contract.
"""

import itertools
import json

import pytest
from click.testing import CliRunner

from hypertrees.cli import main

EXIT_CODES = {0, 1, 2, 3}


def contract_breaks(runs):
    runner = CliRunner()
    out = []
    for args in runs:
        result = runner.invoke(main, [str(a) for a in args])
        escaped = result.exception is not None and not isinstance(result.exception, SystemExit)
        if result.exit_code not in EXIT_CODES or escaped:
            out.append((args, result.exit_code, repr(result.exception)))
    return out


def assert_contract(runs):
    runs = list(runs)
    breaks = contract_breaks(runs)
    assert not breaks, f"{len(breaks)} of {len(runs)} runs broke the contract: {breaks[:5]}"


def test_verify_boundary_grid():
    def runs():
        for t, z, m_edge, trials, sub in itertools.product(
            range(1, 4), range(-1, 3), range(1, 6), (0, 1), (0, 1)
        ):
            base = ["verify", "--t-max", t, "--z-max", z, "--max-edge-size", m_edge,
                    "--trials", trials, "--sub-trials", sub]
            yield base
            for mag in range(0, t + 2):
                yield base + ["--magnitude-max", mag]

    assert_contract(runs())


PHI_FILES = {
    "empty-array": {"entries": []},
    "c00-only": {"entries": [{"m": 0, "n": 0, "num": 3, "den": 2}]},
    "negative-den": {"entries": [{"m": 1, "n": 0, "num": 1, "den": -2},
                                 {"m": 0, "n": 1, "num": 2, "den": -3}]},
    "m-40": {"entries": [{"m": 40, "n": 0, "num": 1}, {"m": 1, "n": 1, "num": -1}]},
    "negative-index": {"entries": [{"m": -1, "n": 0, "num": 1}]},
    "missing-num": {"entries": [{"m": 1, "n": 0}]},
    "non-integer": {"entries": [{"m": "x", "n": 0, "num": 1}]},
    "not-a-list": {"entries": 5},
    "not-an-object": [1, 2],
    "null": None,
}


@pytest.fixture(scope="module")
def phi_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("phi")
    paths = []
    for name, data in PHI_FILES.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(path)
    for name, text in {"blank": "", "truncated": '{"entries": ['}.items():
        path = root / f"{name}.json"
        path.write_text(text)
        paths.append(path)
    return paths


def test_psi_boundary_grid(phi_paths):
    def runs():
        for path, t, z in itertools.product(phi_paths, range(0, 4), range(-1, 4)):
            base = ["psi", path, "--t-max", t, "--z-max", z]
            yield base
            for order in sorted({-1, 0, t - 1, t}):
                yield base + ["--order", order]

    assert_contract(runs())


def test_oracle_boundary_grid(tmp_path):
    checks = {
        "sample": "4\n1 2\n2 3 4\n",
        "isolated": "3\n",
        "blank": "",
        "zero-vertex": "2\n0 1\n",
        "out-of-range": "2\n1 3\n",
        "repeated": "3\n1 1\n",
        "single": "3\n2\n",
        "words": "three\n1 2\n",
    }
    paths = []
    for name, text in checks.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths.append(path)

    def runs():
        for n in (-1, 0, 1, 2, 3, 4):
            for budget, n_max in itertools.product((-1, 0, 1, 10_000), (0, 3)):
                tail = ["--budget", budget, "--n-max", n_max]
                yield ["oracle", "--n", n] + tail
                for mag in (-1, 0, 1, 3):
                    yield ["oracle", "--n", n, "--max-magnitude", mag] + tail
                for profile in ("", "u2=1", "u2=2,u3=1", "u9=1", "u1=1", "u2=-1", "x"):
                    yield ["oracle", "--n", n, "--profile", profile] + tail
                yield ["oracle", "--n", n, "--profile", "u2=1", "--max-magnitude", 1] + tail
        for path in paths:
            yield ["oracle", "--check", path]
            yield ["oracle", "--check", path, "--json"]
        yield ["oracle"]

    assert_contract(runs())


def test_count_and_table_boundary_grid():
    def runs():
        for n in (-1, 0, 1, 2, 5):
            for profile in ("", "u2=1", "u2=2,u3=1", "u9=1", "u1=1", "u2=-1", "x", "u2="):
                yield ["count", "--n", n, "--profile", profile]
                yield ["count", "--n", n, "--profile", profile, "--json"]
            for edges in (-1, 0, 1, 3, 10):
                yield ["count", "--n", n, "--edges", edges]
            yield ["count", "--n", n]
            yield ["count", "--n", n, "--profile", "u2=1", "--edges", 1]
        for max_n in (-1, 0, 1, 3):
            yield ["table", "--max-n", max_n]
            yield ["table", "--max-n", max_n, "--json"]

    assert_contract(runs())
