"""Each command loads only the layers it runs.

Every ``hypertrees`` process compiles what it imports, so a layer that a
command never calls costs start-up time on every run.  These tests run
each command in a fresh interpreter under ``-X importtime`` and read the
modules it loaded; they also pin the ``cli.__getattr__`` hook that serves
the layers' names without importing them up front.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hypertrees import cli, closed, gf, series

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = str(ROOT / "tests" / "data" / "sample5.txt")
PHI_C00 = str(ROOT / "tests" / "data" / "phi-c00.json")
SERIES_STACK = {"hypertrees.series", "hypertrees.gf", "hypertrees.funceq", "fractions"}
ORACLE_LAYER = {"hypertrees.hypergraphs", "hypertrees.combinat", "dataclasses"}


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with the package on its path."""
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60,
    )


def _loaded(*cli_args: str) -> set[str]:
    """Every module one CLI run imports, read off its ``-X importtime`` lines."""
    return _imported("-m", "hypertrees.cli", *cli_args)


def _imported(*args: str) -> set[str]:
    result = _python("-X", "importtime", *args)
    assert result.returncode == 0, result.stderr[-500:]
    return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args, present, absent", [
    (["--help"], "hypertrees", ORACLE_LAYER),
    (["--version"], "hypertrees", ORACLE_LAYER),
    (["oracle", "--n", "4", "--max-magnitude", "3"], "hypertrees.hypergraphs", set()),
    (["oracle", "--check", SAMPLE], "hypertrees.hypergraphs", set()),
], ids=["help", "version", "oracle-sweep", "oracle-check"])
def test_help_version_and_oracle_load_no_series_stack(args, present, absent):
    loaded = _loaded(*args)
    assert present in loaded  # the parse saw the package's own imports
    assert loaded & (SERIES_STACK | absent) == set()


@pytest.mark.parametrize("args", [
    ["table", "--max-n", "3"],
    ["count", "--n", "5", "--edges", "2"],
], ids=["table", "count"])
def test_closed_form_commands_load_no_funceq(args):
    loaded = _loaded(*args)
    assert "hypertrees.closed" in loaded
    assert loaded & SERIES_STACK == set()


@pytest.mark.parametrize("args", [
    ["--help"],
    ["verify", "--t-max", "3", "--z-max", "3", "--trials", "1", "--sub-trials", "1"],
], ids=["help", "verify-text"])
def test_text_runs_load_no_json(args):
    # json is for --json output and psi's Phi file; an interpreter whose own
    # start-up loads it (a sitecustomize, say) shows it for a bare start too
    assert "json" not in _loaded(*args) - _imported("-c", "pass")


def test_psi_loads_series_and_funceq_and_no_gf():
    loaded = _loaded("psi", PHI_C00, "--t-max", "4", "--z-max", "4")
    assert {"hypertrees.series", "hypertrees.funceq"} <= loaded
    assert loaded & {"hypertrees.gf", "hypertrees.closed", "hypertrees.hypergraphs"} == set()


def _package_modules(code: str) -> list[str]:
    """The hypertrees modules loaded after running code in a fresh interpreter."""
    code += "; print(*sorted(m for m in sys.modules if m.startswith('hypertrees')))"
    result = _python("-c", "import sys; " + code)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_funceq_runs_on_series_alone():
    assert _package_modules("import hypertrees.funceq") == [
        "hypertrees", "hypertrees.combinat", "hypertrees.funceq", "hypertrees.series"]


def test_dictionary_report_loads_gf_when_called():
    # the first report runs before anything loaded gf: R = fixed = t passes the rooted
    # check, and T = t fails the unrooted one, whose w - w^2 phi' has u-terms
    code = """
import sys
from hypertrees.funceq import hypertree_dictionary_report
from hypertrees.series import Series, TruncationContext
ctx = TruncationContext(t_max=5, magnitude_max=5)
t = Series.variable(ctx, "t")
loaded = "hypertrees.gf" in sys.modules
first = hypertree_dictionary_report(t, t, t)
print(loaded, *[(c.key, c.ok) for c in first], "hypertrees.gf" in sys.modules)
from hypertrees.gf import compute_C, hypertree_series, solve_R_fixed_point
T, R = hypertree_series(compute_C(ctx))
print(*[c.ok for c in hypertree_dictionary_report(T, R, solve_R_fixed_point(ctx))])
"""
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "False ('dictionary-rooted', True) ('dictionary-unrooted', False) True", "True True"]


def test_gf_serves_the_closed_form_count_it_does_not_copy():
    assert gf.count_by_profile is closed.count_by_profile


def test_gf_serves_the_phi_maps_of_series():
    assert gf.phi_maps is series.phi_maps


def test_cli_serves_layer_names_from_the_layer():
    assert cli.compute_C is gf.compute_C


def test_cli_reads_a_patched_name_without_caching_it(monkeypatch):
    def patched(ctx):
        raise AssertionError("not called")

    monkeypatch.setattr(gf, "compute_C", patched)
    assert cli.compute_C is patched
    assert "compute_C" not in vars(cli)


@pytest.mark.parametrize("name", ["_nope", "nope"])
def test_cli_refuses_unknown_names(name):
    with pytest.raises(AttributeError):
        getattr(cli, name)


def test_cli_private_lookup_imports_no_layer():
    # functools, inspect and the like probe dunder names; none of them may load the series stack
    modules = _package_modules("from hypertrees import cli; getattr(cli, '__wrapped__', None)")
    assert modules == ["hypertrees", "hypertrees.cli"]
