"""Tests of the benchmark itself: span arithmetic, patch restoration,
repeatable counts, the output checks and the calibration arithmetic.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hypertrees import cli, funceq, gf, series  # noqa: E402


def test_self_time_arithmetic_on_nested_tree():
    # a [0,10] holds b [1,4] (holding c [2,3]) and b [5,8];
    # a [11,20] holds a nested a [12,15], which total_s must not count twice
    names = ["a", "b", "c", "b", "a", "a"]
    start = [0, 1, 2, 5, 11, 12]
    end = [10, 4, 3, 8, 20, 15]
    parent = [-1, 0, 1, 0, -1, 4]
    stats = tracing.summarize_spans(names, start, end, parent)
    assert stats["a"] == {"calls": 3, "total_s": 19, "self_s": 4 + 6 + 3}
    assert stats["b"] == {"calls": 2, "total_s": 6, "self_s": 2 + 3}
    assert stats["c"] == {"calls": 1, "total_s": 1, "self_s": 1}


def test_self_time_counts_overlapping_children_once():
    # children [1,5] and [3,7] overlap; [8,12] sticks out of its parent [0,10]
    names = ["p", "k", "k", "k"]
    stats = tracing.summarize_spans(names, [0, 1, 3, 8], [10, 5, 7, 12], [-1, 0, 0, 0])
    assert stats["p"]["self_s"] == 10 - (6 + 2)


def _bindings() -> dict:
    out = {(mod.__name__, k): v for mod in tracing._package_modules()
           for k, v in vars(mod).items() if callable(v)}
    out.update({("Series", k): v for k, v in vars(series.Series).items()})
    return out


def test_wrappers_restore_every_patched_name():
    before = _bindings()
    revert, compute_C = series.revert, gf.compute_C
    with tracing.installed(tracing.Tracer()):
        assert funceq.revert is not revert
        assert cli.compute_C is not compute_C and cli.compute_C is gf.compute_C
        assert series.Series.__mul__ is not before[("Series", "__mul__")]
        assert _bindings() != before
    assert funceq.revert is revert and cli.compute_C is compute_C
    assert _bindings() == before


def test_wrappers_restore_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("inside the traced region")
    assert _bindings() == before


def _small_commands(tmp_path: Path) -> dict[str, list[str]]:
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(workloads.random_phi(5)), encoding="utf-8")
    return {
        "verify": ["verify", "--t-max", "4", "--z-max", "4", "--max-edge-size", "6",
                   "--trials", "2", "--sub-trials", "1"],
        "psi": ["psi", str(phi), "--t-max", "6", "--z-max", "6"],
        "oracle": ["oracle", "--n", "4", "--max-magnitude", "3"],
        "table": ["table", "--max-n", "10"],
    }


# span names that must run (and must not) for each small command
EXPECTED_LAYERS = {
    "verify": ({"series.mul", "gf.compute_C", "funceq.lhs_series", "series.revert"},
               {"hypergraphs.count_profile", "gf.count_by_profile"}),
    "psi": ({"series.mul", "funceq.lhs_series", "funceq.psi_from_phi"},
            {"gf.compute_C", "hypergraphs.count_profile"}),
    "oracle": ({"hypergraphs.count_profile", "combinat.partitions"}, {"series.mul"}),
    "table": ({"gf.count_by_profile", "combinat.partitions"},
              {"series.mul", "hypergraphs.count_profile"}),
}


@pytest.mark.parametrize("command", sorted(EXPECTED_LAYERS))
def test_two_traced_runs_give_identical_counts(command, tmp_path, capsys):
    args = _small_commands(tmp_path)[command]
    runs = []
    for _ in range(2):
        summary = tracing.trace_cli(args)
        assert summary["exit_code"] == 0
        calls = {name: s["calls"] for name, s in summary["spans"].items()}
        runs.append((calls, summary["counts"], capsys.readouterr().out))
    assert runs[0] == runs[1]
    ran, skipped = EXPECTED_LAYERS[command]
    assert ran <= set(runs[0][0]) and not skipped & set(runs[0][0])
    metrics = tracing.layer_values(summary)
    assert set(metrics) | {"trace.overhead_s"} == set(tracing.PER_LAYER_UNITS)


def test_psi_reference_matches_the_program(tmp_path):
    for seed in (0, 1):
        phi = tmp_path / f"phi{seed}.json"
        phi.write_text(json.dumps(workloads.random_phi(seed)), encoding="utf-8")
        result = CliRunner().invoke(cli.main, ["psi", str(phi), "--t-max", "8", "--z-max", "8"])
        assert result.exit_code == 0
        assert result.stdout_bytes == workloads.psi_stdout(workloads.random_phi(seed), 7)


def test_random_phi_is_seeded_with_a_fixed_support():
    a, b = workloads.random_phi(3), workloads.random_phi(3)
    assert a == b and a != workloads.random_phi(4)
    support = [(e["m"], e["n"]) for e in a["entries"]]
    assert len(support) == 14 and (0, 0) not in support
    assert all(e["num"] in (-2, -1, 1, 2) and e["den"] in (1, 2, 3) for e in a["entries"])


def test_checks_flag_tampered_output():
    oracle = (workloads.GOLDEN / "oracle-n6.txt").read_bytes()
    assert workloads.oracle_all_column(oracle) == []
    tampered = oracle.replace(b"all=225 ", b"all=226 ", 1)
    assert workloads.oracle_all_column(tampered)
    assert workloads.first_difference(tampered, oracle)
    check = workloads.WORKLOADS["verify-std"].check
    golden = (workloads.GOLDEN / "verify-std.txt").read_bytes()
    assert check(1, Path("."), golden) == []
    assert check(1, Path("."), golden.replace(b"all checks passed", b"verification FAILED"))


def test_calibration_divides_by_the_speed_index(monkeypatch):
    # the host runs at half speed, then every task but one at full speed
    ref = calibration.REFERENCE_S
    speeds = iter([{k: 2 * v for k, v in ref.items()}] * 3
                  + [{k: v if k != "big_ints" else 3 * v for k, v in ref.items()}])
    monkeypatch.setattr(calibration, "time_tasks", lambda: next(speeds))
    calibrated = calibration.Calibrated()
    assert calibrated.scale(10.0) == pytest.approx(5.0)
    # brackets average 1.5x on four tasks and 2.5x on one: index (1.5**4 * 2.5) ** (1/5)
    assert calibrated.scale(10.0) == pytest.approx(10.0 / (1.5**4 * 2.5) ** 0.2)
    assert len(calibrated.brackets) == 2
