"""End-to-end command line checks through click's test runner."""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from hypertrees import __version__
from hypertrees.cli import main, render_table_line
from hypertrees.closed import table_terms

SAMPLE = os.path.join(os.path.dirname(__file__), "data", "sample5.txt")
PHI_C00 = os.path.join(os.path.dirname(__file__), "data", "phi-c00.json")


@pytest.fixture()
def runner():
    return CliRunner()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.output


# -- count ------------------------------------------------------------------------


def test_count_profile_text(runner):
    result = runner.invoke(main, ["count", "--n", "6", "--profile", "u2=3,u3=1"])
    assert result.exit_code == 0
    assert "rooted=12960" in result.output
    assert "unrooted=2160" in result.output


def test_count_profile_json(runner):
    result = runner.invoke(
        main, ["count", "--n", "6", "--profile", "u2=3,u3=1", "--json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {
        "n": 6,
        "profile": {"u2": 3, "u3": 1},
        "rooted": 12960,
        "unrooted": 2160,
    }


def test_count_edges(runner):
    result = runner.invoke(main, ["count", "--n", "3", "--edges", "2", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"n": 3, "edges": 2, "rooted": 9, "unrooted": 3}


def test_count_usage_errors(runner):
    assert runner.invoke(main, ["count", "--n", "3"]).exit_code == 2
    assert (
        runner.invoke(
            main, ["count", "--n", "3", "--profile", "u2=1", "--edges", "1"]
        ).exit_code
        == 2
    )
    assert runner.invoke(main, ["count", "--n", "0", "--edges", "1"]).exit_code == 2
    assert (
        runner.invoke(main, ["count", "--n", "3", "--profile", "v2=1"]).exit_code == 2
    )
    assert (
        runner.invoke(main, ["count", "--n", "3", "--edges", "-1"]).exit_code == 2
    )


@pytest.mark.parametrize("command", ["count", "oracle"])
def test_edge_larger_than_n_is_a_usage_error(runner, command):
    # refused before a counts vector as long as the edge size is built
    result = runner.invoke(main, [command, "--n", "5", "--profile", "u10000000=1"])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.endswith("\nError: an edge of u10000000 has more vertices than n = 5\n")


def _run_cli(*args: str, timeout: float) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so its own process settings and its wall time count."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return subprocess.run(
        [sys.executable, "-m", "hypertrees.cli", *args],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=timeout,
    )


def test_profile_trims_trailing_zeros_in_one_pass():
    # 79,999 zero counts: a trim that re-slices once per zero is quadratic (about 12 s here)
    result = _run_cli("count", "--n", "80000", "--profile", "u80000=0", timeout=5)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith("rooted=0 unrooted=0\n")


def test_count_prints_answers_past_the_int_digit_limit():
    # 2000^1999 has 6,599 digits, past CPython's default limit of 4,300 for int -> str
    result = _run_cli("count", "--n", "2000", "--profile", "u2=1999", timeout=10)
    assert result.returncode == 0, result.stderr
    rooted = result.stdout.split("rooted=")[1].split()[0]
    assert len(rooted) == 6599
    assert rooted == str(2**1999) + "0" * 5997  # 2000^1999, built from a 602-digit str


def test_count_cancels_the_largest_edge_factorial():
    # (n - 1)! in full is 5.6 million digits here (about 21 s); the count is 1
    result = _run_cli("count", "--n", "1000000", "--profile", "u1000000=1", timeout=5)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(" unrooted=1\n")


def test_count_by_edges_sums_stirling_numbers_in_closed_form():
    # S(3999, 2000) by the row recurrence is about 8 million big-int steps (about 11 s)
    result = _run_cli("count", "--n", "4000", "--edges", "2000", timeout=5)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("n=4000 edges=2000 rooted=")


# -- table ------------------------------------------------------------------------


def test_table_text(runner):
    result = runner.invoke(main, ["table", "--max-n", "4"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "[t/1!]T = 1"
    assert lines[3].endswith("= u₄ + 12u₂u₃ + 16u₂³")
    assert len(lines) == 4
    # the default bound, one rendered line per vertex count
    default = runner.invoke(main, ["table"]).output.splitlines()
    assert default == [render_table_line(n, table_terms(n)) for n in range(1, 7)]


def test_table_json(runner):
    result = runner.invoke(main, ["table", "--max-n", "4", "--json"])
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert len(rows) == 4
    assert rows[0] == {"n": 1, "terms": [{"profile": {}, "coefficient": 1}]}
    assert {"profile": {"u2": 1, "u3": 1}, "coefficient": 12} in rows[3]["terms"]


def test_table_json_streams_rows(runner, monkeypatch):
    # each row is printed as it is built: a failure at the last n finds the first printed
    from hypertrees import closed

    real = closed.table_terms

    def failing_last(n):
        if n == 3:
            raise RuntimeError("row 3")
        return real(n)

    monkeypatch.setattr(closed, "table_terms", failing_last)
    result = runner.invoke(main, ["table", "--max-n", "3", "--json"])
    assert isinstance(result.exception, RuntimeError)
    first = json.dumps({"n": 1, "terms": [{"profile": {}, "coefficient": 1}]})
    assert result.output.startswith('{"rows": [' + first + ", ")


def test_table_rejects_bad_bound(runner):
    assert runner.invoke(main, ["table", "--max-n", "0"]).exit_code == 2


# -- oracle -----------------------------------------------------------------------


def test_oracle_check_file(runner):
    result = runner.invoke(main, ["oracle", "--check", SAMPLE])
    assert result.exit_code == 0
    assert "connected=True" in result.output
    assert "hypertree=False" in result.output
    assert "magnitude=10" in result.output


def test_oracle_check_file_json(runner):
    result = runner.invoke(main, ["oracle", "--check", SAMPLE, "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {
        "n": 5,
        "profile": {"u2": 4, "u3": 3},
        "magnitude": 10,
        "connected": True,
        "hypertree": False,
    }


def test_oracle_check_memory_follows_edges(runner, tmp_path):
    # the classifiers index only touched vertices, so a vast n costs nothing
    path = tmp_path / "h.txt"
    path.write_text("1000000000\n1 2\n", encoding="utf-8")
    result = runner.invoke(main, ["oracle", "--check", str(path)])
    assert result.exit_code == 0, result.output
    assert result.output.endswith("connected=False hypertree=False\n")


@pytest.mark.parametrize(
    "text",
    ["3\n1 4\n", "3\n1 x\n", "3\n1 1\n", ""],
    ids=["vertex-out-of-range", "non-integer", "repeated-vertex", "empty"],
)
def test_oracle_check_rejects_malformed_file(runner, tmp_path, text):
    path = tmp_path / "h.txt"
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["oracle", "--check", str(path)])
    assert result.exit_code == 2
    assert "Error: bad hypergraph file:" in result.stderr
    assert "Traceback" not in result.output


def test_oracle_class_hits_skip_zero_terms():
    # 1,600 vertices from 3,200 singleton blocks: one inclusion-exclusion term per t,
    # not t + 1 (about 40 s)
    result = _run_cli("oracle", "--n", "3200", "--profile", "u1600=1", timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (
        f"n=3200 profile=u1600 all={math.comb(3200, 1600)} connected=0 hypertree=0\n"
    )


@pytest.mark.parametrize("count", ["1000001", str(10**20)])
def test_oracle_refuses_more_slots_than_the_budget_before_building_them(count):
    # every slot costs a step; building the slots first took 68 s at 10^6 + 1
    # and raised OverflowError at 10^20
    result = _run_cli("oracle", "--n", "5", "--profile", f"u2={count}", timeout=5)
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr == (
        f"counting needs at least {count} kernel steps, over the budget of 1000000\n"
    )


def test_oracle_single_profile(runner):
    result = runner.invoke(main, ["oracle", "--n", "3", "--profile", "u2=2", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kernel"] == "python"
    assert payload["rows"] == [
        {
            "n": 3,
            "profile": {"u2": 2},
            "all": 9,
            "connected": 6,
            "hypertree": 6,
        }
    ]


def test_oracle_sweep(runner):
    result = runner.invoke(main, ["oracle", "--n", "3", "--max-magnitude", "2"])
    assert result.exit_code == 0
    # profiles: empty, u2, u2^2, u3
    assert len(result.output.splitlines()) == 4


def test_oracle_budget_exit(runner):
    # n = 6, u2^8 takes 136 kernel steps
    result = runner.invoke(
        main, ["oracle", "--n", "6", "--profile", "u2=8", "--budget", "100"]
    )
    assert result.exit_code == 3
    assert "budget" in result.output.lower() or "budget" in (result.stderr or "").lower()


def test_oracle_budget_meters_the_whole_sweep(runner):
    # every profile fits in 100 kernel steps (the largest takes 54),
    # the 27 of them together take 331
    args = ["oracle", "--n", "5", "--max-magnitude", "6", "--budget"]
    result = runner.invoke(main, args + ["100"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "over the budget of 100" in result.stderr
    assert runner.invoke(main, args + ["330"]).exit_code == 3
    result = runner.invoke(main, args + ["331"])
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 27


def test_oracle_negative_budget_is_a_usage_error(runner):
    args = ["oracle", "--n", "3", "--max-magnitude", "1", "--budget"]
    result = runner.invoke(main, args + ["-5"])
    assert result.exit_code == 2
    assert "Invalid value for '--budget': -5 is not in the range x>=0." in result.stderr
    assert result.stdout == ""
    assert runner.invoke(main, args + ["0"]).exit_code == 3


def test_oracle_budget_prices_the_kernel_not_the_hypergraphs(runner):
    # 170,859,375 slot assignments, but 110 kernel steps
    result = runner.invoke(main, ["oracle", "--n", "6", "--profile", "u2=7"])
    assert result.exit_code == 0, result.output
    assert result.stdout == "n=6 profile=u2^7 all=170859375 connected=105840000 hypertree=0\n"
    # no cap on n: one 3-edge on 1000 singletons is one move, worth C(1000, 3) edges
    assert runner.invoke(main, ["oracle", "--n", "7", "--profile", "u2=1"]).exit_code == 0
    result = runner.invoke(main, ["oracle", "--n", "1000", "--profile", "u3=1"])
    assert result.exit_code == 0, result.output
    assert result.stdout == "n=1000 profile=u3 all=166167000 connected=0 hypertree=0\n"
    # the n = 18 sweep to magnitude 17 takes 2,154,650 steps: refused at the default budget
    result = runner.invoke(main, ["oracle", "--n", "18", "--max-magnitude", "17"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "kernel steps, over the budget of 1000000" in result.stderr


def test_oracle_prices_small_n(runner):
    # 5,776 profiles of up to 150 slots on three vertices: every step is priced
    # near its cost, so the run ends, answered or refused, in about a second
    start = time.monotonic()
    result = runner.invoke(main, ["oracle", "--n", "3", "--max-magnitude", "150"])
    elapsed = time.monotonic() - start
    assert result.exit_code in (0, 3), result.output
    assert elapsed < 4.0


def test_oracle_reaches_n12_at_the_default_budget(runner):
    result = runner.invoke(main, ["oracle", "--n", "12", "--max-magnitude", "11"])
    assert result.exit_code == 0, result.output
    assert len(result.stdout.splitlines()) == 195


def test_oracle_usage_errors(runner):
    assert runner.invoke(main, ["oracle"]).exit_code == 2
    assert runner.invoke(main, ["oracle", "--n", "3"]).exit_code == 2
    assert (
        runner.invoke(
            main,
            ["oracle", "--n", "3", "--profile", "u2=1", "--max-magnitude", "2"],
        ).exit_code
        == 2
    )
    result = runner.invoke(main, ["oracle", "--n", "5", "--n-max", "4", "--profile", "u2=1"])
    assert result.exit_code == 2
    assert "No such option '--n-max'" in result.stderr
    assert runner.invoke(main, ["oracle", "--n", "3", "--max-magnitude", "-1"]).exit_code == 2
    assert runner.invoke(main, ["oracle", "--check", SAMPLE, "--n", "0"]).exit_code == 2


ONE_SIDED = [
    ("count", "--n", "0", ["--edges", "1"]),
    ("count", "--edges", "-1", ["--n", "3"]),
    ("table", "--max-n", "0", []),
    ("oracle", "--n", "0", ["--profile", "u2=1"]),
    ("oracle", "--max-magnitude", "-1", ["--n", "3"]),
    ("oracle", "--budget", "-1", ["--n", "3", "--profile", "u2=1"]),
    ("verify", "--t-max", "0", []),
    ("verify", "--z-max", "-1", []),
    ("verify", "--trials", "-1", []),
    ("verify", "--sub-trials", "-1", []),
    ("verify", "--max-edge-size", "1", ["--magnitude-max", "0", "--t-max", "1"]),
    ("psi", "--t-max", "0", [SAMPLE]),
    ("psi", "--z-max", "-1", [SAMPLE]),
]


@pytest.mark.parametrize(
    "command,option,value,rest", ONE_SIDED, ids=[f"{c}{o}" for c, o, _, _ in ONE_SIDED]
)
def test_one_sided_bounds_are_declared_ranges(runner, command, option, value, rest):
    result = runner.invoke(main, [command, option, value] + rest)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}': {value} is not in the range x>=" in result.stderr
    assert result.stdout == ""


# -- verify -----------------------------------------------------------------------

VERIFY_SMALL = [
    "verify",
    "--t-max", "3",
    "--z-max", "3",
    "--max-edge-size", "4",
    "--trials", "3",
    "--sub-trials", "2",
]


def test_verify_small_green(runner):
    result = runner.invoke(main, VERIFY_SMALL)
    assert result.exit_code == 0, result.output
    assert "all checks passed" in result.output
    assert "FAIL" not in result.output


def test_verify_json_payload(runner):
    result = runner.invoke(main, VERIFY_SMALL + ["--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert payload["identities"]["ok"] is True
    # edge recursions clamp to the u2..u4 alphabet here, so 15 of the 18
    assert len(payload["identities"]["checks"]) == 15
    assert payload["vanishing"]["ok"] is True
    assert payload["diagonal"]["ok"] is True
    assert payload["substitution"]["ok"] is True
    assert len(payload["vanishing"]["rows"]) == 3
    assert len(payload["substitution"]["rows"]) == 2


def _count_calls(monkeypatch, name, modules):
    """Wrap the function ``name`` in every module that holds it, by-name
    imports included, and return the list each call appends to."""
    real = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_solves_the_fixed_point_once(runner, monkeypatch):
    from hypertrees import funceq, gf, series

    solves = _count_calls(monkeypatch, "solve_R_fixed_point", (gf, funceq))
    reverts = _count_calls(monkeypatch, "revert", (series, gf, funceq))
    result = runner.invoke(main, VERIFY_SMALL)
    assert result.exit_code == 0, result.output
    assert len(solves) == 1
    # one reversion per seeded array for psi, and the fixed point's, which
    # the dictionary reads instead of reverting the edge weights again
    trials = int(VERIFY_SMALL[VERIFY_SMALL.index("--trials") + 1])
    assert len(reverts) == trials + 1


def test_verify_computes_C_once(runner, monkeypatch):
    # at t = z = magnitude the pipeline and the substitution route share one context
    # and one C, and the identity suite and the dictionary read one hypertree layer T of it
    from hypertrees import funceq, gf

    calls = _count_calls(monkeypatch, "compute_C", (gf,))
    layers = _count_calls(monkeypatch, "compute_T", (gf, funceq))
    result = runner.invoke(main, VERIFY_SMALL)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert len(layers) == 1


@pytest.mark.parametrize("trials, sub_trials", [(3, 2), (1, 2), (0, 2), (2, 0)])
def test_verify_expands_L_once_per_seed(runner, monkeypatch, trials, sub_trials):
    from hypertrees import funceq

    calls = _count_calls(monkeypatch, "lhs_series", (funceq,))
    args = VERIFY_SMALL + ["--trials", str(trials), "--sub-trials", str(sub_trials)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == max(trials, sub_trials)
    # each L is born in the substitution route's context, where it is compared
    assert all(ctx.magnitude_max == ctx.z_max for _, ctx in calls)


def test_verify_substitution_reads_L_the_same_past_the_trials(runner):
    # a seed past --trials expands its own L; one under it reuses the trial's L
    def substitution(trials):
        args = ["verify", "--t-max", "5", "--z-max", "5", "--trials", trials,
                "--sub-trials", "4", "--json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return json.loads(result.stdout)["substitution"]

    assert substitution("1") == substitution("4")


def test_verify_inject_fault_fails(runner):
    result = runner.invoke(main, VERIFY_SMALL + ["--inject-fault"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_inject_fault_reaches_the_dictionary(runner):
    # the dictionary reads R and T off C, so the planted term of C fails both its checks
    args = ["verify", "--t-max", "4", "--z-max", "2", "--inject-fault", "--json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    payload = json.loads(result.stdout)
    assert payload["dictionary"]["ok"] is False
    assert [c["ok"] for c in payload["dictionary"]["checks"]] == [False, False]


def test_verify_inject_fault_refused_below_t_max_2(runner):
    # t^2 u2 lies outside a t_max = 1 context, so the flag could plant nothing
    args = ["verify", "--t-max", "1", "--z-max", "0", "--trials", "0", "--sub-trials", "0"]
    assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, args + ["--inject-fault"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert "--inject-fault needs --t-max >= 2" in result.stderr


def test_verify_bound_validation(runner):
    r = runner.invoke(main, ["verify", "--t-max", "4", "--magnitude-max", "2"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["verify", "--t-max", "3", "--max-edge-size", "3"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["verify", "--t-max", "0"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["verify", "--trials", "-1", "--sub-trials", "0"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["verify", "--trials", "0", "--sub-trials", "-1"])
    assert r.exit_code == 2


def test_verify_sizes_contexts_by_magnitude(runner, monkeypatch):
    # no u_i past magnitude_max + 1 can carry a term, so a huge --max-edge-size
    # changes nothing but the width of the printed check list, already 5 at M = 5
    from hypertrees import gf

    real = gf.compute_C
    contexts = []

    def recorded(ctx):
        contexts.append(ctx)
        return real(ctx)

    monkeypatch.setattr(gf, "compute_C", recorded)
    args = ["verify", "--t-max", "4", "--z-max", "2", "--trials", "1", "--sub-trials", "1"]
    small = runner.invoke(main, args + ["--max-edge-size", "5"])
    huge = runner.invoke(main, args + ["--max-edge-size", "1000"])
    assert small.exit_code == huge.exit_code == 0, huge.output
    assert huge.stdout_bytes == small.stdout_bytes
    # per run, one C for the suite at magnitude 4 and one for the substitution route at 2
    assert len(contexts) == 4
    for ctx in contexts:
        assert ctx.names[2:] == tuple(f"u{i}" for i in range(2, ctx.magnitude_max + 2))


def test_verify_builds_C_once_per_context(runner, monkeypatch):
    # at t = z = magnitude (perfbench's verify-std) the suite and the substitution
    # route share one context and one C; elsewhere C is built in the suite's
    # (t, z, magnitude), then in the substitution route's (t, z, z)
    from hypertrees import gf
    from hypertrees.series import TruncationContext

    calls = _count_calls(monkeypatch, "compute_C", (gf,))
    verify_std = ["--t-max", "10", "--z-max", "10", "--max-edge-size", "12",
                  "--trials", "5", "--sub-trials", "1"]
    for bounds, built in [
        (verify_std, [(10, 10, 10)]),
        (["--t-max", "4", "--z-max", "2"], [(4, 2, 4), (4, 2, 2)]),
        (["--t-max", "4", "--z-max", "7"], [(4, 7, 4), (4, 7, 7)]),
    ]:
        calls.clear()
        result = runner.invoke(main, ["verify"] + bounds)
        assert result.exit_code == 0, result.output
        assert calls == [(TruncationContext(*b),) for b in built]


@pytest.mark.parametrize("t_max, z_max", [(3, 0), (3, 8), (8, 3), (7, 8)])
def test_verify_without_z(runner, t_max, z_max):
    # at magnitude != z the suite's and the substitution route's contexts differ
    # in edge alphabet, and each builds its own C
    args = ["verify", "--t-max", str(t_max), "--z-max", str(z_max),
            "--max-edge-size", str(t_max + 1)]
    result = runner.invoke(main, args + ["--trials", "2", "--sub-trials", "1"])
    assert result.exit_code == 0, result.output
    assert result.output.endswith("all checks passed\n")


def test_verify_zero_trials_reports_skip(runner):
    args = ["verify", "--t-max", "3", "--z-max", "3", "--max-edge-size", "4"]
    result = runner.invoke(main, args + ["--trials", "0", "--sub-trials", "0"])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[-4].startswith("skip vanishing pattern over 0 seeded arrays")
    assert lines[-3].startswith("skip psi diagonal over 0 seeded arrays")
    assert lines[-2].startswith("skip substitution route over 0 seeded arrays")


TAG_OF = {True: "ok  ", False: "FAIL", None: "skip"}


def _text_and_json(runner, args):
    text = runner.invoke(main, args)
    as_json = runner.invoke(main, args + ["--json"])
    assert text.exit_code == as_json.exit_code, (args, text.output, as_json.output)
    return text, json.loads(as_json.stdout), as_json.exit_code


@pytest.mark.parametrize("fault", [False, True], ids=["clean", "inject-fault"])
def test_verify_text_and_json_give_the_same_verdicts(runner, fault):
    # --inject-fault is refused below t_max = 2, where it could plant nothing
    for t_max, z_max, trials, sub_trials in itertools.product(
        range(1 + fault, 4), range(0, 2), range(0, 2), range(0, 2)
    ):
        args = ["verify", "--t-max", str(t_max), "--z-max", str(z_max),
                "--trials", str(trials), "--sub-trials", str(sub_trials)]
        text, payload, exit_code = _text_and_json(runner, args + ["--inject-fault"] * fault)
        verdicts = [check["ok"] for check in payload["identities"]["checks"]]
        verdicts += [check["ok"] for check in payload["dictionary"]["checks"]]
        verdicts += [payload[name]["ok"] for name in ("vanishing", "diagonal", "substitution")]
        *lines, last = text.stdout.splitlines()
        assert [line[:4] for line in lines] == [TAG_OF[ok] for ok in verdicts], args
        assert last == ("all checks passed" if payload["ok"] else "verification FAILED")
        assert exit_code == (0 if payload["ok"] else 1)
        # a section reads ok only over the checks that ran, and null when none did
        for name in ("identities", "dictionary"):
            ran = [c["ok"] for c in payload[name]["checks"] if c["ok"] is not None]
            assert payload[name]["ok"] == (all(ran) if ran else None)
        assert payload["vanishing"]["ok"] == payload["diagonal"]["ok"] == (
            None if trials == 0 else True)
        # the planted t^2 u2 reaches the substitution route once z can carry u2
        assert payload["substitution"]["ok"] == (
            None if sub_trials == 0 else not (fault and z_max >= 1))
        assert payload["ok"] == all(ok is not False for ok in verdicts)


def test_verify_json_writes_diagonal_mismatches_as_rationals(runner, monkeypatch):
    # the seeded arrays always agree on the diagonal, so a mismatch is planted after check_phi
    from hypertrees import funceq

    real = funceq.check_phi

    def planted(*args):
        L, violations, pair, mismatches = real(*args)
        assert mismatches == []
        return L, violations, pair, [(1, Fraction(2), Fraction(-3, 4))]

    monkeypatch.setattr(funceq, "check_phi", planted)
    args = ["verify", "--t-max", "3", "--z-max", "2", "--trials", "1", "--sub-trials", "0"]
    result = runner.invoke(main, args + ["--json"])
    assert result.exit_code == 1, result.output
    payload = json.loads(result.stdout)
    assert payload["diagonal"]["ok"] is False
    assert payload["vanishing"]["rows"][0]["diagonal_mismatches"] == [
        {"power": 1, "psi": {"num": 2, "den": 1}, "lhs": {"num": -3, "den": 4}}
    ]


# -- psi --------------------------------------------------------------------------


@pytest.mark.parametrize("violations, mismatches", [
    ([], []),
    ([(0, 1, Fraction(1, 2))], []),
    ([], [(1, Fraction(2), Fraction(3))]),
    ([(0, 1, Fraction(1, 2))], [(1, Fraction(2), Fraction(3))]),
])
def test_psi_text_and_json_give_the_same_verdicts(runner, monkeypatch, violations, mismatches):
    # the reduced array always has the psi form, so failures are planted after check_phi
    from hypertrees import funceq

    real = funceq.check_phi

    def planted(*args):
        L, found, pair, diagonal = real(*args)
        assert (found, diagonal) == ([], [])
        return L, violations, pair, mismatches

    monkeypatch.setattr(funceq, "check_phi", planted)
    text, payload, exit_code = _text_and_json(runner, ["psi", PHI_C00, "--t-max", "4"])
    *_, vanishing_line, diagonal_line = text.stdout.splitlines()
    assert vanishing_line.startswith("vanishing ok" if payload["vanishing"]["ok"]
                                     else "vanishing FAILED: ")
    assert diagonal_line.startswith("diagonal ok" if payload["diagonal_ok"]
                                    else "diagonal FAILED: ")
    # rationals print as p/q, like the psi[k] rows, never as Python reprs
    assert "Fraction(" not in text.stdout
    assert ("t^0 z^1: 1/2" in vanishing_line) == bool(violations)
    assert ("y^1: psi 2/1 vs L 3/1" in diagonal_line) == bool(mismatches)
    assert payload["vanishing"]["ok"] == (not violations)
    assert payload["vanishing"]["violations"] == [
        {"t": a, "z": b, "num": c.numerator, "den": c.denominator} for a, b, c in violations
    ]
    assert payload["diagonal_ok"] == (not mismatches)
    assert exit_code == (1 if violations or mismatches else 0)


def test_psi_text_reads_no_psi_uv(runner, monkeypatch):
    # psi_uv decodes every term of L for the JSON payload; the text report prints none of it
    from hypertrees import funceq

    def unread(L):
        raise AssertionError("the text report built the JSON payload")

    monkeypatch.setattr(funceq, "psi_uv_coefficients", unread)
    result = runner.invoke(main, ["psi", PHI_C00, "--t-max", "4", "--z-max", "4"])
    assert result.exit_code == 0, result.output
    assert result.stdout.endswith("vanishing ok\ndiagonal ok\n")


def test_psi_text_decodes_only_psi_terms(runner, monkeypatch):
    # the vanishing check selects L's off-form terms on their key fields, and on a
    # passing run there are none: the only terms decoded are the printed psi[k]
    from hypertrees.series import Series

    decoded = []
    terms = Series.terms

    def counted(self):
        decoded.append(self.n_terms)
        return terms(self)

    monkeypatch.setattr(Series, "terms", counted)
    result = runner.invoke(main, ["psi", PHI_C00, "--t-max", "8", "--z-max", "8"])
    assert result.exit_code == 0, result.output
    assert sum(decoded) == result.stdout.count("psi[") > 0


def _write_phi(tmp_path, entries):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    return str(path)


def test_psi_single_variable(runner, tmp_path):
    path = _write_phi(tmp_path, [{"m": 1, "n": 0, "num": 1, "den": 1}])
    result = runner.invoke(main, ["psi", path, "--t-max", "5", "--z-max", "5", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["log_t_scale"] == {"num": 0, "den": 1}
    assert payload["psi"] == [
        {"power": 0, "num": 1, "den": 1},
        {"power": 1, "num": 1, "den": 1},
        {"power": 2, "num": 2, "den": 1},
        {"power": 3, "num": 16, "den": 3},
        {"power": 4, "num": 50, "den": 3},
    ]
    assert payload["vanishing"]["ok"] is True
    assert payload["diagonal_ok"] is True
    assert {"u": 0, "v": 0, "num": 1, "den": 1} in payload["psi_uv"]


def test_psi_reports_log_scale(runner, tmp_path):
    path = _write_phi(
        tmp_path,
        [{"m": 0, "n": 0, "num": 2, "den": 1}, {"m": 1, "n": 0, "num": 1, "den": 1}],
    )
    result = runner.invoke(main, ["psi", path, "--t-max", "4", "--z-max", "4"])
    assert result.exit_code == 0, result.output
    assert "log t-scale: 2" in result.output
    json_result = runner.invoke(
        main, ["psi", path, "--t-max", "4", "--z-max", "4", "--json"]
    )
    assert json.loads(json_result.output)["log_t_scale"] == {"num": 2, "den": 1}


def test_psi_without_z(runner, tmp_path):
    path = _write_phi(tmp_path, [{"m": 1, "n": 0, "num": 1, "den": 1}])
    result = runner.invoke(main, ["psi", path, "--t-max", "4", "--z-max", "0"])
    assert result.exit_code == 0, result.output
    assert "vanishing ok\ndiagonal ok\n" in result.output


def test_psi_bad_inputs(runner, tmp_path):
    bad = tmp_path / "phi.json"
    bad.write_text("{\"entries\": [{\"m\": -1}]}", encoding="utf-8")
    assert runner.invoke(main, ["psi", str(bad)]).exit_code == 2
    assert runner.invoke(main, ["psi", str(tmp_path / "missing.json")]).exit_code == 2
    good = _write_phi(tmp_path, [{"m": 1, "n": 0, "num": 1, "den": 1}])
    assert (
        runner.invoke(main, ["psi", good, "--t-max", "3", "--order", "5"]).exit_code
        == 2
    )
    # JSON nested past the parser's recursion limit, alone and under "entries"
    deep = "[" * 100_000 + "]" * 100_000
    for text in (deep, '{"entries": ' + deep + "}"):
        bad.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["psi", str(bad)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1].startswith("Error: bad Phi file: ")
    zero_den = _write_phi(tmp_path, [{"m": 1, "n": 0, "num": 1, "den": 0}])
    result = runner.invoke(main, ["psi", zero_den])
    assert result.exit_code == 2
    assert "Error: bad Phi file: entry (1, 0) has a zero denominator" in result.stderr
    # JSON numbers that are not integers are refused, not rounded or coerced
    for entry in (
        {"m": 1, "n": 0, "num": 1.5},
        {"m": 1.9, "n": 0, "num": 1},
        {"m": 1, "n": 0, "num": True},
        {"m": "1", "n": 0, "num": 1},
        {"m": 1, "n": 0, "num": 1, "den": 2.7},
    ):
        result = runner.invoke(main, ["psi", _write_phi(tmp_path, [entry])])
        assert result.exit_code == 2, entry
        assert "Error: bad Phi file: field " in result.stderr, entry
