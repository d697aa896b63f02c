"""Benchmark the hypertrees CLI, one workload per run.

    python3 perfbench/run.py --workload verify-std --seed 1 --seconds 24 --trace 0

Every command runs as ``python -m hypertrees.cli ...`` in a fresh
interpreter with ``PYTHONPATH=src``, one child at a time (a closed loop
of one caller).  The run first times ``--help`` several times (setup_s:
interpreter start plus package import), then repeats the workload's
command until ``--seconds`` have passed, checking each stdout against the
workload's reference.

The shared host's speed drifts by a fifth or more over minutes.  The
run therefore pins itself and its children to one CPU and brackets every
child with the fixed tasks of ``calibration.py``; each time it reports is
the child's wall time divided by the host's speed index around it, that
is, the wall time on the reference host.  The raw wall times are in the
detail line.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` the window opens with one invocation under ``tracing.py``,
the result carries the per-layer metrics, and ``verify-std`` ends with
one ``--inject-fault`` negative control, which the check must flag.  The
line before the result holds the provenance, every raw wall time, the
calibration brackets and the failure rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from calibration import Calibrated
from tracing import PER_LAYER_UNITS, layer_values
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
RUN_BUDGET_S = 170.0  # every run ends well inside the 180 s limit
INVOCATION_TIMEOUT_S = 90.0


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


@dataclass
class Sample:
    wall_s: float
    scaled_s: float
    peak_rss_mb: float
    ok: bool


def child_env() -> dict[str, str]:
    """The caller's environment with only src/ on the path and no program knobs."""
    src = ROOT / "src"
    if not (src / "hypertrees" / "__init__.py").is_file():
        raise BenchError(f"no hypertrees package under {src}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPERTREES_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def invoke(argv: list[str], env: dict[str, str], work: Path, timeout: float) -> Invocation:
    """Run one child to completion; wall time from spawn to exit, RSS from wait4."""
    out_path, err_path = work / "stdout", work / "stderr"
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                state["exited"] = True
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
        exit_code=proc.returncode,
        timed_out=state["killed"],
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def problems_of(inv: Invocation, check, seed: int, work: Path) -> list[str]:
    if inv.timed_out:
        return ["timed out"]
    if inv.exit_code != 0:
        tail = inv.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return [f"exit code {inv.exit_code}: {tail[0][:200]}"]
    return check(seed, work, inv.stdout)


def git_state() -> tuple[str | None, bool | None]:
    """(commit, dirty) of this checkout; (None, None) when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None, None
    env = dict(os.environ, GIT_DIR=str(ROOT / ".git"), GIT_WORK_TREE=str(ROOT))

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


PROBE = (
    "import json, hypertrees, hypertrees.hypergraphs as h; "
    "print(json.dumps({'file': hypertrees.__file__, 'kernel': h.kernel_name()}))"
)


def provenance(env: dict[str, str], seed: int, work: Path) -> dict:
    """Where the children import hypertrees from, and what they run on.

    Aborts when hypertrees resolves outside this checkout's src/, which
    would measure a stale installed copy.
    """
    inv = invoke([sys.executable, "-c", PROBE], env, work, INVOCATION_TIMEOUT_S)
    if inv.exit_code != 0:
        raise BenchError("cannot import hypertrees: " + inv.stderr.decode(errors="replace")[-300:])
    probe = json.loads(inv.stdout)
    package = Path(probe["file"]).resolve().parent
    if package != (ROOT / "src" / "hypertrees").resolve():
        raise BenchError(f"hypertrees resolves to {package}, outside this checkout's src/")
    commit, dirty = git_state()
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "kernel": probe["kernel"],
    }


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, dict]:
    spec = WORKLOADS[workload]
    env = child_env()
    # one CPU for the children and the calibration around them; children inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    hard_deadline = started + RUN_BUDGET_S
    prov = provenance(env, seed, work)
    cli = [sys.executable, "-m", "hypertrees.cli"]
    args = spec.args(seed, work)
    failures: list[str] = []
    correct = True

    def timeout() -> float:
        left = hard_deadline - time.perf_counter()
        if left <= 1:
            raise BenchError("out of time: the run would exceed its budget")
        return min(INVOCATION_TIMEOUT_S, left)

    calibrated = Calibrated()

    def measure(argv: list[str]) -> Sample:
        inv = invoke(argv, env, work, timeout())
        scaled = calibrated.scale(inv.wall_s)
        problems = problems_of(inv, spec.check, seed, work)
        failures.extend(problems[:1])
        return Sample(inv.wall_s, scaled, inv.peak_rss_mb, not problems)

    detail: dict = {"workload": workload, "provenance": prov}
    window_end = time.perf_counter() + seconds  # a traced run counts inside the window
    if trace:
        summary_path = work / "trace.json"
        traced = measure([sys.executable, str(HERE / "tracing.py"), "--out",
                          str(summary_path), "--", *args])
        if not summary_path.exists():
            raise BenchError("traced run wrote no summary: " + "; ".join(failures[-1:]))
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    else:
        setups, setups_scaled = [], []
        for _ in range(SETUP_RUNS):
            inv = invoke([*cli, "--help"], env, work, timeout())
            if inv.exit_code != 0 or not inv.stdout.startswith(b"Usage:"):
                correct = False
                failures.append(f"--help failed with exit code {inv.exit_code}")
            setups.append(inv.wall_s)
            setups_scaled.append(calibrated.scale(inv.wall_s))
        detail["setup_s"] = {"median": statistics.median(setups_scaled),
                             "raw_median": statistics.median(setups), "samples": setups}
        window_end = time.perf_counter() + seconds

    untraced: list[Sample] = []
    while not untraced or time.perf_counter() < window_end:
        untraced.append(measure([*cli, *args]))
    walls = [s.wall_s for s in untraced]
    wall_median = statistics.median(s.scaled_s for s in untraced)

    if trace and workload == "verify-std":
        control = invoke([*cli, *args, "--inject-fault"], env, work, timeout())
        flagged = bool(problems_of(control, spec.check, seed, work))
        detail["negative_control"] = {"flagged": flagged, "exit_code": control.exit_code}
        correct = correct and flagged

    samples = untraced + [traced] if trace else untraced
    failed = sum(not s.ok for s in samples)
    detail["wall_s"] = {"median": wall_median, "raw_median": statistics.median(walls),
                        "samples": len(walls), "values": walls}
    detail["calibration_s"] = calibrated.brackets
    detail["failure_rate"] = {"value": failed / len(samples), "unit": "ratio",
                              "failed": failed, "attempted": len(samples)}
    detail["failures"] = failures[:5]
    if trace:
        values = layer_values(summary)
        values["trace.overhead_s"] = (traced.wall_s - summary["post_s"]
                                      - statistics.median(walls))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        detail["trace"] = {"kernel": summary["kernel"], "span_count": summary["span_count"],
                           "traced_wall_s": traced.wall_s}
    else:
        metrics = {
            "wall_s": {"value": wall_median, "unit": "s"},
            "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s.peak_rss_mb for s in untraced),
                            "unit": "MB"},
        }
    result = {"correct": correct and failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed; oracle-n6 and table-32 take no seeded input")
    parser.add_argument("--seconds", type=int, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
