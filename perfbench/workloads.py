"""The four benchmark workloads: CLI arguments, seeded inputs and output checks.

Each workload is one ``hypertrees`` command.  Its stdout is compared byte
for byte with a reference for that workload and seed:

* ``verify-std`` prints one status line per check and no numbers that
  depend on the seed, so one golden file serves every seed;
* ``psi-deep`` prints reversion coefficients of a seeded Phi array; the
  reference is recomputed here by Lagrange inversion, a different route
  from the program's fixed-point reversion;
* ``oracle-n6`` and ``table-32`` are seed-free and compare with a golden
  file (the table by SHA-256, as it is 1.8 MB).  Every oracle row's
  ``all`` column is also checked against prod C(n, size), computed here.

Nothing in this module imports the program, so a change to the program
cannot change the inputs or the references.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden"

PSI_T_MAX = 16
ORACLE_N = 6


def random_phi(seed: int) -> dict:
    """Phi(u, v) in the CLI's JSON form, drawn from ``random.Random(seed)``.

    Every (m, n) with 1 <= m + n <= 4 gets a numerator from {-2, -1, 1, 2}
    and a denominator from {1, 2, 3}; there is no constant term.  Zero
    numerators are left out so that the support, and with it the work per
    run, is the same for every seed.
    """
    rng = random.Random(seed)
    entries = []
    for m in range(5):
        for n in range(5 - m):
            if (m, n) == (0, 0):
                continue
            num = rng.choice((-2, -1, 1, 2))
            den = rng.choice((1, 2, 3))
            entries.append({"m": m, "n": n, "num": num, "den": den})
    return {"entries": entries}


# -- psi by Lagrange inversion ------------------------------------------------


def _mul(a: list[Fraction], b: list[Fraction], size: int) -> list[Fraction]:
    out = [Fraction(0)] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i]):
                out[i + j] += x * y
    return out


def _exp(a: list[Fraction], size: int) -> list[Fraction]:
    """exp of a power series with a[0] == 0, by j e_j = sum_i i a_i e_{j-i}."""
    e = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for j in range(1, size):
        e[j] = sum((i * a[i] * e[j - i] for i in range(1, j + 1) if i < len(a)), Fraction(0)) / j
    return e


def psi_reference(phi_json: dict, order: int) -> list[Fraction]:
    """psi_0 .. psi_order for phi(u) = Phi(u, 0).

    With G(w) = phi(w) + w phi'(w) and F = exp(G), the equation
    y = w exp(-G(w)) reads w = y F(w).  Lagrange inversion of
    H(w) = w - w^2 phi'(w) = y psi(y) gives
    psi_k = [w^k] H'(w) F(w)^(k+1) / (k + 1).
    """
    size = order + 1
    phi = [Fraction(0)] * (size + 2)
    for e in phi_json["entries"]:
        if e["n"] == 0 and e["m"] < len(phi):
            phi[e["m"]] += Fraction(e["num"], e["den"])
    g = [(m + 1) * c for m, c in enumerate(phi)][:size]
    # H'(w) = 1 - 2 w phi'(w) - w^2 phi''(w) = 1 - sum_m m (m + 1) phi_m w^m
    h_prime = [Fraction(1)] + [-m * (m + 1) * phi[m] for m in range(1, size)]
    out = []
    for k in range(size):
        f_power = _exp([(k + 1) * c for c in g], size)
        out.append(_mul(h_prime, f_power, size)[k] / (k + 1))
    return out


def psi_stdout(phi_json: dict, order: int) -> bytes:
    """The exact text ``hypertrees psi`` prints for a Phi with no constant term."""
    lines = [
        f"psi[{k}] = {c.numerator}/{c.denominator}"
        for k, c in enumerate(psi_reference(phi_json, order))
        if c
    ]
    lines += ["vanishing ok", "diagonal ok"]
    return ("\n".join(lines) + "\n").encode()


# -- output checks ---------------------------------------------------------------


def first_difference(out: bytes, ref: bytes) -> list[str]:
    """[] when equal, else one message naming the first line that differs."""
    if out == ref:
        return []
    got, want = out.splitlines(), ref.splitlines()
    for i in range(max(len(got), len(want))):
        a = got[i] if i < len(got) else b"<missing>"
        b = want[i] if i < len(want) else b"<missing>"
        if a != b:
            return [f"stdout line {i + 1}: got {a[:120]!r}, want {b[:120]!r}"]
    return ["stdout differs from the reference in line endings"]


_ORACLE_ROW = re.compile(rb"^n=(\d+) profile=(.+) all=(\d+) connected=\d+ hypertree=\d+$")


def oracle_all_column(out: bytes) -> list[str]:
    """Check each row's ``all`` against prod_sizes C(n, size)^count."""
    problems = []
    for line in out.splitlines():
        match = _ORACLE_ROW.match(line)
        if match is None:
            problems.append(f"unparsed oracle row {line[:120]!r}")
            continue
        n, profile, total = int(match[1]), match[2].decode(), int(match[3])
        expected = 1
        if profile != "1":
            for factor in profile.split():
                size, _, count = factor[1:].partition("^")
                expected *= comb(n, int(size)) ** int(count or 1)
        if total != expected:
            problems.append(f"n={n} profile={profile}: all={total}, want {expected}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool
    args: Callable[[int, Path], list[str]]
    check: Callable[[int, Path, bytes], list[str]]


def _verify_args(seed: int, work: Path) -> list[str]:
    return ["verify", "--t-max", "10", "--z-max", "10", "--max-edge-size", "12",
            "--trials", "5", "--sub-trials", "1", "--seed", str(seed)]


def _verify_check(seed: int, work: Path, out: bytes) -> list[str]:
    return first_difference(out, (GOLDEN / "verify-std.txt").read_bytes())


def _phi_path(seed: int, work: Path) -> Path:
    path = work / f"phi-{seed}.json"
    if not path.exists():
        path.write_text(json.dumps(random_phi(seed)), encoding="utf-8")
    return path


def _psi_args(seed: int, work: Path) -> list[str]:
    return ["psi", str(_phi_path(seed, work)), "--t-max", str(PSI_T_MAX),
            "--z-max", str(PSI_T_MAX)]


def _psi_check(seed: int, work: Path, out: bytes) -> list[str]:
    return first_difference(out, psi_stdout(random_phi(seed), PSI_T_MAX - 1))


def _oracle_args(seed: int, work: Path) -> list[str]:
    return ["oracle", "--n", str(ORACLE_N), "--max-magnitude", "5"]


def _oracle_check(seed: int, work: Path, out: bytes) -> list[str]:
    golden = (GOLDEN / "oracle-n6.txt").read_bytes()
    return first_difference(out, golden) + oracle_all_column(out)


def _table_args(seed: int, work: Path) -> list[str]:
    return ["table", "--max-n", "32"]


def _table_check(seed: int, work: Path, out: bytes) -> list[str]:
    want = json.loads((GOLDEN / "table-32.json").read_text(encoding="utf-8"))
    got = {"bytes": len(out), "sha256": hashlib.sha256(out).hexdigest()}
    return [] if got == want else [f"stdout {got} differs from the reference {want}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-std",
                 "the identity suite at t = z = 10 with 5 trial arrays: sparse "
                 "13-variable series, C/T/R pipeline, dictionary and substitution route",
                 True, _verify_args, _verify_check),
        Workload("psi-deep",
                 "one seeded Phi at t = z = 16: dense 2-variable series with "
                 "many-digit rational coefficients, no C/T/R and no oracle",
                 True, _psi_args, _psi_check),
        Workload("oracle-n6",
                 "brute-force oracle over 19 profiles and 896,348 labeled "
                 "hypergraphs on 6 vertices: all kernel, no series",
                 False, _oracle_args, _oracle_check),
        Workload("table-32",
                 "closed-form table to n = 32: count_by_profile, partitions and "
                 "rendering, no series and no kernel",
                 False, _table_args, _table_check),
    )
}
