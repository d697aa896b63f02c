"""Command line interface, and the only module that formats results.

The library returns plain data; this module turns it into text or JSON.
A verdict is True, False, or None for a check that ran no cases: its
text tag is ``ok``, ``FAIL`` or ``skip`` and its JSON ``"ok"`` is
true, false or null.  Exit codes: 0 on success, 1 when a verification
fails, 2 on usage errors (click's default), 3 when the oracle's counting
kernel would run past its budget.  All rational values are emitted as
exact num/den pairs or p/q strings; no floats appear anywhere.

Each command imports the layers it runs as it runs, so ``--help`` and
``--version`` load no layer, and ``count``, ``table`` and ``oracle`` load
no series stack.  ``__getattr__`` below still serves the layers' names as
this module's, because perfbench's tracer reads them here.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING, Iterable, NamedTuple

import click

from . import DEFAULT_BUDGET, __version__

if TYPE_CHECKING:
    from fractions import Fraction

    from .gf import IdentityCheck
    from .hypergraphs import EdgeProfile
    from .series import TruncationContext

EXIT_VERIFY_FAILED = 1
EXIT_BUDGET = 3
POSITIVE = click.IntRange(min=1)
NON_NEGATIVE = click.IntRange(min=0)


def __getattr__(name: str):
    """A public name of the series, gf or funceq layer, read from it on every access:
    a cached name would outlive the tracer's patch.  It goes with the tracer (ROADMAP 5)."""
    if not name.startswith("_"):
        from . import funceq, gf, series

        for layer in (series, gf, funceq):  # a name's home is the lowest layer binding it
            if name in vars(layer):
                return vars(layer)[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@click.group()
@click.version_option(version=__version__, prog_name="hypertrees")
def main() -> None:
    """Exact hypertree counts, brute-force oracles and identity checks."""
    if hasattr(sys, "set_int_max_str_digits"):  # exact answers can pass 4,300 digits
        sys.set_int_max_str_digits(0)


def _context(t_max: int, z_max: int, magnitude_max: int) -> TruncationContext:
    """The series context of these bounds; a usage error when none can hold them."""
    from .series import TruncationContext

    try:
        return TruncationContext(t_max=t_max, z_max=z_max, magnitude_max=magnitude_max)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_profile(text: str, n: int) -> EdgeProfile:
    from .hypergraphs import EdgeProfile

    try:
        return EdgeProfile.parse(text, n)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _emit(payload: dict, lines: list[str], as_json: bool, ok: bool = True) -> None:
    """Print the JSON payload or the text lines, then exit 1 on a failed check."""
    click.echo(json.dumps(payload) if as_json else "\n".join(lines))
    if not ok:
        sys.exit(EXIT_VERIFY_FAILED)


@main.command()
@click.option("--n", "n", type=POSITIVE, required=True, help="number of labeled vertices")
@click.option("--profile", "profile_text", default=None, help="edge profile, e.g. u2=2,u3=1")
@click.option("--edges", "edges", type=NON_NEGATIVE, default=None, help="total number of edges")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def count(n: int, profile_text: str | None, edges: int | None, as_json: bool) -> None:
    """Closed-form hypertree counts on n labeled vertices."""
    if (profile_text is None) == (edges is None):
        raise click.UsageError("give exactly one of --profile or --edges")
    from .closed import count_by_profile, rooted_count_by_edges

    if profile_text is not None:
        profile = _parse_profile(profile_text, n)
        rooted, unrooted = count_by_profile(n, profile)
        payload = {
            "n": n,
            "profile": profile.as_dict(),
            "rooted": rooted,
            "unrooted": unrooted,
        }
        text = f"n={n} profile={profile} rooted={rooted} unrooted={unrooted}"
    else:
        rooted = rooted_count_by_edges(n, edges)
        payload = {"n": n, "edges": edges, "rooted": rooted, "unrooted": rooted // n}
        text = f"n={n} edges={edges} rooted={rooted} unrooted={rooted // n}"
    _emit(payload, [text], as_json)


@main.command()
@click.option("--max-n", "max_n", type=POSITIVE, default=6, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def table(max_n: int, as_json: bool) -> None:
    """Unrooted hypertree counts by edge profile, one line per vertex count."""
    from .closed import render_table_line, table_terms

    if as_json:  # streamed one row at a time, in json.dumps' own layout
        click.echo('{"rows": [', nl=False)
        for n in range(1, max_n + 1):
            terms = [{"profile": p.as_dict(), "coefficient": c} for p, c in table_terms(n)]
            click.echo((", " if n > 1 else "") + json.dumps({"n": n, "terms": terms}), nl=False)
        click.echo("]}")
    else:
        for n in range(1, max_n + 1):
            click.echo(render_table_line(n))


@main.command()
@click.option("--n", "n", type=POSITIVE, default=None, help="number of labeled vertices")
@click.option("--profile", "profile_text", default=None, help="edge profile, e.g. u2=2")
@click.option("--max-magnitude", "max_magnitude", type=NON_NEGATIVE, default=None,
              help="sweep every profile up to this magnitude")
@click.option("--budget", type=NON_NEGATIVE, default=DEFAULT_BUDGET, show_default=True,
              help="most counting-kernel steps accepted per run")
@click.option("--check", "check_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="classify one hypergraph from a text file")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def oracle(
    n: int | None,
    profile_text: str | None,
    max_magnitude: int | None,
    budget: int,
    check_path: str | None,
    as_json: bool,
) -> None:
    """Brute-force hypergraph counts: all / connected / hypertree."""
    from .hypergraphs import (BudgetExceededError, classify, count_profile, count_sweep,
                              kernel_name, parse_hypergraph)

    if check_path is not None:
        with open(check_path, "r", encoding="utf-8") as fh:
            try:
                h = parse_hypergraph(fh.read())
            except ValueError as exc:
                raise click.UsageError(f"bad hypergraph file: {exc}") from exc
        connected, hypertree = classify(h)
        payload = {
            "n": h.n,
            "profile": h.profile().as_dict(),
            "magnitude": h.edge_magnitude,
            "connected": connected,
            "hypertree": hypertree,
        }
        text = (f"n={h.n} profile={h.profile()} magnitude={h.edge_magnitude} "
                f"connected={connected} hypertree={hypertree}")
        _emit(payload, [text], as_json)
        return
    if n is None:
        raise click.UsageError("need --n (or --check FILE)")
    if (profile_text is None) == (max_magnitude is None):
        raise click.UsageError("give exactly one of --profile or --max-magnitude")
    try:
        if profile_text is not None:
            rows = [count_profile(n, _parse_profile(profile_text, n), budget=budget)]
        else:
            rows = count_sweep(n, max_magnitude, budget=budget)
    except BudgetExceededError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_BUDGET)
    lines = [f"n={row.n} profile={row.profile} all={row.total} "
             f"connected={row.connected} hypertree={row.hypertree}" for row in rows]
    _emit({"kernel": kernel_name(), "rows": [r.as_dict() for r in rows]}, lines, as_json)


_TAG = {True: "ok  ", False: "FAIL", None: "skip"}


def _verdict(oks: Iterable[bool | None]) -> bool | None:
    """All of the verdicts that ran; None when none ran."""
    ran = [ok for ok in oks if ok is not None]
    return all(ran) if ran else None


class Section(NamedTuple):
    """One verdict of a report, True, False or None when it ran no cases,
    with its JSON value and its text lines."""

    ok: bool | None
    value: dict
    lines: list[str]


def _rational(c: Fraction) -> dict:
    return {"num": c.numerator, "den": c.denominator}


def _pq(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


def _identity_section(checks: tuple[IdentityCheck, ...]) -> Section:
    rows, lines = [], []
    for c in checks:
        rows.append({
            "key": c.key,
            "formula": c.formula,
            "ok": c.ok,
            "region": {"t_max": c.t_bound, "magnitude_max": c.magnitude_bound},
            "first_diff": c.first_diff,
        })
        region = f"[t<={c.t_bound}, magnitude<={c.magnitude_bound}]"
        line = f"{_TAG[c.ok]} {c.key:28s} {region} {c.formula}"
        lines.append(line + (f"  first diff at {c.first_diff}" if c.first_diff else ""))
    ok = _verdict(row["ok"] for row in rows)
    return Section(ok, {"ok": ok, "checks": rows}, lines)


def _trial_section(oks: list[bool], text: str, **fields) -> Section:
    """One verdict over seeded arrays, one ok per array: skip when there were none."""
    ok = _verdict(oks)
    return Section(ok, {"ok": ok, "trials": len(oks), **fields}, [f"{_TAG[ok]} {text}"])


def _vanishing(violations: list[tuple[int, int, Fraction]], t_max: int, z_max: int) -> dict:
    return {
        "ok": not violations,
        "region": {"t_max": t_max, "z_max": z_max},
        "violations": [{"t": a, "z": b, **_rational(c)} for a, b, c in violations],
    }


@main.command()
@click.option("--t-max", "t_max", type=POSITIVE, default=6, show_default=True)
@click.option("--z-max", "z_max", type=NON_NEGATIVE, default=6, show_default=True)
@click.option("--magnitude-max", "magnitude_max", type=int, default=None,
              help="defaults to --t-max")
@click.option("--max-edge-size", "max_edge_size", type=click.IntRange(min=2), default=8,
              show_default=True)
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--trials", type=NON_NEGATIVE, default=20, show_default=True)
@click.option("--sub-trials", "sub_trials", type=NON_NEGATIVE, default=5, show_default=True,
              help="seeded arrays pushed through the substitution route")
@click.option("--inject-fault", "inject_fault", is_flag=True, hidden=True,
              help="flip one coefficient before checking (negative control)")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def verify(
    t_max: int,
    z_max: int,
    magnitude_max: int | None,
    max_edge_size: int,
    seed: int,
    trials: int,
    sub_trials: int,
    inject_fault: bool,
    as_json: bool,
) -> None:
    """Run the full identity suite at the configured truncation."""
    if magnitude_max is None:
        magnitude_max = t_max
    if magnitude_max < t_max - 1:
        raise click.UsageError("need --magnitude-max >= t_max - 1")
    if max_edge_size - 1 < magnitude_max:
        raise click.UsageError("need --max-edge-size > --magnitude-max")
    if inject_fault and t_max < 2:
        raise click.UsageError("--inject-fault needs --t-max >= 2 to plant its term")
    from .funceq import (check_phi, hypertree_dictionary_report, lhs_series, random_phi,
                         substituted_connected_gf)
    from .gf import compute_C, hypertree_series, solve_R_fixed_point, verify_identities
    from .series import Series, first_difference

    ctx = _context(t_max, z_max, magnitude_max)
    ctx_sub = _context(t_max, z_max, z_max)  # the least magnitude the substitution needs
    Cs = {}
    for c in (ctx, ctx_sub):  # one C per distinct context
        if c not in Cs:
            Cs[c] = compute_C(c)
            if inject_fault and c.magnitude_max:  # t^2 u2, where the context has u2
                Cs[c] += Series(c, {c.monomial(t=2, u={2: 1}): 1})
    C, C_sub = Cs[ctx], Cs[ctx_sub]
    T, R = hypertree_series(C)
    fixed = solve_R_fixed_point(ctx)

    vanishing_rows, trial_L = [], []
    for i in range(trials):
        L, violations, _, mismatches = check_phi(random_phi(seed + i), ctx_sub, t_max - 1)
        trial_L.append(L)
        vanishing_rows.append({
            "seed": seed + i,
            "vanishing": _vanishing(violations, t_max, z_max),
            "diagonal_mismatches": [
                {"power": p, "psi": _rational(a), "lhs": _rational(b)} for p, a, b in mismatches
            ],
        })

    sub_rows = []
    for i in range(sub_trials):
        phi = random_phi(seed + i)
        direct = trial_L[i] if i < trials else lhs_series(phi, ctx_sub)
        diff = first_difference(direct, substituted_connected_gf(phi, C_sub))
        first_diff = None if diff is None else str(diff[0])
        sub_rows.append({"seed": seed + i, "ok": diff is None, "first_diff": first_diff})

    region = f"[t<={t_max}, z<={z_max}]"
    sections = {
        "identities": _identity_section(verify_identities(C, T, R, fixed, max_edge_size)),
        "dictionary": _identity_section(hypertree_dictionary_report(T, R, fixed)),
        "vanishing": _trial_section(
            [row["vanishing"]["ok"] for row in vanishing_rows],
            f"vanishing pattern over {trials} seeded arrays {region}",
            rows=vanishing_rows,
        ),
        "diagonal": _trial_section(
            [not row["diagonal_mismatches"] for row in vanishing_rows],
            f"psi diagonal over {trials} seeded arrays (order {max(t_max - 1, 0)})",
        ),
        "substitution": _trial_section(
            [row["ok"] for row in sub_rows],
            f"substitution route over {sub_trials} seeded arrays {region}",
            rows=sub_rows,
        ),
    }
    ok = all(section.ok is not False for section in sections.values())
    payload = {name: section.value for name, section in sections.items()} | {"ok": ok}
    lines = [line for section in sections.values() for line in section.lines]
    lines.append("all checks passed" if ok else "verification FAILED")
    _emit(payload, lines, as_json, ok)


@main.command()
@click.argument("phi_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t-max", "t_max", type=POSITIVE, default=6, show_default=True)
@click.option("--z-max", "z_max", type=NON_NEGATIVE, default=6, show_default=True)
@click.option("--order", type=int, default=None, help="defaults to t_max - 1")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def psi(phi_file: str, t_max: int, z_max: int, order: int | None, as_json: bool) -> None:
    """Reversion coefficients and the vanishing report for one Phi array.

    PHI_FILE holds JSON of the form
    {"entries": [{"m": 0, "n": 1, "num": 1, "den": 2}, ...]}.
    """
    if order is None:
        order = t_max - 1
    if not 0 <= order <= t_max - 1:
        raise click.UsageError("need 0 <= --order <= t_max - 1")
    from .funceq import PhiCoefficients, check_phi, psi_uv_coefficients

    ctx = _context(t_max, z_max, 0)
    with open(phi_file, "r", encoding="utf-8") as fh:
        try:
            phi = PhiCoefficients.from_json(json.load(fh))
        except (KeyError, ValueError, TypeError, RecursionError) as exc:  # deep nesting
            raise click.UsageError(f"bad Phi file: {exc}") from exc
    c00, reduced = phi.without_constant()
    L, violations, psi_series, mismatches = check_phi(reduced, ctx, order)
    lines = [f"log t-scale: {c00} (t -> t * exp({c00}))"] if c00 else []
    lines += [f"psi[{m.t_deg}] = {_pq(c)}" for m, c in psi_series.terms()]
    vanishing = ", ".join(f"t^{a} z^{b}: {_pq(c)}" for a, b, c in violations)
    diagonal = ", ".join(f"y^{n}: psi {_pq(a)} vs L {_pq(b)}" for n, a, b in mismatches)
    lines.append(f"vanishing FAILED: {vanishing}" if violations else "vanishing ok")
    lines.append(f"diagonal FAILED: {diagonal}" if mismatches else "diagonal ok")
    payload = {  # built for --json alone: psi_uv decodes every term of L
        "log_t_scale": _rational(c00),
        "order": order,
        "psi": [{"power": m.t_deg, **_rational(c)} for m, c in psi_series.terms()],
        "psi_uv": [{"u": a, "v": b, **_rational(c)} for a, b, c in psi_uv_coefficients(L)],
        "vanishing": _vanishing(violations, t_max, z_max),
        "diagonal_ok": not mismatches,
    } if as_json else {}
    _emit(payload, lines, as_json, ok=not violations and not mismatches)


if __name__ == "__main__":
    main()
