"""Command line interface.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
(click's default), 3 when the oracle's counting kernel would run past its
budget.  All rational values are emitted as exact num/den pairs or p/q
strings; no floats appear anywhere.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .funceq import (
    PhiCoefficients,
    check_phi,
    hypertree_dictionary_report,
    lhs_series,
    psi_uv_coefficients,
    random_phi,
    substituted_connected_gf,
)
from .gf import (
    compute_C,
    count_by_profile,
    rooted_count_by_edges,
    render_table,
    solve_R_fixed_point,
    status_tag,
    table_terms,
    verify_identities,
)
from .hypergraphs import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    EdgeProfile,
    count_profile,
    count_sweep,
    is_connected,
    is_hypertree,
    kernel_name,
    parse_hypergraph,
)
from .series import Series, TruncationContext, first_difference, into_context

EXIT_VERIFY_FAILED = 1
EXIT_BUDGET = 3
POSITIVE = click.IntRange(min=1)
NON_NEGATIVE = click.IntRange(min=0)


@click.group()
@click.version_option(version=__version__, prog_name="hypertrees")
def main() -> None:
    """Exact hypertree counts, brute-force oracles and identity checks."""


def _require_bounds(t_max: int, z_max: int, magnitude_max: int) -> None:
    """Refuse truncation bounds that no series context can hold."""
    try:
        TruncationContext(t_max=t_max, z_max=z_max, magnitude_max=magnitude_max)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _parse_profile(text: str) -> EdgeProfile:
    try:
        return EdgeProfile.parse(text)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command()
@click.option("--n", "n", type=POSITIVE, required=True, help="number of labeled vertices")
@click.option("--profile", "profile_text", default=None, help="edge profile, e.g. u2=2,u3=1")
@click.option("--edges", "edges", type=NON_NEGATIVE, default=None, help="total number of edges")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def count(n: int, profile_text: str | None, edges: int | None, as_json: bool) -> None:
    """Closed-form hypertree counts on n labeled vertices."""
    if (profile_text is None) == (edges is None):
        raise click.UsageError("give exactly one of --profile or --edges")
    if profile_text is not None:
        profile = _parse_profile(profile_text)
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
    click.echo(json.dumps(payload) if as_json else text)


@main.command()
@click.option("--max-n", "max_n", type=POSITIVE, default=6, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def table(max_n: int, as_json: bool) -> None:
    """Unrooted hypertree counts by edge profile, one line per vertex count."""
    if as_json:
        rows = [
            {
                "n": n,
                "terms": [
                    {"profile": p.as_dict(), "coefficient": c}
                    for p, c in table_terms(n)
                ],
            }
            for n in range(1, max_n + 1)
        ]
        click.echo(json.dumps({"rows": rows}))
    else:
        for line in render_table(max_n):
            click.echo(line)


@main.command()
@click.option("--n", "n", type=POSITIVE, default=None, help="number of labeled vertices")
@click.option("--profile", "profile_text", default=None, help="edge profile, e.g. u2=2")
@click.option("--max-magnitude", "max_magnitude", type=NON_NEGATIVE, default=None,
              help="sweep every profile up to this magnitude")
@click.option("--budget", type=NON_NEGATIVE, default=DEFAULT_BUDGET, show_default=True,
              help="most counting-kernel steps accepted per profile")
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
    if check_path is not None:
        with open(check_path, "r", encoding="utf-8") as fh:
            try:
                h = parse_hypergraph(fh.read())
            except ValueError as exc:
                raise click.UsageError(f"bad hypergraph file: {exc}") from exc
        payload = {
            "n": h.n,
            "profile": h.profile().as_dict(),
            "magnitude": h.edge_magnitude,
            "connected": is_connected(h),
            "hypertree": is_hypertree(h),
        }
        if as_json:
            click.echo(json.dumps(payload))
        else:
            click.echo(
                f"n={h.n} profile={h.profile()} magnitude={h.edge_magnitude} "
                f"connected={payload['connected']} hypertree={payload['hypertree']}"
            )
        return
    if n is None:
        raise click.UsageError("need --n (or --check FILE)")
    if (profile_text is None) == (max_magnitude is None):
        raise click.UsageError("give exactly one of --profile or --max-magnitude")
    try:
        if profile_text is not None:
            rows = [count_profile(n, _parse_profile(profile_text), budget=budget)]
        else:
            rows = count_sweep(n, max_magnitude, budget=budget)
    except BudgetExceededError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_BUDGET)
    if as_json:
        click.echo(json.dumps({"kernel": kernel_name(), "rows": [r.as_dict() for r in rows]}))
    else:
        for row in rows:
            click.echo(
                f"n={row.n} profile={row.profile} all={row.total} "
                f"connected={row.connected} hypertree={row.hypertree}"
            )


def _run_verify(
    t_max: int,
    z_max: int,
    magnitude_max: int,
    max_edge_size: int,
    seed: int,
    trials: int,
    sub_trials: int,
    inject_fault: bool,
) -> tuple[bool, dict, list[str]]:
    lines: list[str] = []
    payload: dict = {}

    ctx = TruncationContext(t_max=t_max, magnitude_max=magnitude_max)
    ctx_sub = TruncationContext(t_max=t_max, z_max=z_max, magnitude_max=z_max)
    # C has no z terms: one C at the wider magnitude serves both contexts
    C_all = compute_C(TruncationContext(t_max=t_max, magnitude_max=max(magnitude_max, z_max)))
    C = into_context(C_all, ctx)
    if inject_fault:
        C = C + Series.term(ctx, ctx.monomial(t=2, u={2: 1}), 1)
    fixed = solve_R_fixed_point(ctx)
    identity_report = verify_identities(C, fixed, max_edge_size)
    payload["identities"] = identity_report.as_dict()
    lines.extend(identity_report.summary_lines())

    dictionary_report = hypertree_dictionary_report(fixed)
    payload["dictionary"] = dictionary_report.as_dict()
    lines.extend(dictionary_report.summary_lines())

    vanishing_ok = True
    diagonal_ok = True
    vanishing_rows = []
    trial_L = []
    for i in range(trials):
        L, report, _, mismatches = check_phi(random_phi(seed + i), t_max, z_max, t_max - 1)
        trial_L.append(L)
        vanishing_ok = vanishing_ok and report.ok
        diagonal_ok = diagonal_ok and not mismatches
        vanishing_rows.append(
            {
                "seed": seed + i,
                "vanishing": report.as_dict(),
                "diagonal_mismatches": [
                    {"power": p, "psi": str(a), "lhs": str(b)} for p, a, b in mismatches
                ],
            }
        )
    payload["vanishing"] = {"ok": vanishing_ok, "trials": trials, "rows": vanishing_rows}
    payload["diagonal"] = {"ok": diagonal_ok, "trials": trials}
    status = status_tag(vanishing_ok, ran=trials > 0)
    lines.append(f"{status} vanishing pattern over {trials} seeded arrays [t<={t_max}, z<={z_max}]")
    status = status_tag(diagonal_ok, ran=trials > 0)
    lines.append(f"{status} psi diagonal over {trials} seeded arrays (order {max(t_max - 1, 0)})")

    C_joint = into_context(C_all, ctx_sub)
    substitution_ok = True
    sub_rows = []
    for i in range(sub_trials):
        phi = random_phi(seed + i)
        if i < trials:
            direct = into_context(trial_L[i], ctx_sub)
        else:
            direct = lhs_series(phi, ctx_sub)
        routed = substituted_connected_gf(phi, ctx_sub, C=C_joint)
        diff = first_difference(direct, routed)
        ok = diff is None
        substitution_ok = substitution_ok and ok
        sub_rows.append(
            {
                "seed": seed + i,
                "ok": ok,
                "first_diff": None if ok else str(diff[0]),
            }
        )
    payload["substitution"] = {"ok": substitution_ok, "trials": sub_trials, "rows": sub_rows}
    status = status_tag(substitution_ok, ran=sub_trials > 0)
    lines.append(
        f"{status} substitution route over {sub_trials} seeded arrays "
        f"[t<={t_max}, z<={z_max}]"
    )

    ok = (
        identity_report.ok
        and dictionary_report.ok
        and vanishing_ok
        and diagonal_ok
        and substitution_ok
    )
    payload["ok"] = ok
    return ok, payload, lines


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
    _require_bounds(t_max, z_max, max(magnitude_max, z_max))
    ok, payload, lines = _run_verify(
        t_max, z_max, magnitude_max, max_edge_size, seed, trials, sub_trials, inject_fault
    )
    if as_json:
        click.echo(json.dumps(payload))
    else:
        for line in lines:
            click.echo(line)
        click.echo("all checks passed" if ok else "verification FAILED")
    if not ok:
        sys.exit(EXIT_VERIFY_FAILED)


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
    _require_bounds(t_max, z_max, 0)
    with open(phi_file, "r", encoding="utf-8") as fh:
        try:
            phi = PhiCoefficients.from_json(json.load(fh))
        except (KeyError, ValueError, TypeError) as exc:
            raise click.UsageError(f"bad Phi file: {exc}") from exc
    c00, reduced = phi.without_constant()
    L, vanishing, pair, mismatches = check_phi(reduced, t_max, z_max, order)
    payload = {
        "log_t_scale": {"num": c00.numerator, "den": c00.denominator},
        "order": order,
        "psi": [
            {"power": m.t_deg, "num": c.numerator, "den": c.denominator}
            for m, c in pair.psi.terms()
        ],
        "psi_uv": [
            {"u": a, "v": b, "num": c.numerator, "den": c.denominator}
            for a, b, c in psi_uv_coefficients(L)
        ],
        "vanishing": vanishing.as_dict(),
        "diagonal_ok": not mismatches,
    }
    ok = vanishing.ok and not mismatches
    if as_json:
        click.echo(json.dumps(payload))
    else:
        if c00:
            click.echo(f"log t-scale: {c00} (t -> t * exp({c00}))")
        for entry in payload["psi"]:
            click.echo(f"psi[{entry['power']}] = {entry['num']}/{entry['den']}")
        click.echo(
            "vanishing ok" if vanishing.ok else f"vanishing FAILED: {vanishing.violations}"
        )
        click.echo("diagonal ok" if not mismatches else f"diagonal FAILED: {mismatches}")
    if not ok:
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
