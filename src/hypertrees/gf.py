"""Generating functions for connected labeled hypergraphs and hypertrees.

The pipeline starts from the exponential formula: with S(t, u) the
exponential generating function of all labeled hypergraphs,

    S(t, u) = sum_k t^k/k! * exp(sum_i binom(k, i) u_i),

the logarithm C = log S counts connected labeled hypergraphs, t marking
vertices and u_i marking i-vertex edges.
:func:`hypertrees.series.exponential_formula` forms
log(sum_k t^k/k! exp(w_k)) from the coefficient columns of the weights
w_k: C is its call with the column binom(k, i) of each u_i, and L of
:mod:`hypertrees.funceq` its call with w_k = k Phi(kz, z).
Every monomial of the t^n/n! layer has magnitude at least n - 1, and the
magnitude n - 1 layer T is the hypertree generating function.
R = t dT/dt marks a root vertex and satisfies the fixed point
R = t * exp(sum_j u_{j+1} R^j / j!), from which T is recovered as
R - sum_j (j-1) u_j R^j / j!.  Both sums are one map each of the edge
weights phi(w) = sum_j u_{j+1} w^j / (j+1)!, composed with R: phi + w phi'
and w - w^2 phi'.

Everything is exact; identities are verified as equalities of truncated
series on the region where both sides are fully determined by the
context (each order of differentiation in a u or t variable costs one
layer of the corresponding grading).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

# perfbench's PLAN, the functions its tracer wraps by name, reads gf.count_by_profile
# until ROADMAP item 5.  The import also loads closed and hypergraphs wherever gf is (in
# verify; psi loads no gf), which perfbench's test that the tracer restores names needs.
from .closed import count_by_profile
from .series import (Series, TruncationContext, exponential_formula, first_difference, phi_maps,
                     revert)

# the edge-derivative identities run for u2 .. u5 (fewer when the caller's
# largest edge size is below 5)
_EDGE_CHECK_TOP = 5


def compute_C(ctx: TruncationContext) -> Series:
    """Connected-hypergraph series C = log S, by the exponential formula.

    On k labeled vertices each i-vertex edge is one of binom(k, i)
    subsets, so S has the weights w_k = sum_{i=2}^{min(k, M)} binom(k, i) u_i.
    """
    ks = range(ctx.t_max + 1)
    return exponential_formula(ctx, {ctx.monomial(u={i: 1}): [comb(k, i) for k in ks]
                                     for i in range(2, ctx.max_edge_size + 1)})


def compute_T(C: Series) -> Series:
    """Hypertree layer: the terms of C with magnitude == t_deg - 1.

    Complete only when the context kept every such term, hence the
    magnitude_max >= t_max - 1 requirement.
    """
    ctx = C.context
    if ctx.magnitude_max < ctx.t_max - 1:
        raise ValueError("need magnitude_max >= t_max - 1 for a complete hypertree layer")
    return C.where(lambda t, z, magnitude: magnitude == t - 1)


def hypertree_series(C: Series) -> tuple[Series, Series]:
    """(T, R): the hypertree layer T of C and the rooted series R = t dT/dt."""
    T = compute_T(C)
    return T, Series.variable(C.context, "t") * T.derivative("t")


def edge_symbol_phi(ctx: TruncationContext) -> Series:
    """phi(w) = sum_j u_{j+1} w^j/(j+1)!, the edge weights in the t-slot."""
    terms = {}
    for j in range(1, ctx.max_edge_size):
        terms[ctx.monomial(t=j, u={j + 1: 1})] = Fraction(1, factorial(j + 1))
    return Series(ctx, terms)


def solve_R_fixed_point(ctx: TruncationContext) -> Series:
    """Solve R = t * exp(a(R)) for a = sum_j u_{j+1} w^j / j!, the rooted
    map of :func:`hypertrees.series.phi_maps`, by reverting t * exp(-a(t)).

    R / exp(a(R)) = t says that R is the compositional inverse of
    w * exp(-a(w)).  At t_max = 0 the series t, and so R, is zero.
    """
    if not ctx.t_max:
        return Series.zero(ctx)
    rooted, _ = phi_maps(edge_symbol_phi(ctx))
    return revert(Series.variable(ctx, "t") * (-rooted).exp())


def T_from_R(R: Series) -> Series:
    """Unrooted form: T = R - sum_{j>=2} (j-1) u_j R^j / j!."""
    _, unrooted = phi_maps(edge_symbol_phi(R.context))
    return unrooted.substitute("t", R)


# -- identity verification ----------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    key: str
    formula: str
    ok: bool | None  # None when a negative bound leaves the comparison region empty
    t_bound: int
    magnitude_bound: int
    first_diff: str | None = None


def identity_check(
    key: str,
    formula: str,
    lhs: Series,
    rhs: Series,
    t_bound: int,
    magnitude_bound: int,
) -> IdentityCheck:
    def region(t: int, z: int, magnitude: int) -> bool:
        return t <= t_bound and magnitude <= magnitude_bound

    if t_bound < 0 or magnitude_bound < 0:  # no case to compare
        return IdentityCheck(key, formula, None, t_bound, magnitude_bound)
    diff = first_difference(lhs.where(region), rhs.where(region))
    detail = None
    if diff is not None:
        m, ca, cb = diff
        detail = f"{m}: {ca} vs {cb}"
    return IdentityCheck(key, formula, diff is None, t_bound, magnitude_bound, detail)


def verify_identities(
    C: Series, T: Series, R: Series, fixed: Series, largest_edge: int
) -> tuple[IdentityCheck, ...]:
    """Exact structural identities tying C, its hypertree layer T and the
    rooted series R = t dT/dt together.

    (T, R) is :func:`hypertree_series` of C, which the caller builds once
    for this suite and the hypertree dictionary; fixed is
    :func:`solve_R_fixed_point` at C's context.  The edge checks run for
    u2 .. u_min(5, largest_edge); a u_j the context does not carry has
    zero derivatives, so its checks compare zero with the truncated
    right-hand side.

    Differentiating by u_j can only be trusted where the argument kept
    the extra magnitude j - 1, so the C-side checks shrink their
    comparison region accordingly; T is a complete polynomial per
    t-order, so its checks run on the full context region.
    """
    ctx = C.context
    N, Q = ctx.t_max, ctx.magnitude_max
    j_top = min(_EDGE_CHECK_TOP, largest_edge)
    t = Series.variable(ctx, "t")
    checks: list[IdentityCheck] = []

    def d_du(f: Series, j: int) -> Series:
        return f.derivative(f"u{j}") if j <= ctx.max_edge_size else Series.zero(ctx)

    dCdt = C.derivative("t")
    t_dCdt = t * dCdt
    dCdu = {j: d_du(C, j) for j in range(2, j_top + 1)}

    rhs = (t * t) * (dCdt * dCdt + dCdt.derivative("t")) / 2
    checks.append(
        identity_check(
            "connected-2edge",
            "dC/du2 = t^2/2 ((dC/dt)^2 + d2C/dt2)",
            dCdu[2],
            rhs,
            N,
            Q - 1,
        )
    )

    for j in range(3, j_top + 1):
        prev = dCdu[j - 1]
        rhs = (t_dCdt * prev + t * prev.derivative("t") - (j - 1) * prev) / j
        checks.append(
            identity_check(
                f"connected-edge-recursion-u{j}",
                f"dC/du{j} = (t dC/dt dC/du{j-1} + t d2C/dt du{j-1} - {j-1} dC/du{j-1}) / {j}",
                dCdu[j],
                rhs,
                N,
                Q - (j - 1),
            )
        )

    dTdu = {j: d_du(T, j) for j in range(2, max(j_top, ctx.max_edge_size) + 1)}
    R_power = {2: R * R}  # R^j, which tree-2edge and tree-rooted-forest-u{j} read
    for j in range(3, j_top + 1):
        R_power[j] = R_power[j - 1] * R
    checks.append(
        identity_check(
            "tree-2edge",
            "dT/du2 = (t dT/dt)^2 / 2",
            dTdu[2],
            R_power[2] / 2,
            N,
            Q,
        )
    )

    for j in range(3, j_top + 1):
        checks.append(
            identity_check(
                f"tree-edge-recursion-u{j}",
                f"dT/du{j} = (t dT/dt) dT/du{j-1} / {j}",
                dTdu[j],
                R * dTdu[j - 1] / j,
                N,
                Q,
            )
        )

    for j in range(2, j_top + 1):
        checks.append(
            identity_check(
                f"tree-rooted-forest-u{j}",
                f"dT/du{j} = (t dT/dt)^{j} / {j}!",
                dTdu[j],
                R_power[j] / factorial(j),
                N,
                Q,
            )
        )

    lhs = Series.zero(ctx)
    for j in range(2, ctx.max_edge_size + 1):
        lhs = lhs + (j - 1) * Series.variable(ctx, f"u{j}") * dTdu[j]
    checks.append(
        identity_check(
            "magnitude-balance",
            "sum_j (j-1) u_j dT/du_j = t dT/dt - T",
            lhs,
            R - T,
            N,
            Q,
        )
    )

    checks.append(
        identity_check(
            "rooted-fixed-point",
            "R = t exp(sum_j u_{j+1} R^j / j!)",
            R,
            fixed,
            N,
            Q,
        )
    )
    # R here is t dT/dt from log S, not the fixed point, so this stays independent;
    # the rooted map composed with R, cut at w^(N - 1) like the comparison region
    rooted, _ = phi_maps(edge_symbol_phi(ctx))
    checks.append(
        identity_check(
            "rooted-ratio",
            "R/t = exp(sum_j u_{j+1} R^j / j!)",
            R.divided_by_t(),
            rooted.where(lambda t, z, magnitude: t < N).substitute("t", R).exp(),
            N - 1,
            Q,
        )
    )
    checks.append(
        identity_check(
            "unrooted-from-rooted",
            "T = R - sum_j (j-1) u_j R^j / j!",
            T,
            T_from_R(R),
            N,
            Q,
        )
    )

    T1, R1 = T.t_marginal(), R.t_marginal()  # every u_i set to 1
    tvar = Series.variable(T1.context, "t")
    exp_R1 = R1.exp()
    checks.append(
        identity_check(
            "all-ones-product",
            "T(u=1) = (exp(R(u=1)) - 1)(1 - R(u=1))",
            T1,
            (exp_R1 - 1) * (1 - R1),
            N,
            0,
        )
    )
    checks.append(
        identity_check(
            "all-ones-fixed-point",
            "R(u=1) = t exp(exp(R(u=1)) - 1)",
            R1,
            tvar * (exp_R1 - 1).exp(),
            N,
            0,
        )
    )

    return tuple(checks)

