"""Generating functions for connected labeled hypergraphs and hypertrees.

The pipeline starts from the exponential formula: with S(t, u) the
exponential generating function of all labeled hypergraphs,

    S(t, u) = sum_k t^k/k! * exp(sum_i binom(k, i) u_i),

the logarithm C = log S counts connected labeled hypergraphs, t marking
vertices and u_i marking i-vertex edges.  Every monomial of the t^n/n!
layer has magnitude at least n - 1, and the magnitude n - 1 layer T is
the hypertree generating function.  R = t dT/dt marks a root vertex and
satisfies the fixed point R = t * exp(sum_j u_{j+1} R^j / j!), from which
T is recovered as R - sum_j (j-1) u_j R^j / j!.  Both sums are one map
each of the edge weights phi(w) = sum_j u_{j+1} w^j / (j+1)!, composed
with R: phi + w phi' and w - w^2 phi'.

Everything is exact; identities are verified as equalities of truncated
series on the region where both sides are fully determined by the
context (each order of differentiation in a u or t variable costs one
layer of the corresponding grading).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .combinat import stirling2
from .hypergraphs import EdgeProfile, assignment_count, iter_profiles, profiles
from .series import Series, TruncationContext, first_difference, revert

# the edge-derivative identities run for u2 .. u5 (fewer when the caller's
# largest edge size is below 5)
_EDGE_CHECK_TOP = 5

_SUBSCRIPT = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def compute_C(ctx: TruncationContext) -> Series:
    """Connected-hypergraph series C = log S, with S in closed form.

    Expanding exp(sum_i binom(k, i) u_i) gives

        [t^k u^a] S = prod_i binom(k, i)^(a_i) / (k! * prod_i a_i!),

    the number of labeled hypergraphs on 1..k with edge profile a over
    the label-class size and k!.  k runs to t_max and a through every
    profile within magnitude_max.
    """
    terms = {}
    for p in iter_profiles(ctx.magnitude_max, max_size=ctx.max_edge_size):
        u = dict(p.items())
        for k in range(ctx.t_max + 1):
            count = assignment_count(k, p)
            terms[ctx.monomial(t=k, u=u)] = Fraction(count, factorial(k) * p.factorial_norm())
    return Series(ctx, terms).log()


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


def phi_maps(phi: Series) -> tuple[Series, Series]:
    """(phi + w phi', w - w^2 phi') for phi in the t-slot, with w = t.

    These are the two sides of the reversion pair y = w exp(-phi - w phi')
    and y psi(y) = w - w^2 phi'.  Under :func:`edge_symbol_phi` they are
    sum_j u_{j+1} w^j/j! and w - sum_j (j-1) u_j w^j/j!.
    """
    w = Series.variable(phi.context, "t")
    w_dphi = w * phi.derivative("t")
    return phi + w_dphi, w - w * w_dphi


def solve_R_fixed_point(ctx: TruncationContext) -> Series:
    """Solve R = t * exp(a(R)) for a = sum_j u_{j+1} w^j / j!, the rooted
    map of :func:`phi_maps`, by reverting t * exp(-a(t)).

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


# -- closed-form counts ------------------------------------------------------


def count_by_profile(n: int, profile: EdgeProfile) -> tuple[int, int]:
    """(rooted, unrooted) hypertree counts on 1..n for one edge profile.

    Hypertrees with a_s edges of s vertices induce a partition of n - 1
    into a_s blocks of size s - 1.  With k = sum_s a_s edges the rooted
    count is a multinomial count of set partitions times n^k:

        (n - 1)! * n^k / prod_s ((s - 1)!^(a_s) * a_s!).

    One pass over the counts sums the magnitude and k and builds the
    denominator; one divmod then gives the count, and a non-zero
    remainder, or a rooted count that n does not divide, raises.
    Profiles off the magnitude n - 1 surface admit no hypertrees at all.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    magnitude = edges = 0
    denominator = 1
    for i, a in enumerate(profile.counts, 1):  # a edges of i + 1 vertices
        if a:
            magnitude += i * a
            if magnitude >= n:  # off the surface, before a factorial outgrows n
                return (0, 0)
            edges += a
            denominator *= factorial(i) ** a * factorial(a)
    if magnitude != n - 1:
        return (0, 0)
    rooted, rest = divmod(factorial(n - 1) * n**edges, denominator)
    if rest or rooted % n:
        raise AssertionError(f"count of {profile} on n = {n} is not a multiple of n")
    return (rooted, rooted // n)


def rooted_count_by_edges(n: int, k: int) -> int:
    """Rooted hypertrees on 1..n with exactly k edges: n^k * S(n-1, k).

    Out-of-range k gives 0, except the degenerate n = 1, k = 0 where the
    single empty rooted hypertree counts as 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0 or k > max(n - 1, 0):
        return 0
    return n**k * stirling2(n - 1, k)


# -- identity verification ----------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    key: str
    formula: str
    ok: bool
    t_bound: int
    magnitude_bound: int
    first_diff: str | None = None

    @property
    def ran(self) -> bool:
        """False when a negative bound leaves the comparison region empty."""
        return self.t_bound >= 0 and self.magnitude_bound >= 0


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
    checks.append(
        identity_check(
            "tree-2edge",
            "dT/du2 = (t dT/dt)^2 / 2",
            dTdu[2],
            R * R / 2,
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

    R_power = R
    for j in range(2, j_top + 1):
        R_power = R_power * R
        checks.append(
            identity_check(
                f"tree-rooted-forest-u{j}",
                f"dT/du{j} = (t dT/dt)^{j} / {j}!",
                dTdu[j],
                R_power / factorial(j),
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


# -- displayed coefficient table ----------------------------------------------


def table_terms(n: int) -> list[tuple[EdgeProfile, int]]:
    """Unrooted hypertree counts for [t^n/n!] T, one term per edge profile.

    The profiles are profiles(n - 1), the partitions of n - 1 in reverse
    lexicographic order: each lies on the magnitude n - 1 surface, so
    each count is positive.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return [(profile, count_by_profile(n, profile)[1]) for profile in profiles(n - 1)]


# each rendered factor such as u₅³, by (exponent, size)
_PIECES: dict[tuple[int, int], str] = {}


def _pretty_monomial(profile: EdgeProfile) -> str:
    pieces = []
    for pair in sorted([(e, i + 2) for i, e in enumerate(profile.counts) if e]):
        piece = _PIECES.get(pair)
        if piece is None:
            e, size = pair
            piece = "u" + str(size).translate(_SUBSCRIPT)
            if e > 1:
                piece += str(e).translate(_SUPERSCRIPT)
            _PIECES[pair] = piece
        pieces.append(piece)
    return "".join(pieces)


def render_table_line(n: int) -> str:
    """One display line, e.g. '[t⁴/4!]T = u₄ + 12u₂u₃ + 16u₂³'."""
    t_power = "t" if n == 1 else "t" + str(n).translate(_SUPERSCRIPT)
    pieces = []
    for profile, coeff in table_terms(n):
        body = _pretty_monomial(profile)
        if not body:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(body)
        else:
            pieces.append(f"{coeff}{body}")
    return f"[{t_power}/{n}!]T = " + " + ".join(pieces)
