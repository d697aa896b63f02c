"""Slow, literal routes that the tests hold the library against.

Nothing in the library calls these: each one recomputes a result by a
second, independent method (Lagrange inversion in place of fixed-point
reversion, explicit enumeration in place of the counting kernel, full
power sums in place of the graded exp and log recurrences and the
inverse built from them), so it lives with the tests that use it as a
reference.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import Iterator

from hypertrees.hypergraphs import (
    DEFAULT_BUDGET,
    DEFAULT_N_MAX,
    BudgetExceededError,
    CountRow,
    CountTable,
    EdgeProfile,
    Hypergraph,
    assignment_count,
    count_profile,
    iter_profiles,
)
from hypertrees.series import Monomial, Series, TruncationContext


def t_coefficient(f: Series, k: int) -> Series:
    """The coefficient of t^k in f as a series in the remaining variables."""
    out = {Monomial((0,) + m[1:]): c for m, c in f.terms() if m[0] == k}
    return Series(f.context, out)


def exp_by_power_sum(f: Series) -> Series:
    """exp(f) for f with zero constant term."""
    n = f.context.grade_bound + 1
    return f.power_sum([Fraction(1, factorial(k)) for k in range(n)])


def log_by_power_sum(f: Series) -> Series:
    """log(f) for f with constant term 1."""
    if f.constant_term != 1:
        raise ValueError("log needs a series with constant term 1")
    n = f.context.grade_bound + 1
    coeffs = [Fraction((-1) ** (k + 1), k) if k else 0 for k in range(n)]
    return (f - 1).power_sum(coeffs)


def inverse_by_power_sum(f: Series) -> Series:
    """Multiplicative inverse of a unit (nonzero constant term) series."""
    c = f.constant_term
    if not c:
        raise ValueError("inverse needs a nonzero constant term")
    n = f.context.grade_bound + 1
    return (f / c - 1).power_sum([(-1) ** k for k in range(n)]) / c


def lagrange_revert(f: Series) -> Series:
    """Compositional inverse via the Lagrange coefficient formula.

    [y^n] g = (1/n) [t^(n-1)] (t/f)^n.  Slower than revert(); kept as an
    independent route for cross-checking.
    """
    ctx = f.context
    t_monomial = ctx.monomial(t=1)
    if not f.coefficient(t_monomial):
        raise ValueError("reversion needs a nonzero linear t-coefficient")
    ratio_inv = f.divided_by_t().inverse()  # t/f
    g = Series.zero(ctx)
    power = Series.one(ctx)
    for n in range(1, ctx.t_max + 1):
        power = power * ratio_inv
        slice_n = t_coefficient(power, n - 1)
        if slice_n.is_zero():
            continue
        t_n = Series.term(ctx, ctx.monomial(t=n), Fraction(1, n))
        g = g + t_n * slice_n
    return g


def egf_profile_coefficient(f: Series, n: int, profile: EdgeProfile) -> Fraction:
    """Coefficient of (t^n/n!) (u^profile/profile!) in f."""
    m = f.context.monomial(t=n, u=dict(profile.items()))
    return f.coefficient(m) * factorial(n) * profile.factorial_norm()


def enumerate_hypergraphs(
    n: int,
    profile: EdgeProfile,
    budget: int = DEFAULT_BUDGET,
    n_max: int = DEFAULT_N_MAX,
) -> Iterator[Hypergraph]:
    """Stream every labeled hypergraph with the given profile, deterministically.

    Order: edge slots by size ascending then label, each slot running
    through the lexicographically sorted vertex subsets.  Never samples;
    raises BudgetExceededError up front when the full count is over budget.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > n_max:
        raise ValueError(f"n = {n} exceeds the configured n_max = {n_max}")
    required = assignment_count(n, profile)
    if required > budget:
        raise BudgetExceededError(required, budget)
    choice_lists = [
        list(combinations(range(1, n + 1), size)) for size in profile.sizes()
    ]
    for assignment in product(*choice_lists):
        yield Hypergraph(n, tuple(assignment))


def magnitude_law_violations(rows: CountTable | tuple[CountRow, ...]) -> list[str]:
    """Check the magnitude law against brute-force counts.

    For every profile: connected hypergraphs need magnitude >= n - 1, and
    magnitude == n - 1 holds exactly for the hypertrees.  Returns human
    readable descriptions of any violations (empty means the law held).
    """
    out = []
    rows = rows.rows if isinstance(rows, CountTable) else rows
    for row in rows:
        mag = row.profile.magnitude
        floor = row.n - 1
        if mag < floor and row.connected:
            out.append(
                f"n={row.n} {row.profile}: {row.connected} connected below magnitude {floor}"
            )
        if mag == floor and row.hypertree != row.connected:
            out.append(
                f"n={row.n} {row.profile}: {row.connected} connected vs "
                f"{row.hypertree} hypertrees at magnitude {floor}"
            )
        if mag > floor and row.hypertree:
            out.append(
                f"n={row.n} {row.profile}: {row.hypertree} hypertrees above magnitude {floor}"
            )
    return out


def oracle_polynomials(
    n: int, ctx: TruncationContext, budget: int = DEFAULT_BUDGET
) -> tuple[Series, Series]:
    """(C_n, T_n): brute-force polynomials in the u-variables.

    C_n collects connected counts over every profile within the context
    magnitude bound, each divided by the label-class size so that the
    coefficient of u^profile counts hypergraphs with indistinguishable
    equal-size edges.  T_n keeps the magnitude n - 1 layer, counting
    hypertrees; the magnitude law is asserted along the way.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    c_terms: dict[Monomial, Fraction] = {}
    t_terms: dict[Monomial, Fraction] = {}
    max_size = min(n, ctx.max_edge_size)
    rows = []
    for profile in iter_profiles(ctx.magnitude_max, max_size=max_size):
        row = count_profile(n, profile, budget=budget)
        rows.append(row)
        if not row.connected:
            continue
        m = ctx.monomial(u=dict(profile.items()))
        norm = Fraction(1, profile.factorial_norm())
        c_terms[m] = row.connected * norm
        if profile.magnitude == n - 1:
            t_terms[m] = row.hypertree * norm
    violations = magnitude_law_violations(tuple(rows))
    if violations:
        raise AssertionError("magnitude law failed: " + "; ".join(violations))
    return Series(ctx, c_terms), Series(ctx, t_terms)
