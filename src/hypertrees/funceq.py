"""A log-exp functional equation and its vanishing pattern, verified exactly.

For a two-variable coefficient array Phi(u, v) = sum c_{mn} u^m v^n with
zero constant term, the log-exp sum

    L(t, z) = log( sum_k t^k/k! * exp(k * Phi(kz, z)) )

has the shape t * Psi(tz, z): the coefficient of t^{n+1} z^m vanishes for
every m < n.  The diagonal slice psi(y) = Psi(y, 0) is obtained from
phi(u) = Phi(u, 0) by reverting

    y = w * exp(-phi(w) - w phi'(w)),        y psi(y) = w - w^2 phi'(w).

A nonzero constant c00 only rescales t: L_Phi(t, z) = L_0(t * e^c00, z)
where L_0 uses Phi - c00.  Exact rational arithmetic cannot carry the
transcendental factor e^c00, so every routine here works with the reduced
array and the CLI reports c00 as a log-scale for t; the vanishing and
diagonal statements are invariant under that rescaling.

The same machinery specializes to the hypergraph series: writing
phi(w) = sum_j u_{j+1} w^j/(j+1)! makes the reversion pair reproduce the
rooted and unrooted hypertree series R and T.  Both sides of the pair
come from :func:`hypertrees.gf.phi_maps`, the maps that build R and T.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping

from .combinat import stirling2
from .gf import IdentityCheck, T_from_R, edge_symbol_phi, identity_check, phi_maps
from .series import Monomial, Series, TruncationContext, revert


class PhiCoefficients:
    """Finite coefficient array c_{mn} for Phi(u, v); exact rationals."""

    def __init__(self, entries: Mapping[tuple[int, int], Fraction | int]) -> None:
        data: dict[tuple[int, int], Fraction] = {}
        for key, value in entries.items():
            m, n = key
            if m < 0 or n < 0:
                raise ValueError("coefficient indices must be non-negative")
            c = Fraction(value)
            if c:
                data[(int(m), int(n))] = c
        self._entries = data

    def items(self) -> list[tuple[tuple[int, int], Fraction]]:
        return sorted(self._entries.items())

    def coefficient(self, m: int, n: int) -> Fraction:
        return self._entries.get((m, n), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0, 0)

    def without_constant(self) -> tuple[Fraction, "PhiCoefficients"]:
        """(c00, reduced array); the reduction only rescales t in L."""
        c00 = self.constant_term
        rest = {k: v for k, v in self._entries.items() if k != (0, 0)}
        return c00, PhiCoefficients(rest)

    def phi_series(self, ctx: TruncationContext) -> Series:
        """phi(u) = Phi(u, 0) as a series in the t-slot of ctx."""
        if self.constant_term:
            raise ValueError("reduce the array first: phi needs a zero constant term")
        terms = {
            ctx.monomial(t=m): c for (m, n), c in self._entries.items() if n == 0
        }
        return Series(ctx, terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhiCoefficients):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"({m},{n}): {c}" for (m, n), c in self.items())
        return f"PhiCoefficients({{{body}}})"

    @classmethod
    def from_json(cls, data: Mapping) -> "PhiCoefficients":
        entries: dict[tuple[int, int], Fraction] = {}
        for item in data["entries"]:
            key = (_json_int(item["m"], "m"), _json_int(item["n"], "n"))
            den = _json_int(item.get("den", 1), "den")
            if not den:
                raise ValueError(f"entry {key} has a zero denominator")
            c = Fraction(_json_int(item["num"], "num"), den)
            entries[key] = entries.get(key, Fraction(0)) + c
        return cls(entries)


def _json_int(value: object, field: str) -> int:
    """A field of a Phi entry, which must be a JSON integer."""
    # bool is a subclass of int, but JSON true/false is not a number
    if type(value) is not int:
        raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    return value


_RANDOM_PHI_WEIGHT = 4


def random_phi(seed: int) -> PhiCoefficients:
    """Deterministic fuzz array: for each (m, n) with m + n <= 4 in
    lexicographic order, draw numerator from -2..2 and denominator from
    {1, 2, 3} with random.Random(seed).  The array has no constant entry,
    but the (0, 0) draw is still made, so each seed keeps its array."""
    rng = random.Random(seed)
    entries: dict[tuple[int, int], Fraction] = {}
    for m in range(_RANDOM_PHI_WEIGHT + 1):
        for n in range(_RANDOM_PHI_WEIGHT - m + 1):
            num = rng.randint(-2, 2)
            den = rng.choice((1, 2, 3))
            if num and (m, n) != (0, 0):
                entries[(m, n)] = Fraction(num, den)
    return PhiCoefficients(entries)


# -- the left-hand side -------------------------------------------------------


def lhs_series(phi: PhiCoefficients, ctx: TruncationContext) -> Series:
    """L = log(sum_k t^k/k! exp(k Phi(kz, z))), truncated to ctx.

    The k-th summand has t-degree exactly k, so the sum is cut at
    k = t_max.
    """
    if phi.constant_term:
        raise ValueError(
            "constant term must be zero; use without_constant() and carry "
            "the t-scale separately"
        )
    K = ctx.t_max

    def summand(k: int) -> Series:
        acc: dict[int, Fraction] = {}
        for (a, b), c in phi.items():
            zp = a + b
            if zp <= ctx.z_max:
                acc[zp] = acc.get(zp, Fraction(0)) + c * k ** (a + 1)
        arg = Series(ctx, {ctx.monomial(z=zp): v for zp, v in acc.items()})
        front = Series.term(ctx, ctx.monomial(t=k), Fraction(1, factorial(k)))
        return front * arg.exp()

    total = Series.zero(ctx)
    for k in range(K + 1):
        total = total + summand(k)
    return total.log()


def _outside_psi_form(m: Monomial) -> bool:
    """t^a z^b is outside the support of t * Psi(tz, z) when a = 0 or b < a - 1."""
    return m.t_deg == 0 or m.z_deg < m.t_deg - 1


def verify_psi_form(L: Series) -> list[tuple[int, int, Fraction]]:
    """The terms of L outside t * Psi(tz, z), as (t_deg, z_deg, coefficient)."""
    return [(m.t_deg, m.z_deg, c) for m, c in L.terms() if _outside_psi_form(m)]


def psi_uv_coefficients(L: Series) -> list[tuple[int, int, Fraction]]:
    """Read Psi(u, v) off L through u^n v^m <-> t^{n+1} z^{n+m}."""
    return [(m.t_deg - 1, m.z_deg - m.t_deg + 1, c) for m, c in L.terms()
            if not _outside_psi_form(m)]


# -- the substitution family --------------------------------------------------


def substitution_images(phi: PhiCoefficients, ctx: TruncationContext) -> dict[int, Series]:
    """The image z^(m-1) P_m(z) of u_m for m = 1 .. z_max + 1.

    Its z^j coefficient is m! sum_l S(l, m) c_{l-1, j-l+1}, from the
    falling-factorial basis change k^l = sum_m S(l, m) m! binom(k, m):
    the entry c_{ab} reaches z^(a+b) for every m <= a + 1.  m = 1 gives
    P_1 itself, and t maps to t * exp(P_1(z)).
    """
    terms: dict[int, list] = {m: [] for m in range(1, ctx.z_max + 2)}
    for (a, b), c in phi.items():
        if a + b <= ctx.z_max:
            for m in range(1, a + 2):
                terms[m].append((ctx.monomial(z=a + b), factorial(m) * stirling2(a + 1, m) * c))
    return {m: Series(ctx, items) for m, items in terms.items()}


def substituted_connected_gf(
    phi: PhiCoefficients, ctx: TruncationContext, C: Series
) -> Series:
    """Apply the substitution family to C, the connected-hypergraph series at ctx.

    Needs magnitude_max >= z_max: a dropped magnitude layer could only
    produce z-degrees beyond z_max, so nothing inside the window is lost.
    The result equals lhs_series(phi, ctx) exactly.
    """
    if phi.constant_term:
        raise ValueError("constant term must be zero; use without_constant()")
    if ctx.magnitude_max < ctx.z_max:
        raise ValueError("need magnitude_max >= z_max for an exact substitution")
    images = substitution_images(phi, ctx)
    g = C
    for m in range(2, ctx.max_edge_size + 1):
        g = g.substitute(f"u{m}", images.get(m, Series.zero(ctx)))
    return g.substitute("t", Series.variable(ctx, "t") * images[1].exp())


# -- the reversion route --------------------------------------------------------


@dataclass(frozen=True)
class PhiPsiPair:
    """The reversion data of phi: w(y) and psi(y) = (w - w^2 phi'(w)) / y."""

    w: Series
    y_psi: Series
    psi: Series
    order: int


def psi_from_phi(phi: Series, order: int) -> PhiPsiPair:
    """Invert y = w exp(-phi(w) - w phi'(w)) and read off psi.

    phi lives in the t-slot of its context (other variables may ride
    along as symbolic coefficients) and needs a zero constant term.  The
    context must hold order + 1 t-degrees so that psi is exact through
    y^order.
    """
    ctx = phi.context
    if order < 0:
        raise ValueError("order must be non-negative")
    if ctx.t_max < order + 1:
        raise ValueError("context must hold t-degrees through order + 1")
    if phi.constant_term:
        raise ValueError("phi needs a zero constant term")
    exponent, y_psi_of_w = phi_maps(phi)
    w_of_y = revert(Series.variable(ctx, "t") * (-exponent).exp())
    y_psi = y_psi_of_w.substitute("t", w_of_y)
    psi = y_psi.divided_by_t().restrict(t_max=order)
    return PhiPsiPair(w=w_of_y, y_psi=y_psi, psi=psi, order=order)


def diagonal_mismatches(
    pair: PhiPsiPair, L: Series
) -> list[tuple[int, Fraction, Fraction]]:
    """Compare [y^n] psi with [t^{n+1} z^n] L for n through pair.order."""
    ctx1 = pair.psi.context
    ctx2 = L.context
    out = []
    top = min(pair.order, ctx2.t_max - 1, ctx2.z_max)
    for n in range(top + 1):
        a = pair.psi.coefficient(ctx1.monomial(t=n))
        b = L.coefficient(ctx2.monomial(t=n + 1, z=n))
        if a != b:
            out.append((n, a, b))
    return out


def check_phi(
    phi: PhiCoefficients, t_max: int, z_max: int, order: int
) -> tuple[
    Series, list[tuple[int, int, Fraction]], PhiPsiPair, list[tuple[int, Fraction, Fraction]]
]:
    """(L, its vanishing violations, the reversion pair, the diagonal mismatches)
    for one reduced array: L through t^t_max z^z_max, psi through y^order."""
    ctx_tz = TruncationContext(t_max=t_max, z_max=z_max, magnitude_max=0)
    L = lhs_series(phi, ctx_tz)
    ctx_diag = TruncationContext(t_max=order + 1, magnitude_max=0)
    pair = psi_from_phi(phi.phi_series(ctx_diag), order=order)
    return L, verify_psi_form(L), pair, diagonal_mismatches(pair, L)


def hypertree_dictionary_report(R: Series) -> tuple[IdentityCheck, ...]:
    """The reversion route against the fixed-point route: w(y) must equal
    the rooted series R from :func:`hypertrees.gf.solve_R_fixed_point` and
    w - w^2 phi'(w) the unrooted series T."""
    ctx = R.context
    T = T_from_R(R)
    pair = psi_from_phi(edge_symbol_phi(ctx), order=max(ctx.t_max - 1, 0))
    return (
        identity_check(
            "dictionary-rooted",
            "w(y) = R under phi = sum u_{j+1} w^j/(j+1)!",
            pair.w,
            R,
            ctx.t_max,
            ctx.magnitude_max,
        ),
        identity_check(
            "dictionary-unrooted",
            "w - w^2 phi'(w) = T under the same weights",
            pair.y_psi,
            T,
            ctx.t_max,
            ctx.magnitude_max,
        ),
    )
