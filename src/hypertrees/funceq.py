"""A log-exp functional equation and its vanishing pattern, verified exactly.

For a two-variable coefficient array Phi(u, v) = sum c_{mn} u^m v^n with
zero constant term, the log-exp sum

    L(t, z) = log( sum_k t^k/k! * exp(k * Phi(kz, z)) )

is :func:`hypertrees.series.exponential_formula` with the weights k Phi(kz, z),
the formula whose edge weights give the connected-hypergraph series, and
has the shape t * Psi(tz, z): the coefficient of t^{n+1} z^m vanishes for
every m < n.  The check selects the terms that break it by their key
fields (``Series.where``) and decodes only those.  The diagonal slice
psi(y) = Psi(y, 0) is obtained from phi(u) = Phi(u, 0) by reverting

    y = w * exp(-phi(w) - w phi'(w)),        y psi(y) = w - w^2 phi'(w).

A nonzero constant c00 only rescales t: L_Phi(t, z) = L_0(t * e^c00, z)
where L_0 uses Phi - c00.  Exact rational arithmetic cannot carry the
transcendental factor e^c00, so every routine here works with the reduced
array and the CLI reports c00 as a log-scale for t; the vanishing and
diagonal statements are invariant under that rescaling.

The same reversion specializes to the hypergraph series: under the edge
weights phi(w) = sum_j u_{j+1} w^j/(j+1)! it is the rooted fixed point
w(y) = R of :func:`hypertrees.gf.solve_R_fixed_point`, and w - w^2 phi'(w)
is the unrooted series T.  The hypertree dictionary reads that one
reversion and the identity suite's T and R, and rebuilds none of them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING, Mapping

from .combinat import stirling2
from .series import (Monomial, Series, TruncationContext, exact, exponential_formula, phi_maps,
                     revert)

if TYPE_CHECKING:
    from .gf import IdentityCheck


class PhiCoefficients:
    """Finite coefficient array c_{mn} for Phi(u, v); exact rationals."""

    def __init__(self, entries: Mapping[tuple[int, int], Fraction | int]) -> None:
        data: dict[tuple[int, int], Fraction] = {}
        for (m, n), value in entries.items():
            if not (isinstance(m, int) and isinstance(n, int)):
                raise TypeError(f"coefficient indices must be ints, got {(m, n)!r}")
            if m < 0 or n < 0:
                raise ValueError("coefficient indices must be non-negative")
            c = Fraction(exact(value))
            if c:
                data[(m, n)] = c
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
    """L = log(sum_k t^k/k! exp(k Phi(kz, z))), truncated to ctx: the
    exponential formula with the weights k Phi(kz, z) = sum c_ab k^(a+1) z^(a+b)."""
    if phi.constant_term:
        raise ValueError(
            "constant term must be zero; use without_constant() and carry "
            "the t-scale separately"
        )

    weights: dict[Monomial, list[Fraction]] = {}
    for (a, b), c in phi.items():
        if a + b <= ctx.z_max:
            column = weights.setdefault(ctx.monomial(z=a + b), [Fraction(0)] * (ctx.t_max + 1))
            for k in range(ctx.t_max + 1):
                column[k] += c * k ** (a + 1)
    return exponential_formula(ctx, weights)


def _outside_psi_form(t: int, z: int, magnitude: int) -> bool:
    """t^a z^b is outside the support of t * Psi(tz, z) when a = 0 or b < a - 1."""
    return t == 0 or z < t - 1


def verify_psi_form(L: Series) -> list[tuple[int, int, Fraction]]:
    """The terms of L outside t * Psi(tz, z), as (t_deg, z_deg, coefficient)."""
    return [(m.t_deg, m.z_deg, c) for m, c in L.where(_outside_psi_form).terms()]


def psi_uv_coefficients(L: Series) -> list[tuple[int, int, Fraction]]:
    """Read Psi(u, v) off L through u^n v^m <-> t^{n+1} z^{n+m}."""
    inside = L.where(lambda t, z, magnitude: not _outside_psi_form(t, z, magnitude))
    return [(m.t_deg - 1, m.z_deg - m.t_deg + 1, c) for m, c in inside.terms()]


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


def substituted_connected_gf(phi: PhiCoefficients, C: Series) -> Series:
    """Apply the substitution family to C, the connected-hypergraph series,
    in C's own context ctx.

    Needs magnitude_max >= z_max: a dropped magnitude layer could only
    produce z-degrees beyond z_max, so nothing inside the window is lost.
    The result equals lhs_series(phi, ctx) exactly.
    """
    ctx = C.context
    if phi.constant_term:
        raise ValueError("constant term must be zero; use without_constant()")
    if ctx.magnitude_max < ctx.z_max:
        raise ValueError("need magnitude_max >= z_max for an exact substitution")
    images = substitution_images(phi, ctx)
    zero = Series.zero(ctx)
    g = C.substitute({f"u{m}": images.get(m, zero) for m in range(2, ctx.max_edge_size + 1)})
    return g.substitute({"t": Series.variable(ctx, "t") * images[1].exp()})


# -- the reversion route --------------------------------------------------------


def psi_from_phi(phi: Series) -> Series:
    """Invert y = w exp(-phi(w) - w phi'(w)) and read off psi(y) = (w - w^2 phi'(w)) / y.

    phi lives in the t-slot of its context (other variables may ride
    along as symbolic coefficients) and needs a zero constant term.  psi
    is exact through y^(t_max - 1), one degree below the context, so the
    context must hold t_max >= 1.
    """
    ctx = phi.context
    if ctx.t_max < 1:
        raise ValueError("context must hold t_max >= 1")
    if phi.constant_term:
        raise ValueError("phi needs a zero constant term")
    exponent, y_psi_of_w = phi_maps(phi)
    w_of_y = revert(Series.variable(ctx, "t") * (-exponent).exp())
    return y_psi_of_w.substitute({"t": w_of_y}).divided_by_t()


def diagonal_mismatches(psi: Series, L: Series) -> list[tuple[int, Fraction, Fraction]]:
    """Compare [y^n] psi with [t^{n+1} z^n] L for n through psi's top power."""
    ctx1 = psi.context
    ctx2 = L.context
    out = []
    top = min(ctx1.t_max - 1, ctx2.t_max - 1, ctx2.z_max)
    for n in range(top + 1):
        a = psi.coefficient(ctx1.monomial(t=n))
        b = L.coefficient(ctx2.monomial(t=n + 1, z=n))
        if a != b:
            out.append((n, a, b))
    return out


def check_phi(
    phi: PhiCoefficients, ctx: TruncationContext, order: int
) -> tuple[
    Series, list[tuple[int, int, Fraction]], Series, list[tuple[int, Fraction, Fraction]]
]:
    """(L, its vanishing violations, psi, the diagonal mismatches) for one
    reduced array: L in the caller's context ctx, as lhs_series builds it,
    and psi through y^order."""
    L = lhs_series(phi, ctx)
    psi = psi_from_phi(phi.phi_series(TruncationContext(t_max=order + 1, magnitude_max=0)))
    return L, verify_psi_form(L), psi, diagonal_mismatches(psi, L)


def hypertree_dictionary_report(T: Series, R: Series, fixed: Series) -> tuple[IdentityCheck, ...]:
    """The reversion route against the hypertree series of C = log S.

    (T, R) is :func:`hypertrees.gf.hypertree_series` of C.  fixed is
    :func:`hypertrees.gf.solve_R_fixed_point` at their context: the
    reversion w(y) under phi = sum u_{j+1} w^j/(j+1)!.  It must equal R,
    and w - w^2 phi'(w), which is :func:`hypertrees.gf.T_from_R` of it,
    must equal T.
    """
    from .gf import T_from_R, identity_check  # only this report reaches into gf

    ctx = T.context
    return (
        identity_check(
            "dictionary-rooted",
            "w(y) = R under phi = sum u_{j+1} w^j/(j+1)!",
            fixed,
            R,
            ctx.t_max,
            ctx.magnitude_max,
        ),
        identity_check(
            "dictionary-unrooted",
            "w - w^2 phi'(w) = T under the same weights",
            T_from_R(fixed),
            T,
            ctx.t_max,
            ctx.magnitude_max,
        ),
    )
