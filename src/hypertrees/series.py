"""Exact truncated multivariate formal power series over the rationals.

Every series in this package lives over the same kind of variable set:
the vertex-marking variable ``t``, an auxiliary variable ``z``, and edge
variables ``u2 .. uM`` where ``u_i`` marks an edge with ``i`` vertices.
A monomial carries a *magnitude* grading::

    magnitude(t^a z^b u2^c2 ... uM^cM) = sum((i - 1) * c_i)

which matches the edge magnitude of the hypergraphs these series count.

A :class:`TruncationContext` is four integers: the bounds ``t_max``,
``z_max`` and ``magnitude_max``, and the largest edge size ``M``.  Every
operation truncates its result to those bounds, so the algebra is closed
and all stored coefficients are exact :class:`fractions.Fraction` values.
A bound of 0 leaves its variable in the set but truncates it away: with
``z_max = 0`` the series ``z`` is zero.  There is no floating point
anywhere.

All three gradings are additive and non-negative, which is what makes
truncation coherent: any product of admissible monomials that lands back
inside the bounds can only have used admissible factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]


class ContextMismatchError(ValueError):
    """Raised when series from different truncation contexts are combined."""


class OutOfContextError(ValueError):
    """Raised when a coefficient is requested outside the truncation bounds."""


class Monomial(NamedTuple):
    """Exponent vector ``(t_deg, z_deg, u_degs)``.

    ``u_degs[j]`` is the exponent of ``u_{j+2}``.  Tuple ordering of the
    fields doubles as the canonical term order of :meth:`Series.terms`.
    """

    t_deg: int
    z_deg: int
    u_degs: tuple[int, ...]

    @property
    def magnitude(self) -> int:
        return sum(i * e for i, e in enumerate(self.u_degs, start=1))


@dataclass(frozen=True)
class TruncationContext:
    """Degree bounds under which all arithmetic is performed.

    ``max_edge_size`` is the largest edge size M carried symbolically, so
    the edge variables are ``u2 .. uM``.
    """

    t_max: int = 6
    z_max: int = 0
    magnitude_max: int = 6
    max_edge_size: int = 8

    def __post_init__(self) -> None:
        if self.max_edge_size < 2:
            raise ValueError("max_edge_size must be at least 2")
        if min(self.t_max, self.z_max, self.magnitude_max) < 0:
            raise ValueError("truncation bounds must be non-negative")

    @property
    def u_count(self) -> int:
        return self.max_edge_size - 1

    def resolve(self, name: str) -> tuple[str, int]:
        """Map a variable name to ``(kind, u_index)``; u_index is 0 unless kind is 'u'."""
        if name in ("t", "z"):
            return (name, 0)
        if name.startswith("u") and name[1:].isdigit():
            i = int(name[1:])
            if 2 <= i <= self.max_edge_size:
                return ("u", i)
        raise ValueError(f"unknown variable {name!r}")

    def admits(self, m: Monomial) -> bool:
        return (
            m.t_deg <= self.t_max
            and m.z_deg <= self.z_max
            and m.magnitude <= self.magnitude_max
        )

    def require(self, m: Monomial) -> None:
        if not self.admits(m):
            raise OutOfContextError(f"monomial {m} lies outside {self}")

    @property
    def grade_bound(self) -> int:
        return self.t_max + self.z_max + self.magnitude_max

    def unit_monomial(self) -> Monomial:
        return Monomial(0, 0, (0,) * self.u_count)

    def monomial(
        self, t: int = 0, z: int = 0, u: Mapping[int, int] | None = None
    ) -> Monomial:
        """Build a monomial, validating exponents against the edge variables."""
        if t < 0 or z < 0:
            raise ValueError("exponents must be non-negative")
        degs = [0] * self.u_count
        if u:
            for i, e in u.items():
                if e < 0:
                    raise ValueError("exponents must be non-negative")
                if not 2 <= i <= self.max_edge_size:
                    raise ValueError(f"no edge variable u{i} in the context")
                degs[i - 2] = e
        return Monomial(t, z, tuple(degs))


class Series:
    """An immutable truncated power series: a finite Monomial -> Fraction map.

    Construction drops zero coefficients and silently truncates monomials
    that violate the context bounds, so every stored term is admissible.
    """

    __slots__ = ("context", "_terms")

    def __init__(
        self,
        context: TruncationContext,
        terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = (),
    ) -> None:
        data: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, c in items:
            if not isinstance(m, Monomial):
                raise TypeError(f"expected Monomial key, got {type(m).__name__}")
            if len(m.u_degs) != context.u_count:
                raise ValueError("monomial does not match the context's edge variables")
            frac = Fraction(c)
            if frac and context.admits(m):
                acc = data.get(m)
                new = frac if acc is None else acc + frac
                if new:
                    data[m] = new
                elif acc is not None:
                    del data[m]
        self.context = context
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context: TruncationContext) -> "Series":
        return cls(context)

    @classmethod
    def one(cls, context: TruncationContext) -> "Series":
        return cls.constant(context, 1)

    @classmethod
    def constant(cls, context: TruncationContext, value: Scalar) -> "Series":
        return cls(context, {context.unit_monomial(): Fraction(value)})

    @classmethod
    def variable(cls, context: TruncationContext, name: str) -> "Series":
        kind, idx = context.resolve(name)
        if kind == "t":
            m = context.monomial(t=1)
        elif kind == "z":
            m = context.monomial(z=1)
        else:
            m = context.monomial(u={idx: 1})
        return cls(context, {m: Fraction(1)})

    @classmethod
    def term(cls, context: TruncationContext, m: Monomial, coeff: Scalar) -> "Series":
        return cls(context, {m: Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get(self.context.unit_monomial(), Fraction(0))

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """All terms in canonical order: sorted by (t_deg, z_deg, u_degs)."""
        return sorted(self._terms.items())

    def coefficient(self, m: Monomial) -> Fraction:
        """Exact coefficient of an in-context monomial.

        Raises OutOfContextError for monomials beyond the truncation bounds,
        where the stored value 0 would be indistinguishable from truncation.
        """
        self.context.require(m)
        return self._terms.get(m, Fraction(0))

    def t_coefficient(self, k: int) -> "Series":
        """The coefficient of t^k as a series in the remaining variables."""
        out = {
            Monomial(0, m.z_deg, m.u_degs): c
            for m, c in self._terms.items()
            if m.t_deg == k
        }
        return Series(self.context, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = self.terms()[:4]
        body = " + ".join(_term_text(m, c) for m, c in shown) or "0"
        if self.n_terms > 4:
            body += f" + ... ({self.n_terms} terms)"
        return f"Series({body})"

    # -- ring operations ---------------------------------------------------

    def _check_same_context(self, other: "Series") -> None:
        if self.context != other.context:
            raise ContextMismatchError("series have different truncation contexts")

    def __add__(self, other: "Series" | Scalar) -> "Series":
        if isinstance(other, (int, Fraction)):
            other = Series.constant(self.context, other)
        elif not isinstance(other, Series):
            return NotImplemented
        self._check_same_context(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            acc = out.get(m)
            new = c if acc is None else acc + c
            if new:
                out[m] = new
            elif acc is not None:
                del out[m]
        result = Series.__new__(Series)
        result.context = self.context
        result._terms = out
        return result

    def __radd__(self, other: Scalar) -> "Series":
        return self.__add__(other)

    def __neg__(self) -> "Series":
        result = Series.__new__(Series)
        result.context = self.context
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def __sub__(self, other: "Series" | Scalar) -> "Series":
        if isinstance(other, (int, Fraction)):
            other = Series.constant(self.context, other)
        elif not isinstance(other, Series):
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other: Scalar) -> "Series":
        return self.__neg__().__add__(other)

    def __mul__(self, other: "Series" | Scalar) -> "Series":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            result = Series.__new__(Series)
            result.context = self.context
            result._terms = {m: v * c for m, v in self._terms.items()} if c else {}
            return result
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_context(other)
        ctx = self.context
        t_max, z_max, mag_max = ctx.t_max, ctx.z_max, ctx.magnitude_max
        # magnitudes are additive, so compute each factor's once
        left = [(m, m.magnitude, c) for m, c in self._terms.items()]
        right = [(m, m.magnitude, c) for m, c in other._terms.items()]
        if len(left) > len(right):
            left, right = right, left
        out: dict[Monomial, Fraction] = {}
        for ma, maga, ca in left:
            for mb, magb, cb in right:
                if maga + magb > mag_max:
                    continue
                td = ma.t_deg + mb.t_deg
                if td > t_max:
                    continue
                zd = ma.z_deg + mb.z_deg
                if zd > z_max:
                    continue
                m = Monomial(td, zd, tuple(x + y for x, y in zip(ma.u_degs, mb.u_degs)))
                acc = out.get(m)
                new = ca * cb if acc is None else acc + ca * cb
                if new:
                    out[m] = new
                elif acc is not None:
                    del out[m]
        result = Series.__new__(Series)
        result.context = ctx
        result._terms = out
        return result

    def __rmul__(self, other: Scalar) -> "Series":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "Series":
        c = Fraction(other)
        if not c:
            raise ZeroDivisionError("division of a series by zero")
        return self.__mul__(Fraction(1, 1) / c)

    def __pow__(self, k: int) -> "Series":
        if not isinstance(k, int) or k < 0:
            raise ValueError("series powers take non-negative integer exponents")
        result = Series.one(self.context)
        for _ in range(k):
            result = result * self
            if result.is_zero():
                break
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "Series":
        """Partial derivative; the result is truncated to the same context."""
        kind, idx = self.context.resolve(name)
        out: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            if kind == "t":
                e = m.t_deg
                if e:
                    out[Monomial(e - 1, m.z_deg, m.u_degs)] = c * e
            elif kind == "z":
                e = m.z_deg
                if e:
                    out[Monomial(m.t_deg, e - 1, m.u_degs)] = c * e
            else:
                e = m.u_degs[idx - 2]
                if e:
                    degs = list(m.u_degs)
                    degs[idx - 2] = e - 1
                    out[Monomial(m.t_deg, m.z_deg, tuple(degs))] = c * e
        result = Series.__new__(Series)
        result.context = self.context
        result._terms = out
        return result

    def substitute(self, name: str, g: "Series") -> "Series":
        """Replace a variable by a series with zero constant term."""
        self._check_same_context(g)
        kind, idx = self.context.resolve(name)
        groups: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self._terms.items():
            if kind == "t":
                e, rest = m.t_deg, Monomial(0, m.z_deg, m.u_degs)
            elif kind == "z":
                e, rest = m.z_deg, Monomial(m.t_deg, 0, m.u_degs)
            else:
                e = m.u_degs[idx - 2]
                degs = list(m.u_degs)
                degs[idx - 2] = 0
                rest = Monomial(m.t_deg, m.z_deg, tuple(degs))
            bucket = groups.setdefault(e, {})
            bucket[rest] = bucket.get(rest, Fraction(0)) + c
        # stop at the largest exponent present: higher powers would be wasted products
        top = max(groups, default=0)
        return g.power_sum([Series(self.context, groups.get(e, ())) for e in range(top + 1)])

    # -- truncation and filtering -------------------------------------------

    def grade_filter(self, pred: Callable[[int, int], bool]) -> "Series":
        """Keep the terms whose (t_deg, magnitude) satisfy the predicate."""
        kept = {m: c for m, c in self._terms.items() if pred(m.t_deg, m.magnitude)}
        result = Series.__new__(Series)
        result.context = self.context
        result._terms = kept
        return result

    def restrict(
        self,
        t_max: int | None = None,
        z_max: int | None = None,
        magnitude_max: int | None = None,
    ) -> "Series":
        """Drop terms beyond tighter bounds, keeping the same context."""
        tb = self.context.t_max if t_max is None else t_max
        zb = self.context.z_max if z_max is None else z_max
        mb = self.context.magnitude_max if magnitude_max is None else magnitude_max
        kept = {
            m: c
            for m, c in self._terms.items()
            if m.t_deg <= tb and m.z_deg <= zb and m.magnitude <= mb
        }
        result = Series.__new__(Series)
        result.context = self.context
        result._terms = kept
        return result

    # -- transcendental operations ------------------------------------------

    def power_sum(self, coeffs: Sequence[Scalar | Series]) -> "Series":
        """sum_k coeffs[k] * self^k for a series with zero constant term.

        Each coefficient is a scalar or a series.  The sum stops at the end
        of coeffs or at the first power that truncates to zero.  Every
        non-constant monomial has t + z + magnitude >= 1, so
        self^(grade_bound + 1) is zero and grade_bound + 1 coefficients
        always reach the end of the truncated series.
        """
        if self.constant_term:
            raise ValueError("power sums need a series with zero constant term")
        result = Series.zero(self.context)
        power = Series.one(self.context)
        for k, c in enumerate(coeffs):
            if k:
                power = self if k == 1 else power * self
                if power.is_zero():
                    break
            if c:
                result = result + (power * c if k else c)  # self^0 = 1 needs no product
        return result

    def exp(self) -> "Series":
        """exp(f) for f with zero constant term."""
        n = self.context.grade_bound + 1
        return self.power_sum([Fraction(1, factorial(k)) for k in range(n)])

    def log(self) -> "Series":
        """log(f) for f with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("log needs a series with constant term 1")
        n = self.context.grade_bound + 1
        coeffs = [Fraction((-1) ** (k + 1), k) if k else 0 for k in range(n)]
        return (self - 1).power_sum(coeffs)

    def inverse(self) -> "Series":
        """Multiplicative inverse of a unit (nonzero constant term) series."""
        c = self.constant_term
        if not c:
            raise ValueError("inverse needs a nonzero constant term")
        n = self.context.grade_bound + 1
        return (self / c - 1).power_sum([(-1) ** k for k in range(n)]) / c

    def divided_by_t(self) -> "Series":
        """Shift t-degrees down by one; every term must be divisible by t.

        The top degree t_max of the result is not populated by any
        operation that produced the input, so callers own that bookkeeping.
        """
        out: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            if m.t_deg == 0:
                raise ValueError("series is not divisible by t")
            out[Monomial(m.t_deg - 1, m.z_deg, m.u_degs)] = c
        result = Series.__new__(Series)
        result.context = self.context
        result._terms = out
        return result


def _term_text(m: Monomial, c: Fraction) -> str:
    factors = []
    if m.t_deg:
        factors.append("t" + (f"^{m.t_deg}" if m.t_deg > 1 else ""))
    if m.z_deg:
        factors.append("z" + (f"^{m.z_deg}" if m.z_deg > 1 else ""))
    for j, e in enumerate(m.u_degs):
        if e:
            factors.append(f"u{j + 2}" + (f"^{e}" if e > 1 else ""))
    body = "*".join(factors)
    if not body:
        return str(c)
    if c == 1:
        return body
    return f"{c}*{body}"


def first_difference(
    a: Series, b: Series
) -> tuple[Monomial, Fraction, Fraction] | None:
    """The canonically first monomial where two series differ, or None."""
    if a.context != b.context:
        raise ContextMismatchError("cannot compare series from different contexts")
    keys = set(a._terms) | set(b._terms)
    for m in sorted(keys):
        ca = a._terms.get(m, Fraction(0))
        cb = b._terms.get(m, Fraction(0))
        if ca != cb:
            return (m, ca, cb)
    return None


def revert(f: Series) -> Series:
    """Compositional inverse in the t-variable slot.

    Requires f = t * (unit): every term divisible by t and a nonzero
    linear coefficient.  Other variables ride along as coefficients.
    The fixed-point iteration gains one order of total grade per step,
    so it is run to the context grade bound and checked for stability.
    """
    ctx = f.context
    y = Series.variable(ctx, "t")
    t_monomial = ctx.monomial(t=1)
    c1 = f.coefficient(t_monomial)
    if not c1:
        raise ValueError("reversion needs a nonzero linear t-coefficient")
    for m, _ in f.terms():
        if m.t_deg == 0:
            raise ValueError("reversion needs every term divisible by t")
    h = f - c1 * y
    g = y / c1
    for _ in range(ctx.grade_bound + 2):
        nxt = (y - h.substitute("t", g)) / c1
        if nxt == g:
            return g
        g = nxt
    raise RuntimeError("reversion iteration did not stabilize")


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
        slice_n = power.t_coefficient(n - 1)
        if slice_n.is_zero():
            continue
        t_n = Series.term(ctx, ctx.monomial(t=n), Fraction(1, n))
        g = g + t_n * slice_n
    return g
