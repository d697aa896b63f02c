"""Exact truncated multivariate formal power series over the rationals.

Every series in this package lives over the same kind of variable set:
the vertex-marking variable ``t``, an auxiliary variable ``z``, and edge
variables ``u2 .. uM`` where ``u_i`` marks an edge with ``i`` vertices.
A monomial is one flat exponent vector ``(t, z, u2, ..., uM)`` and a
variable is its position in that vector: t is 0, z is 1 and u_i is i.
A monomial carries a *magnitude* grading::

    magnitude(t^a z^b u2^c2 ... uM^cM) = sum((i - 1) * c_i)

which matches the edge magnitude of the hypergraphs these series count.

A :class:`TruncationContext` is three integers: the bounds ``t_max``,
``z_max`` and ``magnitude_max``.  An edge variable u_i has magnitude
i - 1, so no u_i past M = magnitude_max + 1 can carry a term, and the
edge variables are exactly ``u2 .. uM``.  Every operation truncates its
result to the bounds, so the algebra is closed and all stored
coefficients are exact :class:`fractions.Fraction` values.
A bound of 0 leaves its variable in the set but truncates it away: with
``z_max = 0`` the series ``z`` is zero.  There is no floating point
anywhere.

All three gradings are additive and non-negative, which is what makes
truncation coherent: any product of admissible monomials that lands back
inside the bounds can only have used admissible factors.

A series stores each term under one int key: a field per variable and a
top field for the magnitude, each as many bits wide as the context's
largest bound needs.  No admissible exponent or magnitude exceeds that
bound, so the key of an in-bounds product is the sum of its factors'
keys, with no carry, and key order is magnitude order.  Products, exp,
log and substitution share one term-pair loop on these keys, each
operand over one common denominator, that stops at the first term past
the magnitude bound and makes one Fraction per output term (the packed
exponent vectors of Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  A
:class:`Monomial` is built only at the public edge.

exp and log run on the total grade t + z + magnitude, which only the
unit monomial has at 0: they solve for the grade-d piece of the result
from the pieces below it (the Euler-operator recurrences), about one
product's work in all, and inverse is exp(-log(f/c)) / c.  The grades
stop at the sum of the bounds of the variables the operand uses, since
products of its monomials never leave those variables.  Substitution
groups the terms by the exponent e of the substituted variable and adds
every group c_e times g^e in one call of the product loop.

:func:`revert` finds one t-slice of the inverse at a time from the
slices below it, each slice sum one call of the product loop: the
schoolbook form of relaxed evaluation (van der Hoeven, "Relax, but
don't be too lazy", 2002).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class ContextMismatchError(ValueError):
    """Raised when series from different truncation contexts are combined."""


class OutOfContextError(ValueError):
    """Raised when a coefficient is requested outside the truncation bounds."""


class Monomial(tuple):
    """Flat exponent vector ``(t, z, u2, ..., uM)``.

    Entry i >= 2 is the exponent of ``u_i``.  Tuple ordering doubles as
    the canonical term order of :meth:`Series.terms`: by t, then z, then
    the edge exponents.  The repr keeps the grouped form
    ``Monomial(t_deg=.., z_deg=.., u_degs=(..))`` that reports print.
    """

    __slots__ = ()

    @property
    def t_deg(self) -> int:
        return self[0]

    @property
    def z_deg(self) -> int:
        return self[1]

    @property
    def magnitude(self) -> int:
        return sum(map(mul, self[2:], count(1)))

    def __repr__(self) -> str:
        return f"Monomial(t_deg={self[0]}, z_deg={self[1]}, u_degs={self[2:]})"


@dataclass(frozen=True)
class TruncationContext:
    """Degree bounds under which all arithmetic is performed.

    The edge variables are ``u2 .. uM`` with M = :attr:`max_edge_size`,
    the largest edge size whose variable fits under ``magnitude_max``.
    """

    t_max: int = 6
    z_max: int = 0
    magnitude_max: int = 6

    def __post_init__(self) -> None:
        if min(self.t_max, self.z_max, self.magnitude_max) < 0:
            raise ValueError("truncation bounds must be non-negative")
        top = max(self.t_max, self.z_max, self.magnitude_max)
        if top > 2**64 - 1:
            raise ValueError(f"truncation bound {top} exceeds the 64-bit exponent field")

    @property
    def max_edge_size(self) -> int:
        """M = magnitude_max + 1: u_i has magnitude i - 1."""
        return self.magnitude_max + 1

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Variable names in exponent-vector order: t, z, u2 .. uM."""
        return ("t", "z") + tuple(f"u{i}" for i in range(2, self.max_edge_size + 1))

    @cached_property
    def _fields(self) -> tuple[int, int, int]:
        """(width, mask, shift of the top field) of the packed keys.

        Variable i owns the field at bit width * i, and the top field holds
        the magnitude.  Every field is as wide as the largest bound, which
        no admissible exponent or magnitude exceeds (u_i has magnitude
        i - 1 >= 1).
        """
        width = max(self.t_max, self.z_max, self.magnitude_max, 1).bit_length()
        return width, (1 << width) - 1, width * len(self.names)

    def _unit(self, i: int) -> int:
        """The key of the variable at position i: 1 for t, and u_i adds
        i - 1 to the top field."""
        width, _, top = self._fields
        return (1 << width * i) + (max(i - 1, 0) << top)

    def _key(self, m: Monomial) -> int:
        return sum(e * self._unit(i) for i, e in enumerate(m) if e)

    def _monomial(self, key: int) -> Monomial:
        width, mask, top = self._fields
        return Monomial([key >> shift & mask for shift in range(0, top, width)])

    def index(self, name: str) -> int:
        """Position of a variable in the exponent vector."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def admits(self, m: Monomial) -> bool:
        return m[0] <= self.t_max and m[1] <= self.z_max and m.magnitude <= self.magnitude_max

    def require(self, m: Monomial) -> None:
        if not self.admits(m):
            raise OutOfContextError(f"monomial {m} lies outside {self}")

    def monomial(
        self, t: int = 0, z: int = 0, u: Mapping[int, int] | None = None
    ) -> Monomial:
        """Build a monomial, validating exponents against the edge variables."""
        if t < 0 or z < 0:
            raise ValueError("exponents must be non-negative")
        degs = [t, z] + [0] * self.magnitude_max
        if u:
            for i, e in u.items():
                if e < 0:
                    raise ValueError("exponents must be non-negative")
                if not 2 <= i <= self.max_edge_size:
                    raise ValueError(f"no edge variable u{i} in the context")
                degs[i] = e
        return Monomial(degs)


class Series:
    """An immutable truncated power series: a finite Monomial -> Fraction map,
    stored under the context's packed keys.

    Construction drops zero coefficients and silently truncates monomials
    that violate the context bounds, so every stored term is admissible.
    """

    __slots__ = ("context", "_terms", "_operand")

    def __init__(
        self,
        context: TruncationContext,
        terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = (),
    ) -> None:
        width = len(context.names)
        items = []
        for m, c in terms.items() if isinstance(terms, Mapping) else terms:
            if not isinstance(m, Monomial):
                raise TypeError(f"expected Monomial key, got {type(m).__name__}")
            if len(m) != width:
                raise ValueError("monomial does not match the context's edge variables")
            if min(m) < 0:
                raise ValueError(f"monomial {m} has a negative exponent")
            items.append((m, Fraction(c)))
        data: dict[int, Fraction] = {}
        _add_into(data, ((context._key(m), c) for m, c in items if context.admits(m)))
        self.context = context
        self._terms = data

    @staticmethod
    def _trusted(context: TruncationContext, terms: dict[int, Fraction]) -> "Series":
        """Wrap terms that are already admissible, nonzero and Fraction-valued."""
        result = Series.__new__(Series)
        result.context = context
        result._terms = terms
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context: TruncationContext) -> "Series":
        return cls(context)

    @classmethod
    def one(cls, context: TruncationContext) -> "Series":
        return cls.constant(context, 1)

    @classmethod
    def constant(cls, context: TruncationContext, value: Scalar) -> "Series":
        return cls(context, {context.monomial(): Fraction(value)})

    @classmethod
    def variable(cls, context: TruncationContext, name: str) -> "Series":
        degs = [0] * len(context.names)
        degs[context.index(name)] = 1
        return cls(context, {Monomial(degs): Fraction(1)})

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
        return self._terms.get(0, Fraction(0))

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """All terms in canonical order: sorted by exponent vector."""
        decode = self.context._monomial
        return sorted((decode(key), c) for key, c in self._terms.items())

    def coefficient(self, m: Monomial) -> Fraction:
        """Exact coefficient of an in-context monomial.

        Raises OutOfContextError for monomials beyond the truncation bounds,
        where the stored value 0 would be indistinguishable from truncation.
        """
        if len(m) != len(self.context.names):
            raise ValueError("monomial does not match the context's edge variables")
        self.context.require(m)
        return self._terms.get(self.context._key(m), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = self.terms()[:4]
        names = self.context.names
        body = " + ".join(_term_text(names, m, c) for m, c in shown) or "0"
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
        _add_into(out, other._terms.items())
        return Series._trusted(self.context, out)

    def __radd__(self, other: Scalar) -> "Series":
        return self.__add__(other)

    def __neg__(self) -> "Series":
        return Series._trusted(self.context, {m: -c for m, c in self._terms.items()})

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
            return Series._trusted(
                self.context, {m: v * c for m, v in self._terms.items()} if c else {}
            )
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_context(other)
        left, right = self._kernel_operand(), other._kernel_operand()
        if len(left[1]) > len(right[1]):
            left, right = right, left
        out: dict[int, Fraction] = {}
        _mul_into(out, [(left, right)], self.context)
        return Series._trusted(self.context, out)

    def _kernel_operand(self) -> _Graded:
        """The terms graded for :func:`_mul_into`, built on first use and kept."""
        try:
            return self._operand
        except AttributeError:
            self._operand = _graded(self._terms, self.context)
            return self._operand

    def __rmul__(self, other: Scalar) -> "Series":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "Series":
        c = Fraction(other)
        if not c:
            raise ZeroDivisionError("division of a series by zero")
        return self.__mul__(Fraction(1, 1) / c)

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "Series":
        """Partial derivative; the result is truncated to the same context."""
        ctx = self.context
        i = ctx.index(name)
        shift, mask, unit = ctx._fields[0] * i, ctx._fields[1], ctx._unit(i)
        out: dict[int, Fraction] = {}
        for key, c in self._terms.items():
            e = key >> shift & mask
            if e:
                out[key - unit] = c * e
        return Series._trusted(ctx, out)

    def substitute(self, name: str, g: "Series") -> "Series":
        """Replace a variable by a series with zero constant term.

        With c_e the terms whose exponent of the variable is e, that
        exponent set to 0, the result is sum_e c_e g^e: the e = 0 group
        plus one :func:`_mul_into` call over the pairs (c_e, g^e).
        """
        self._check_same_context(g)
        if g.constant_term:
            raise ValueError("substitute needs an image with zero constant term")
        ctx = self.context
        i = ctx.index(name)
        shift, mask, unit = ctx._fields[0] * i, ctx._fields[1], ctx._unit(i)
        groups: dict[int, dict[int, Fraction]] = {}
        for key, c in self._terms.items():
            e = key >> shift & mask
            groups.setdefault(e, {})[key - e * unit] = c
        out = groups.pop(0, {})
        pairs = []
        power = g
        for e in range(1, max(groups, default=0) + 1):
            if e > 1:
                power = power * g
                if power.is_zero():
                    break  # so is every higher power
            if e in groups:
                pairs.append((power._kernel_operand(), _graded(groups[e], ctx)))
        _mul_into(out, pairs, ctx)
        return Series._trusted(ctx, out)

    # -- truncation ---------------------------------------------------------

    def restrict(
        self,
        t_max: int | None = None,
        magnitude_max: int | None = None,
    ) -> "Series":
        """Drop terms beyond tighter t or magnitude bounds, keeping the same context."""
        tb = self.context.t_max if t_max is None else t_max
        mb = self.context.magnitude_max if magnitude_max is None else magnitude_max
        _, mask, top = self.context._fields
        kept = {key: c for key, c in self._terms.items() if key & mask <= tb and key >> top <= mb}
        return Series._trusted(self.context, kept)

    # -- transcendental operations ------------------------------------------

    def _grade_pieces(self) -> list[_Graded]:
        """Terms split by total grade t + z + magnitude, all over the series'
        one common denominator.

        The grades run to the sum of the bounds of the variables the terms
        use: products of these terms use no other variable, so exp and log
        can reach no higher grade.
        """
        ctx = self.context
        den, terms = self._kernel_operand()
        top = (ctx.t_max * any(term[1] for term in terms)
               + ctx.z_max * any(term[2] for term in terms)
               + ctx.magnitude_max * any(term[3] for term in terms))
        pieces: list[_Graded] = [(den, []) for _ in range(top + 1)]
        for term in terms:
            pieces[term[1] + term[2] + term[3]][1].append(term)
        return pieces

    def exp(self) -> "Series":
        """exp(f) for f with zero constant term.

        Grade by grade, d g_d = sum_{k=1..d} k f_k g_(d-k), with g_0 = 1.
        """
        if self.constant_term:
            raise ValueError("exp needs a series with zero constant term")
        ctx = self.context
        kf = [(den, [(key, t, z, mag, k * n) for key, t, z, mag, n in piece])
              for k, (den, piece) in enumerate(self._grade_pieces())]
        result = {0: Fraction(1)}
        g = [_graded(result, ctx)]
        for d in range(1, len(kf)):
            out = _slice_sum([(kf[k], g[d - k]) for k in range(1, d + 1)], ctx)
            g_d = {key: v / d for key, v in out.items()}
            result.update(g_d)
            g.append(_graded(g_d, ctx))
        return Series._trusted(ctx, result)

    def log(self) -> "Series":
        """log(f) for f with constant term 1.

        Grade by grade, d L_d = d f_d - sum_{k=1..d-1} k L_k f_(d-k).
        """
        if self.constant_term != 1:
            raise ValueError("log needs a series with constant term 1")
        ctx = self.context
        f = self._grade_pieces()
        result: dict[int, Fraction] = {}
        neg_kL: list[_Graded] = [(1, [])]  # -k L_k, so the product loop only adds
        for d in range(1, len(f)):
            out = _slice_sum([(neg_kL[k], f[d - k]) for k in range(1, d)], ctx)
            _add_into(out, ((key, d * self._terms[key]) for key, *_ in f[d][1]))
            result.update((key, v / d) for key, v in out.items())
            neg_kL.append(_graded({key: -v for key, v in out.items()}, ctx))
        return Series._trusted(ctx, result)

    def inverse(self) -> "Series":
        """Multiplicative inverse of a unit (nonzero constant term) series.

        With c = f_0, 1/f = exp(-log(f/c)) / c.
        """
        c = self.constant_term
        if not c:
            raise ValueError("inverse needs a nonzero constant term")
        return (-(self / c).log()).exp() / c

    def divided_by_t(self) -> "Series":
        """Shift t-degrees down by one; every term must be divisible by t.

        The top degree t_max of the result is not populated by any
        operation that produced the input, so callers own that bookkeeping.
        """
        mask = self.context._fields[1]
        out: dict[int, Fraction] = {}
        for key, c in self._terms.items():
            if not key & mask:
                raise ValueError("series is not divisible by t")
            out[key - 1] = c  # t's unit
        return Series._trusted(self.context, out)


_Term = tuple[int, int, int, int, int]  # key, t, z, magnitude, numerator
_Graded = tuple[int, list[_Term]]  # common denominator, terms sorted by key and so by magnitude
_Pairs = Sequence[tuple[_Graded, _Graded]]  # left and right operands of a product loop


def _graded(terms: Mapping[int, Fraction], ctx: TruncationContext) -> _Graded:
    """Terms over their least common denominator D, for :func:`_mul_into`.

    Each term carries its key, the three gradings read from the key's t, z
    and magnitude fields and the integer numerator c * D, and the terms
    are sorted by key.
    """
    width, mask, top = ctx._fields
    den = lcm(*(c.denominator for c in terms.values()))
    graded = [
        (key, key & mask, key >> width & mask, key >> top, c.numerator * (den // c.denominator))
        for key, c in terms.items()
    ]
    graded.sort()  # the keys are distinct, so only they are compared
    return den, graded


def _mul_into(out: dict[int, Fraction], pairs: _Pairs, ctx: TruncationContext) -> None:
    """Add every in-context product of a left and a right term into out.

    This is the one term-pair loop that ``*``, exp, log and substitution
    multiply through.  Each pair of operands is scaled to the lcm D of the
    pairs' denominator products, so the loop sums int numerators.  The
    gradings are additive, so the bound checks need no monomial, and a pair
    inside the bounds is keyed by the sum of the two keys.
    """
    t_max, z_max, mag_max = ctx.t_max, ctx.z_max, ctx.magnitude_max
    den = lcm(*(left[0] * right[0] for left, right in pairs))
    sums: dict[int, int] = {}
    get = sums.get
    for (left_den, left_terms), (right_den, right_terms) in pairs:
        scale = den // (left_den * right_den)
        for ka, ta, za, maga, na in left_terms:
            na *= scale
            mag_room, t_room, z_room = mag_max - maga, t_max - ta, z_max - za
            for kb, tb, zb, magb, nb in right_terms:
                if magb > mag_room:
                    break  # the right terms are sorted by magnitude
                if tb > t_room or zb > z_room:
                    continue
                k = ka + kb
                sums[k] = get(k, 0) + na * nb
    _add_into(out, ((k, Fraction(v, den)) for k, v in sums.items() if v))


def _slice_sum(pairs: _Pairs, ctx: TruncationContext) -> dict[int, Fraction]:
    """The sum of left * right over the pairs, in one :func:`_mul_into` call,
    or none when every pair has an empty side."""
    out: dict[int, Fraction] = {}
    pairs = [(a, b) for a, b in pairs if a[1] and b[1]]
    if pairs:
        _mul_into(out, pairs, ctx)
    return out


def _add_into(out: dict[int, Fraction], items: Iterable[tuple[int, Fraction]]) -> None:
    """Add keyed terms into out, keeping no zero coefficient."""
    for key, c in items:
        acc = out.get(key)
        new = c if acc is None else acc + c
        if new:
            out[key] = new
        elif acc is not None:
            del out[key]


def _term_text(names: Sequence[str], m: Monomial, c: Fraction) -> str:
    body = "*".join(v + (f"^{e}" if e > 1 else "") for v, e in zip(names, m) if e)
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
    ta, tb, zero = a._terms, b._terms, Fraction(0)
    decode = a.context._monomial
    diffs = (k for k in ta.keys() | tb.keys() if ta.get(k) != tb.get(k))
    return min(((decode(k), ta.get(k, zero), tb.get(k, zero)) for k in diffs), default=None)


def into_context(f: Series, ctx: TruncationContext) -> Series:
    """f truncated into ctx, whose edge variables may be fewer or more than
    f's context has.  A term that uses a u_j past ctx's lies beyond its
    magnitude bound, so it is dropped, not shortened; the u_j that only ctx
    has get exponent 0."""
    width = len(ctx.names)
    pad = (0,) * (width - len(f.context.names))
    decode = f.context._monomial
    ms = ((decode(key), c) for key, c in f._terms.items())
    return Series(ctx, [(Monomial(m[:width] + pad), c) for m, c in ms if not any(m[width:])])


# -- reversion, one t-slice at a time: each slice keeps its t-exponent


def revert(f: Series) -> Series:
    """Compositional inverse in the t-variable slot.

    Requires f = t * (unit): every term divisible by t and a nonzero
    linear coefficient.  Other variables ride along as coefficients, so
    with f = sum_k f_k t^k the linear coefficient f_1 may carry z or u
    terms.  g = f^(-1) is solved one t-slice at a time from f(g) = t:

        g_n = f_1^(-1) ([n = 1] t - sum_{k>=2} f_k [t^n] g^k),

    where [t^n] g^k reads only the slices of g below n: g has no t^0
    slice, so g^k has none below t^k and [t^n] g^k = sum_i g_i [t^(n-i)] g^(k-1).
    """
    ctx = f.context
    c1 = f.coefficient(ctx.monomial(t=1))
    if not c1:
        raise ValueError("reversion needs a nonzero linear t-coefficient")
    mask = ctx._fields[1]
    f_k: list[dict[int, Fraction]] = [{} for _ in range(ctx.t_max + 1)]  # [t^k] f, t-free
    for key, c in f._terms.items():
        k = key & mask
        if not k:
            raise ValueError("reversion needs every term divisible by t")
        f_k[k][key - k] = c
    inv = Series._trusted(ctx, f_k[1]).inverse()
    top = max(k for k, c in enumerate(f_k) if c)
    # h_k = -f_k / f_1, so g_n = sum_{k>=2} h_k [t^n] g^k
    h = {k: (-(inv * Series._trusted(ctx, f_k[k])))._kernel_operand() for k in range(2, top + 1)}
    empty: _Graded = (1, [])
    powers = [[empty] * (ctx.t_max + 1) for _ in range(top + 1)]  # powers[k][n] = [t^n] g^k
    g = powers[1]
    g_1 = Series.variable(ctx, "t") * inv
    g[1] = g_1._kernel_operand()
    result = dict(g_1._terms)
    for n in range(2, ctx.t_max + 1):
        for k in range(2, min(n, top) + 1):
            prev = powers[k - 1]
            slice_n = _slice_sum([(g[i], prev[n - i]) for i in range(1, n)], ctx)
            powers[k][n] = _graded(slice_n, ctx)
        g_n = _slice_sum([(h[k], powers[k][n]) for k in range(2, top + 1)], ctx)
        result.update(g_n)
        g[n] = _graded(g_n, ctx)
    return Series._trusted(ctx, result)

