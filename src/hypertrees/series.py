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
result to the bounds, so the algebra is closed and every coefficient
is an exact rational number: builders and operators take int and
Fraction scalars only.  A bound of 0 leaves its variable in the set but
truncates it away: with ``z_max = 0`` the series ``z`` is zero.  There
is no floating point anywhere.

All three gradings are additive and non-negative, which is what makes
truncation coherent: any product of admissible monomials that lands back
inside the bounds can only have used admissible factors.

A series stores each term under one int key: a field per variable and a
top field for the magnitude, each as many bits wide as the context's
largest bound needs.  No admissible exponent or magnitude exceeds that
bound, so the key of an in-bounds product is the sum of its factors'
keys, with no carry, and key order is magnitude order (the packed
exponent vectors of Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  The
coefficients are int numerators over one common denominator, kept in
lowest terms (the integer polynomial over one denominator of FLINT's
fmpq_poly: Hart, "FLINT: Fast Library for Number Theory", ICMS 2010).
Products, exp, log, substitution and reversion share one term-pair
loop on these keys that sums int numerators and stops at the first term
past the magnitude bound.  :meth:`Series.where`, the one selector by
(t, z, magnitude), and the t-marginal read key fields as well, so a
:class:`Monomial` and a :class:`fractions.Fraction` are built
only at the public edge: the constructor (the one builder from
monomials), :meth:`Series.terms`, :meth:`Series.coefficient`,
``constant_term``, :func:`first_difference` and the repr.

exp and log run on the total grade t + z + magnitude, which only the
unit monomial has at 0: they solve for the grade-d piece of the result
from the pieces below it (the Euler-operator recurrences), about one
product's work in all, and inverse is exp(-log(f/c)) / c.  The grades
stop at the sum of the bounds of the variables the operand uses, since
products of its monomials never leave those variables.
:func:`exponential_formula` builds sum_k t^k/k! exp(w_k) by the same
Euler operator, taken in z and the u's alone: the grade-d piece of the
sum is read from the pieces below it through the t-free monomials of the
weights, with no exp per k, and one log follows.  Substitution
replaces every named variable at once: it groups the terms on the key
bits of the substituted fields, forms each group's product of image
powers once from a smaller one, and adds every group c_e times g^e in
one call of the product loop.  A product can stop at a magnitude below
the context's, so a check that reads only the lower layers forms no
term of the top ones.

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
from math import factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def exact(c: object) -> Scalar:
    """c, if it is an int or a Fraction; a float, str or Decimal is refused, not converted."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


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
        bounds = (self.t_max, self.z_max, self.magnitude_max)
        if not all(isinstance(b, int) for b in bounds):
            raise TypeError(f"truncation bounds must be ints, got {bounds!r}")
        if min(bounds) < 0:
            raise ValueError("truncation bounds must be non-negative")
        top = max(bounds)
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
        """Whether m lies within the bounds.  A monomial of another width or
        with a non-int or negative exponent is refused: its key would alias
        another's, or be no key at all."""
        if len(m) != len(self.names):
            raise ValueError("monomial does not match the context's edge variables")
        if not all(isinstance(e, int) for e in m):
            raise ValueError(f"monomial {m} has a non-int exponent")
        if min(m) < 0:
            raise ValueError(f"monomial {m} has a negative exponent")
        return m[0] <= self.t_max and m[1] <= self.z_max and m.magnitude <= self.magnitude_max

    def require(self, m: Monomial) -> None:
        if not self.admits(m):
            raise OutOfContextError(f"monomial {m} lies outside {self}")

    def monomial(
        self, t: int = 0, z: int = 0, u: Mapping[int, int] | None = None
    ) -> Monomial:
        """Build a monomial, in the bounds or past them; its exponents pass
        :meth:`admits`' checks and its edge variables must be the context's."""
        degs = [t, z] + [0] * self.magnitude_max
        for i, e in (u or {}).items():
            if not (isinstance(i, int) and 2 <= i <= self.max_edge_size):
                raise ValueError(f"no edge variable u{i!r} in the context")
            degs[i] = e
        m = Monomial(degs)
        self.admits(m)
        return m


class Series:
    """An immutable truncated power series: a finite Monomial -> Fraction map,
    stored as int numerators under the context's packed keys over one common
    denominator, in lowest terms.

    Construction takes int and Fraction coefficients only (:func:`exact`),
    drops zero coefficients and silently truncates monomials that violate
    the context bounds, so every stored term is admissible.
    """

    __slots__ = ("context", "_den", "_terms", "_operand")

    def __init__(
        self,
        context: TruncationContext,
        terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = (),
    ) -> None:
        items = []
        for m, c in terms.items() if isinstance(terms, Mapping) else terms:
            if not isinstance(m, Monomial):
                raise TypeError(f"expected Monomial key, got {type(m).__name__}")
            admitted = context.admits(m)  # refuses a malformed monomial, in bounds or not
            items.append((m, exact(c), admitted))
        kept = [(context._key(m), c) for m, c, admitted in items if admitted]
        den = lcm(*(c.denominator for _, c in kept))
        nums: dict[int, int] = {}
        for key, c in kept:
            nums[key] = nums.get(key, 0) + c.numerator * (den // c.denominator)
        reduced = _reduced(context, den, nums)
        self.context, self._den, self._terms = context, reduced._den, reduced._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, context: TruncationContext) -> "Series":
        return cls(context)

    @classmethod
    def one(cls, context: TruncationContext) -> "Series":
        return cls(context, {context.monomial(): 1})

    @classmethod
    def variable(cls, context: TruncationContext, name: str) -> "Series":
        degs = [0] * len(context.names)
        degs[context.index(name)] = 1
        return cls(context, {Monomial(degs): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(0, 0), self._den)

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """All terms in canonical order: sorted by exponent vector."""
        decode, den = self.context._monomial, self._den
        return sorted((decode(key), Fraction(v, den)) for key, v in self._terms.items())

    def coefficient(self, m: Monomial) -> Fraction:
        """Exact coefficient of an in-context monomial.

        Raises OutOfContextError for monomials beyond the truncation bounds,
        where the stored value 0 would be indistinguishable from truncation.
        """
        self.context.require(m)
        return Fraction(self._terms.get(self.context._key(m), 0), self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Series(self.context, {self.context.monomial(): other})
        elif not isinstance(other, Series):
            return NotImplemented
        return (self.context == other.context and self._den == other._den
                and self._terms == other._terms)

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
            other = Series(self.context, {self.context.monomial(): other})
        elif not isinstance(other, Series):
            return NotImplemented
        self._check_same_context(other)
        return _sum([self, other])

    def __radd__(self, other: Scalar) -> "Series":
        return self.__add__(other)

    def __neg__(self) -> "Series":
        return _reduced(self.context, self._den, {key: -v for key, v in self._terms.items()})

    def __sub__(self, other: "Series" | Scalar) -> "Series":
        if not isinstance(other, (Series, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Series":
        return self.__neg__().__add__(other)

    def __mul__(self, other: "Series" | Scalar) -> "Series":
        if isinstance(other, (int, Fraction)):  # both carry numerator and denominator
            num = other.numerator
            nums = {key: v * num for key, v in self._terms.items()}
            return _reduced(self.context, self._den * other.denominator, nums)
        if not isinstance(other, Series):
            return NotImplemented
        return self.product(other)

    def product(self, other: "Series", magnitude_max: int | None = None) -> "Series":
        """The terms of self * other with magnitude <= magnitude_max, by
        default the context's bound, with no term past it formed."""
        self._check_same_context(other)
        if magnitude_max is not None and not (
                isinstance(magnitude_max, int) and magnitude_max <= self.context.magnitude_max):
            raise ValueError(f"product bound {magnitude_max!r} is not an int <= the context's "
                             f"magnitude_max {self.context.magnitude_max}")
        a, b = (other, self) if self.n_terms > other.n_terms else (self, other)
        return _mul([(a, b)], self.context, magnitude_max)

    def _kernel_operand(self) -> list[_Term]:
        """The terms as :func:`_mul` reads them, built on first use and kept.

        Each term carries its key, the three gradings read from the key's t,
        z and magnitude fields and its numerator, and the terms are sorted
        by key.
        """
        try:
            return self._operand
        except AttributeError:
            width, mask, top = self.context._fields
            terms = [(key, key & mask, key >> width & mask, key >> top, v)
                     for key, v in self._terms.items()]
            terms.sort()  # the keys are distinct, so only they are compared
            self._operand = terms
            return terms

    def __rmul__(self, other: Scalar) -> "Series":
        return self.__mul__(other)

    def __truediv__(self, other: Scalar) -> "Series":
        if not isinstance(other, (int, Fraction)):  # as in __mul__: no float, no string
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division of a series by zero")
        return self.__mul__(Fraction(other.denominator, other.numerator))

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "Series":
        """Partial derivative; the result is truncated to the same context."""
        ctx = self.context
        i = ctx.index(name)
        shift, mask, unit = ctx._fields[0] * i, ctx._fields[1], ctx._unit(i)
        out: dict[int, int] = {}
        for key, v in self._terms.items():
            e = key >> shift & mask
            if e:
                out[key - unit] = v * e
        return _reduced(ctx, self._den, out)

    def substitute(self, images: Mapping[str, "Series"]) -> "Series":
        """Replace each named variable by its image, all at once: the images'
        own variables are not replaced.  Every image needs a zero constant term.

        The terms are grouped on their key bits in the substituted fields.
        With c_e the group of exponent vector e, those exponents set to 0,
        the result is sum_e c_e g^e, one :func:`_mul` call over the pairs
        (g^e, c_e).  g^e is kept by e's key bits, and each is g^(e - v)
        times the image of e's top variable v, so no power is formed twice.
        """
        ctx = self.context
        width, mask, _ = ctx._fields
        power = {0: (0, Series.one(ctx))}  # e's key bits -> (the key of e, g^e)
        sel = 0
        for name, g in images.items():
            self._check_same_context(g)
            if 0 in g._terms:
                raise ValueError("substitute needs an image with zero constant term")
            i = ctx.index(name)
            power[1 << width * i] = ctx._unit(i), g
            sel |= mask << width * i
        groups: dict[int, dict[int, int]] = {}
        for key, v in self._terms.items():
            groups.setdefault(key & sel, {})[key] = v
        pairs = []
        for bits, group in groups.items():
            e, chain = bits, []
            while e not in power:  # down to a known power, one top variable at a time
                low = 1 << (e.bit_length() - 1) // width * width
                chain.append((e, low))
                e -= low
            for e, low in reversed(chain):
                (key, p), (unit, g) = power[e - low], power[low]
                power[e] = key + unit, p * g
            key, p = power[bits]
            if p:
                pairs.append((p, _reduced(ctx, self._den, {k - key: v for k, v in group.items()})))
        return _mul(pairs, ctx)

    # -- truncation ---------------------------------------------------------

    def where(self, pred: Callable[[int, int, int], bool]) -> "Series":
        """The terms whose (t, z, magnitude) satisfy pred, read off the fields
        of each key; no key is decoded."""
        width, mask, top = self.context._fields
        kept = {key: v for key, v in self._terms.items()
                if pred(key & mask, key >> width & mask, key >> top)}
        return _reduced(self.context, self._den, kept)

    def t_marginal(self) -> "Series":
        """Every variable but t set to 1, in the context (t_max, 0, 0), where
        t^k has the key k: the numerators summed by their t field."""
        mask, sums = self.context._fields[1], {}
        for key, v in self._terms.items():
            sums[key & mask] = sums.get(key & mask, 0) + v
        return _reduced(TruncationContext(self.context.t_max, 0, 0), self._den, sums)

    # -- transcendental operations ------------------------------------------

    def _grade_pieces(self) -> tuple[list["Series"], list["Series"]]:
        """The terms split by total grade t + z + magnitude, and each piece
        times its grade.

        The grades run to the sum of the bounds of the variables the terms
        use: products of these terms use no other variable, so exp and log
        can reach no higher grade.
        """
        ctx = self.context
        terms = self._kernel_operand()
        top = (ctx.t_max * any(term[1] for term in terms)
               + ctx.z_max * any(term[2] for term in terms)
               + ctx.magnitude_max * any(term[3] for term in terms))
        pieces: list[dict[int, int]] = [{} for _ in range(top + 1)]
        for key, t, z, mag, v in terms:
            pieces[t + z + mag][key] = v
        weighted = [{key: d * v for key, v in p.items()} for d, p in enumerate(pieces)]
        return ([_reduced(ctx, self._den, p) for p in pieces],
                [_reduced(ctx, self._den, p) for p in weighted])

    def exp(self) -> "Series":
        """exp(f) for f with zero constant term.

        Grade by grade, d g_d = sum_{k=1..d} k f_k g_(d-k), with g_0 = 1.
        """
        if 0 in self._terms:
            raise ValueError("exp needs a series with zero constant term")
        ctx = self.context
        _, kf = self._grade_pieces()
        g = [Series.one(ctx)]
        for d in range(1, len(kf)):
            dg = _mul([(kf[k], g[d - k]) for k in range(1, d + 1)], ctx)
            g.append(_reduced(ctx, dg._den * d, dg._terms))
        return _sum(g)

    def log(self) -> "Series":
        """log(f) for f with constant term 1.

        Grade by grade, d L_d = d f_d - sum_{k=1..d-1} k L_k f_(d-k), where
        d f_d enters the product loop as the pair (1, d f_d).
        """
        if self._terms.get(0) != self._den:
            raise ValueError("log needs a series with constant term 1")
        ctx = self.context
        f, kf = self._grade_pieces()
        one, zero = Series.one(ctx), Series.zero(ctx)
        L, neg_kL = [zero], [zero]
        for d in range(1, len(f)):
            dL = _mul([(one, kf[d])] + [(neg_kL[k], f[d - k]) for k in range(1, d)], ctx)
            L.append(_reduced(ctx, dL._den * d, dL._terms))
            neg_kL.append(-dL)  # -k L_k, so the product loop only adds
        return _sum(L)

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
        out: dict[int, int] = {}
        for key, v in self._terms.items():
            if not key & mask:
                raise ValueError("series is not divisible by t")
            out[key - 1] = v  # t's unit
        return _reduced(self.context, self._den, out)


_Term = tuple[int, int, int, int, int]  # key, t, z, magnitude, numerator


def exponential_formula(
    ctx: TruncationContext, weights: Mapping[Monomial, Sequence[Scalar]]
) -> Series:
    """log(sum_{k <= t_max} t^k/k! exp(w_k)) with w_k = sum_m weights[m][k] m.

    Each weight monomial m is free of t and has grade g(m) = z-degree +
    magnitude >= 1; its column holds c_m(0) .. c_m(t_max).  A monomial
    past the bounds is dropped.  The sum S is built grade by grade, with
    S_0 = sum_k t^k/k! and d S_d = sum_m g(m) m (c_m S)_(d-g(m)), where
    c_m S scales each t^k term of S by c_m(k): the Euler operator in z and
    the u's applied to every exp(w_k) at once.
    """
    cols = []
    for m, column in weights.items():
        admitted = ctx.admits(m)  # refuses a malformed monomial, in bounds or not
        if m[0]:
            raise ValueError(f"weight monomial {m} has a t exponent")
        grade = m[1] + m.magnitude
        if not grade:
            raise ValueError("the unit monomial, of grade 0, cannot be a weight monomial")
        if len(column) != ctx.t_max + 1:
            raise ValueError(f"weight column of length {len(column)}, "
                             f"not t_max + 1 = {ctx.t_max + 1}")
        column = [grade * exact(c) for c in column]
        if admitted:
            cols.append((grade, ctx._key(m), m[1], m.magnitude, column))
    # every column over one denominator W
    W = lcm(*(c.denominator for *_, column in cols for c in column))
    cols = [(*col, [c.numerator * (W // c.denominator) for c in column]) for *col, column in cols]
    z_max, mag_max = ctx.z_max, ctx.magnitude_max
    top = z_max * any(col[2] for col in cols) + mag_max * any(col[3] for col in cols)
    f = factorial(ctx.t_max)  # S_0 = sum_k t^k/k!, where t^k has the key k
    pieces = [_reduced(ctx, f, {k: f // factorial(k) for k in range(ctx.t_max + 1)})]
    for d in range(1, top + 1):
        parts = [(col, pieces[d - col[0]]) for col in cols if col[0] <= d and pieces[d - col[0]]]
        den = lcm(*(p._den for _, p in parts))
        sums: dict[int, int] = {}
        get = sums.get
        for (_, km, zm, magm, column), p in parts:
            scale = den // p._den
            scaled = [scale * c for c in column]
            mag_room, z_room = mag_max - magm, z_max - zm
            for key, t, z, mag, v in p._kernel_operand():
                if mag > mag_room:
                    break  # the terms are sorted by magnitude
                if z <= z_room and scaled[t]:
                    key += km
                    sums[key] = get(key, 0) + scaled[t] * v
        pieces.append(_reduced(ctx, den * W * d, sums))
    return _sum(pieces).log()


def _reduced(ctx: TruncationContext, den: int, nums: Mapping[int, int]) -> Series:
    """The series with numerators nums over den, in the store's one form: no
    zero numerator, and den and the numerators divided by their gcd.

    In this form den is the lcm of the terms' own reduced denominators, so
    the numerators are a product operand as they stand, with no rescaling.
    """
    nums = {key: v for key, v in nums.items() if v}
    g = gcd(den, *nums.values())
    out = Series.__new__(Series)
    out.context, out._den = ctx, den // g
    out._terms = {key: v // g for key, v in nums.items()} if g > 1 else nums
    return out


def _sum(parts: Sequence[Series]) -> Series:
    """The sum of series of one context, each scaled to the lcm of their
    denominators."""
    den = lcm(*(p._den for p in parts))
    sums: dict[int, int] = {}
    get = sums.get
    for p in parts:
        scale = den // p._den
        for key, v in p._terms.items():
            sums[key] = get(key, 0) + v * scale
    return _reduced(parts[0].context, den, sums)


def _mul(
    pairs: Iterable[tuple[Series, Series]], ctx: TruncationContext, bound: int | None = None
) -> Series:
    """The sum of left * right over the pairs, cut to magnitude <= bound.

    This is the one term-pair loop that ``*``, exp, log, substitution and
    revert multiply through.  Pairs with an empty side are dropped before
    it starts.  Each pair's numerators are scaled to the lcm D of the
    pairs' denominator products, so the loop sums ints over D.  The
    gradings are additive, so the bound checks need no monomial, and a
    pair inside the bounds is keyed by the sum of the two keys.  The bound
    b, at most the context's magnitude_max and by default that, cuts both
    walks, since both operands are sorted by magnitude: the left one stops
    at its first term past b, and the right one at its first term past b
    less the left term's magnitude.
    """
    pairs = [(a, b) for a, b in pairs if a and b]
    if not pairs:
        return Series.zero(ctx)
    t_max, z_max = ctx.t_max, ctx.z_max
    mag_max = ctx.magnitude_max if bound is None else bound
    den = lcm(*(a._den * b._den for a, b in pairs))
    sums: dict[int, int] = {}
    get = sums.get
    for a, b in pairs:
        scale = den // (a._den * b._den)
        right_terms = b._kernel_operand()
        for ka, ta, za, maga, na in a._kernel_operand():
            if maga > mag_max:
                break  # the left terms are sorted by magnitude too
            na *= scale
            mag_room, t_room, z_room = mag_max - maga, t_max - ta, z_max - za
            for kb, tb, zb, magb, nb in right_terms:
                if magb > mag_room:
                    break  # the right terms are sorted by magnitude
                if tb > t_room or zb > z_room:
                    continue
                k = ka + kb
                sums[k] = get(k, 0) + na * nb
    return _reduced(ctx, den, sums)


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
    a._check_same_context(b)
    ta, tb, da, db = a._terms, b._terms, a._den, b._den
    decode = a.context._monomial
    diffs = (k for k in ta.keys() | tb.keys() if ta.get(k, 0) * db != tb.get(k, 0) * da)
    return min(((decode(k), Fraction(ta.get(k, 0), da), Fraction(tb.get(k, 0), db))
                for k in diffs), default=None)


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
    ctx.require(ctx.monomial(t=1))
    if not f._terms.get(1):  # the key of t
        raise ValueError("reversion needs a nonzero linear t-coefficient")
    mask = ctx._fields[1]
    f_k: list[dict[int, int]] = [{} for _ in range(ctx.t_max + 1)]  # [t^k] f, t-free
    for key, v in f._terms.items():
        k = key & mask
        if not k:
            raise ValueError("reversion needs every term divisible by t")
        f_k[k][key - k] = v
    inv = _reduced(ctx, f._den, f_k[1]).inverse()
    top = max(k for k, c in enumerate(f_k) if c)
    # h_k = -f_k / f_1, so g_n = sum_{k>=2} h_k [t^n] g^k
    h = {k: -(inv * _reduced(ctx, f._den, f_k[k])) for k in range(2, top + 1)}
    zero = Series.zero(ctx)
    powers = [[zero] * (ctx.t_max + 1) for _ in range(top + 1)]  # powers[k][n] = [t^n] g^k
    g = powers[1]
    g[1] = Series.variable(ctx, "t") * inv
    for n in range(2, ctx.t_max + 1):
        for k in range(2, min(n, top) + 1):
            prev = powers[k - 1]
            powers[k][n] = _mul([(g[i], prev[n - i]) for i in range(1, n)], ctx)
        g[n] = _mul([(h[k], powers[k][n]) for k in range(2, top + 1)], ctx)
    return _sum(g)


def phi_maps(phi: Series) -> tuple[Series, Series]:
    """(phi + w phi', w - w^2 phi') for phi in the t-slot, with w = t.

    These are the two sides of the reversion pair y = w exp(-phi - w phi')
    and y psi(y) = w - w^2 phi'.  Under :func:`hypertrees.gf.edge_symbol_phi`
    they are sum_j u_{j+1} w^j/j! and w - sum_j (j-1) u_j w^j/j!.
    """
    w = Series.variable(phi.context, "t")
    w_dphi = w * phi.derivative("t")
    return phi + w_dphi, w - w * w_dphi
