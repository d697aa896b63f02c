"""Series core: exact arithmetic, transcendental maps, reversion.

Frozen reference values come with an independent route next to them:
reversions are re-checked by composing back, exp by its defining sum,
the two reversion algorithms are held against each other, the integer
product kernel and its key shift for a one-term factor against a
Fraction per term pair, the one-pass store and first_difference against
a Fraction per term, and the graded exp, log
and inverse and the one-call substitution against their full power-sum
twins, the key arithmetic of derivative and divided_by_t
against exponent tuples sliced term by term, and the field reads of
where, compute_T and the t-marginal against a monomial decoded per
term, and the grade recurrence of the exponential formula against one
exp per k.
"""

import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import factorial, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from hypertrees.series import (
    ContextMismatchError,
    Monomial,
    OutOfContextError,
    Series,
    TruncationContext,
    first_difference,
    revert,
)
from hypertrees import series
from hypertrees.closed import count_by_profile, rooted_count_by_edges, table_terms
from hypertrees.funceq import PhiCoefficients
from hypertrees.gf import compute_T, solve_R_fixed_point
from hypertrees.hypergraphs import EdgeProfile, Hypergraph
from oracles import (
    compute_T_by_terms,
    derivative_by_slicing,
    divided_by_t_by_slicing,
    exp_by_power_sum,
    exponential_formula_by_exps,
    first_difference_by_terms,
    grade_bound,
    into_context_by_monomials,
    inverse_by_power_sum,
    lagrange_revert,
    log_by_power_sum,
    mul_by_term_pairs,
    power,
    product_by_where,
    reduced_by_fractions,
    revert_by_iteration,
    substitute_by_monomials,
    substitute_by_power_sum,
    t_coefficient,
    t_marginal_by_terms,
    where_by_terms,
)

CTX = TruncationContext(t_max=6, magnitude_max=5)
T = Series.variable(CTX, "t")
U2 = Series.variable(CTX, "u2")
U3 = Series.variable(CTX, "u3")


def mono(t=0, z=0, **u):
    return CTX.monomial(t=t, z=z, u={int(k[1:]): v for k, v in u.items()})


# -- monomials and contexts ---------------------------------------------------


def test_magnitude_grading():
    assert mono(u2=3).magnitude == 3
    assert mono(u3=2).magnitude == 4
    assert mono(t=2, u2=1, u4=1).magnitude == 4
    assert mono(t=5).magnitude == 0


def test_monomial_order_is_canonical():
    ms = [mono(t=1), mono(), mono(u2=1), mono(t=1, u2=1)]
    assert sorted(ms) == [mono(), mono(u2=1), mono(t=1), mono(t=1, u2=1)]


def test_context_admits_and_requires():
    assert CTX.admits(mono(t=6, u2=5))
    assert not CTX.admits(mono(t=7))
    assert not CTX.admits(mono(u3=3))  # magnitude 6 > 5
    with pytest.raises(OutOfContextError):
        CTX.require(mono(t=7))


def test_admits_refuses_another_width():
    # t, z, u2, u3: a short monomial would be read as in bounds, a long one past them
    ctx = TruncationContext(t_max=3, z_max=0, magnitude_max=2)
    for m in ((1, 0), (1, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="does not match the context's edge variables"):
            ctx.admits(Monomial(m))


def test_alphabet_rejects_unknown_variables():
    with pytest.raises(ValueError):
        Series.variable(CTX, "u9")
    with pytest.raises(ValueError):
        Series.variable(CTX, "u1")
    with pytest.raises(ValueError):
        CTX.monomial(u={1: 1})


def test_bound_zero_truncates_its_variable():
    # z_max = 0 keeps z in the variable set but truncates it, like t at t_max = 0
    assert CTX.z_max == 0
    assert not Series.variable(CTX, "z")
    t_free = TruncationContext(t_max=0, z_max=2, magnitude_max=0)
    assert not Series.variable(t_free, "t")
    assert Series.variable(t_free, "z")


def test_magnitude_has_no_width_cap():
    ctx = TruncationContext(t_max=1, magnitude_max=5000)

    def literal(m):
        return sum((i - 1) * e for i, e in enumerate(m) if i >= 2)

    m = ctx.monomial(t=1, u={2: 3, 2500: 1, 5000: 1})
    assert m.magnitude == literal(m) == 3 + 2499 + 4999
    u = {i: Series.variable(ctx, f"u{i}") for i in (2, 3, 2500, 4999, 5000)}
    f = u[5000] + u[2500] * Series.variable(ctx, "t")
    g = u[2] + u[3] + u[4999]
    product = f * g
    assert product == mul_by_term_pairs(f, g)
    # u5000 * u2 sits on the bound 5000; u5000 * u3, u5000 * u4999 and
    # t u2500 * u4999 lie past it
    assert product.n_terms == 3
    assert product.coefficient(ctx.monomial(u={2: 1, 5000: 1})) == 1
    assert all(m.magnitude == literal(m) <= 5000 for m, _ in product.terms())


def test_bound_past_the_widest_key_field_is_refused():
    # eight-byte key fields hold 2**64 - 1: an exponent there still multiplies exactly
    ctx = TruncationContext(t_max=2**64 - 1, magnitude_max=0)
    a = Series(ctx, {ctx.monomial(t=2**63): 1})
    b = Series(ctx, {ctx.monomial(t=2**63 - 1): 3})
    assert (a * b).terms() == [(ctx.monomial(t=2**64 - 1), 3)]
    assert not a * a
    for bound in ("t_max", "z_max", "magnitude_max"):
        with pytest.raises(ValueError, match="64-bit exponent field"):
            TruncationContext(**{bound: 2**64})


@pytest.mark.parametrize("position", [0, 1, 2, 4])
def test_negative_exponent_is_refused(position):
    # a negative exponent would pass the upper-bound checks and break the key packing
    degs = [0] * len(CTX.names)
    degs[position] = -1
    bad = Monomial(degs)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        Series(CTX, {bad: 1})
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        Series.one(CTX).coefficient(bad)


@pytest.mark.parametrize("degs", [(1.5, 0, 0, 0), (1.0, 0, 0, 0), (0, 0, 0.0, 1)], ids=str)
def test_non_int_exponent_is_refused(degs):
    # 1.0 would key as t's 1, and 1.5 as no key at all, failing inside the packing
    ctx = TruncationContext(t_max=3, z_max=0, magnitude_max=2)
    bad = Monomial(degs)
    message = re.escape(f"monomial {bad!r} has a non-int exponent")
    with pytest.raises(ValueError, match=message):
        Series(ctx, {bad: 1})
    with pytest.raises(ValueError, match=message):
        Series.variable(ctx, "t").coefficient(bad)
    with pytest.raises(ValueError, match=message):
        ctx.monomial(t=degs[0], u={2: degs[2], 3: degs[3]})


def test_coefficient_refuses_a_key_alias():
    # t^-1 z has the key of t^3 in a 2-bit layout: it would read the t^3 coefficient
    ctx = TruncationContext(t_max=3, z_max=3, magnitude_max=2)
    f = 1 + 5 * power(Series.variable(ctx, "t"), 3)
    with pytest.raises(ValueError, match="negative exponent"):
        f.coefficient(Monomial((-1, 1, 0, 0)))


def test_mixing_contexts_raises():
    other = TruncationContext(t_max=6, z_max=1, magnitude_max=5)
    with pytest.raises(ContextMismatchError):
        T + Series.variable(other, "t")


_OTHER_T = Series.variable(TruncationContext(t_max=6, z_max=1, magnitude_max=5), "t")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TruncationContext(magnitude_max=-1), ValueError, "must be non-negative"),
        (lambda: TruncationContext(2.5, 0, 2), TypeError, "bounds must be ints"),
        (lambda: TruncationContext(z_max=2.0), TypeError, "bounds must be ints"),
        (lambda: TruncationContext(magnitude_max="2"), TypeError, "bounds must be ints"),
        (lambda: TruncationContext(t_max=Decimal("2")), TypeError, "bounds must be ints"),
        (lambda: CTX.monomial(t=-1), ValueError, "negative exponent"),
        (lambda: CTX.monomial(z=-1), ValueError, "negative exponent"),
        (lambda: CTX.monomial(u={2: -1}), ValueError, "negative exponent"),
        (lambda: CTX.monomial(t=1.0), ValueError, "non-int exponent"),
        (lambda: CTX.monomial(u={2: Fraction(1)}), ValueError, "non-int exponent"),
        (lambda: CTX.monomial(u={2.0: 1}), ValueError, "no edge variable u2.0"),
        (lambda: CTX.monomial(u={"2": 1}), ValueError, "no edge variable u'2'"),
        (lambda: Series(CTX, {(1,) + (0,) * 5: 1}), TypeError, "expected Monomial key, got tuple"),
        (lambda: Series(CTX, {Monomial((1, 0)): 1}), ValueError, "match the context's edge"),
        (lambda: first_difference(T, _OTHER_T), ContextMismatchError, "different truncation"),
        (lambda: count_by_profile(0, EdgeProfile()), ValueError, "need n >= 1"),
        (lambda: rooted_count_by_edges(0, 0), ValueError, "need n >= 1"),
        (lambda: rooted_count_by_edges(4.0, 2), TypeError, "need int n and k"),
        (lambda: table_terms(0), ValueError, "need n >= 1"),
        (lambda: Hypergraph(-1, ()), ValueError, "need n >= 0"),
        (lambda: PhiCoefficients({(0, 0): 1, (1, 0): 1}).phi_series(CTX), ValueError,
         "phi needs a zero constant term"),
        (lambda: PhiCoefficients({(1.5, 0): 1}), TypeError, "indices must be ints"),
    ],
    ids=["negative-bound", "float-bound", "integral-float-bound", "str-bound", "decimal-bound",
         "negative-t", "negative-z", "negative-u", "float-t", "fraction-u", "float-edge",
         "str-edge", "key-type", "key-width",
         "first-difference-contexts", "count-n0", "rooted-count-n0",
         "rooted-count-float", "table-n0", "hypergraph-n", "phi-series-c00", "phi-float-index"],
)
def test_refusals(call, error, message):
    with pytest.raises(error, match=message) as refused:
        call()
    assert "\n" not in str(refused.value)


def test_reprs():
    # what pytest prints when an assert on series or Phi arrays fails
    assert repr(Series.zero(CTX)) == "Series(0)"
    f = Series(CTX, {mono(t=1, u2=2): Fraction(3, 2), mono(u3=1): 1})
    assert repr(f) == "Series(u3 + 3/2*t*u2^2)"
    assert repr(power(1 + T, 4)) == "Series(1 + 4*t + 6*t^2 + 4*t^3 + ... (5 terms))"
    phi = PhiCoefficients({(2, 0): 3, (0, 1): Fraction(1, 2)})
    assert repr(phi) == "PhiCoefficients({(0,1): 1/2, (2,0): 3})"


# -- ring arithmetic ----------------------------------------------------------


def test_basic_ring_identities():
    assert (1 + T) * (1 - T) == 1 - power(T, 2)
    assert power(T + U2, 2) == power(T, 2) + 2 * T * U2 + power(U2, 2)
    assert T - T == Series.zero(CTX)
    assert (T * 3) / 3 == T


def test_scalars_are_exact_on_both_sides():
    # int and Fraction only, as for *: a float or a string never enters exact arithmetic
    assert T / Fraction(2, 3) == T * Fraction(3, 2)
    assert T / -4 == T * Fraction(-1, 4)
    # the builders take the same scalars, and refuse the same others where they enter
    m, w, past = mono(t=1), mono(u2=1), mono(u3=3)
    assert Series(CTX, {m: 2}) == Series(CTX, [(m, Fraction(4, 2))]) == 2 * T
    for bad in (0.1, 2.0, "1/2", Decimal("0.5")):
        # a weight past the bounds is dropped, but its column is refused all the same
        for build in (lambda: Series(CTX, {m: bad}), lambda: Series(CTX, [(m, bad)]),
                      lambda: series.exponential_formula(CTX, {w: [bad] * (CTX.t_max + 1)}),
                      lambda: series.exponential_formula(CTX, {past: [bad] * (CTX.t_max + 1)})):
            with pytest.raises(TypeError, match="is not an int or a Fraction"):
                build()
        with pytest.raises(TypeError):
            T / bad
        with pytest.raises(TypeError):
            T * bad
        with pytest.raises(TypeError):
            T + bad
        with pytest.raises(TypeError):
            T - bad
        assert T.__eq__(bad) is NotImplemented
    # a scalar compares as the constant series, as it adds
    assert Series.zero(CTX) == 0
    assert Series.one(CTX) == 1 and 1 == Series.one(CTX)
    assert Series.one(CTX) + T / 2 != Fraction(1)
    assert Series.variable(CTX, "t") != 0
    assert (Series.one(CTX) == 0.5) is False
    with pytest.raises(ZeroDivisionError):
        T / Fraction(0)


def test_multiplication_truncates():
    assert power(T, 3) * power(T, 3)
    assert not power(T, 4) * power(T, 3)
    assert not power(U2, 3) * power(U2, 3)  # magnitude 6 > 5


def test_coefficient_in_and_out_of_context():
    f = power(1 + T, 6)
    assert f.coefficient(mono(t=2)) == 15
    assert f.coefficient(mono(t=6)) == 1
    with pytest.raises(OutOfContextError):
        f.coefficient(mono(t=7))
    # a monomial of another width would read a neighbouring term's key
    for m in ((2, 0), mono(t=2) + (0,)):
        with pytest.raises(ValueError, match="does not match the context's edge variables"):
            f.coefficient(Monomial(m))


def test_t_coefficient_slices():
    f = T * U2 + T * U3 + power(T, 2)
    slice1 = t_coefficient(f, 1)
    assert slice1 == U2 + U3
    assert not t_coefficient(f, 5)


def test_derivative_basics():
    f = power(T, 3) * U2
    assert f.derivative("t") == 3 * power(T, 2) * U2
    assert f.derivative("u2") == power(T, 3)
    assert not f.derivative("u3")


def test_power_requires_non_negative_int():
    with pytest.raises(ValueError):
        power(T, -1)


# -- transcendental maps ------------------------------------------------------


def test_exp_matches_defining_sum():
    f = T.exp()
    for k in range(CTX.t_max + 1):
        assert f.coefficient(mono(t=k)) == Fraction(1, factorial(k))


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError, match="exp needs a series with zero constant term"):
        (1 + T).exp()


def test_log_of_geometric_series():
    geom = (1 - T).inverse()
    for k in range(CTX.t_max + 1):
        assert geom.coefficient(mono(t=k)) == 1
    logg = geom.log()
    for k in range(1, CTX.t_max + 1):
        assert logg.coefficient(mono(t=k)) == Fraction(1, k)


def test_log_requires_unit_constant():
    with pytest.raises(ValueError):
        T.log()
    with pytest.raises(ValueError):
        (2 + T).log()


def test_inverse_multiplies_to_one():
    f = 1 + T + U2 + T * U3
    assert f * f.inverse() == Series.one(CTX)
    with pytest.raises(ValueError):
        T.inverse()


def test_divided_by_t():
    f = T * U2 + power(T, 2)
    assert f.divided_by_t() == U2 + T
    with pytest.raises(ValueError):
        (U2 + T).divided_by_t()


def test_substitute_zero_series_kills_variable():
    f = 1 + U2 + T * U2
    g = f.substitute({"u2": Series.zero(CTX)})
    assert g == Series.one(CTX)


def test_substitute_rejects_constant_term():
    with pytest.raises(ValueError, match="substitute needs an image with zero constant term"):
        T.substitute({"t": 1 + T})


# -- reversion ----------------------------------------------------------------


def test_revert_catalan():
    # g with g - g^2 = y counts binary plane trees: 1, 1, 2, 5, 14, 42
    f = T - power(T, 2)
    g = revert(f)
    assert f.substitute({"t": g}) == T
    got = [g.coefficient(mono(t=k)) for k in range(1, 7)]
    assert got == [1, 1, 2, 5, 14, 42]
    assert lagrange_revert(f) == g


def test_revert_rooted_labeled_trees():
    # inverse of t e^{-t} has [t^n] = n^{n-1}/n!
    ctx = TruncationContext(t_max=6, magnitude_max=0)
    t = Series.variable(ctx, "t")
    g = revert(t * (-t).exp())
    for n in range(1, 7):
        expected = Fraction(n ** (n - 1), factorial(n))
        assert g.coefficient(ctx.monomial(t=n)) == expected
    assert lagrange_revert(t * (-t).exp()) == g


def test_revert_with_symbolic_coefficients():
    f = T * (-(U2 * T)).exp()
    g = revert(f)
    assert f.substitute({"t": g}) == T


def test_revert_rejects_bad_input():
    with pytest.raises(ValueError):
        revert(power(T, 2))
    with pytest.raises(ValueError):
        revert(T + U2)


# -- property tests -----------------------------------------------------------

PCTX = TruncationContext(t_max=4, magnitude_max=4)

_ADMISSIBLE = [
    Monomial((t, 0, a, b, c, d))
    for t in range(PCTX.t_max + 1)
    for a in range(PCTX.magnitude_max + 1)
    for b in range(PCTX.magnitude_max // 2 + 1)
    for c in range(PCTX.magnitude_max // 3 + 1)
    for d in range(PCTX.magnitude_max // 4 + 1)
    if a + 2 * b + 3 * c + 4 * d <= PCTX.magnitude_max
]

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
series_terms = st.dictionaries(st.sampled_from(_ADMISSIBLE), coeffs, max_size=6)


def build(terms) -> Series:
    return Series(PCTX, terms)


def assert_canonical(*results: Series) -> None:
    # every result is stored in the one form that construction gives: in
    # lowest terms over one denominator, with no zero numerator
    for r in results:
        assert Series(r.context, r.terms()) == r


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms, series_terms)
def test_ring_axioms(a, b, c):
    f, g, h = build(a), build(b), build(c)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms)
def test_product_rule_with_one_order_headroom(a, b):
    f, g = build(a), build(b)
    lhs = (f * g).derivative("t")
    rhs = f.derivative("t") * g + f * g.derivative("t")
    # the t_max layer of a derivative needs t_max + 1 of the argument
    below_top = lambda t, z, magnitude: t < PCTX.t_max
    assert lhs.where(below_top) == rhs.where(below_top)
    lhs_u = (f * g).derivative("u2")
    rhs_u = f.derivative("u2") * g + f * g.derivative("u2")
    bound = PCTX.magnitude_max - 1
    within = lambda t, z, magnitude: magnitude <= bound
    assert lhs_u.where(within) == rhs_u.where(within)


@settings(max_examples=60, deadline=None)
@given(series_terms)
def test_exp_log_round_trip(a):
    f = build(a)
    f = f - f.constant_term
    assert f.exp().log() == f


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms)
def test_exp_is_a_homomorphism(a, b):
    f, g = build(a), build(b)
    f = f - f.constant_term
    g = g - g.constant_term
    assert (f + g).exp() == f.exp() * g.exp()


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms)
def test_truncation_coherence(a, b):
    small = TruncationContext(t_max=2, magnitude_max=2)  # u2, u3 of PCTX's u2 .. u5

    def cut(f):
        return into_context_by_monomials(f, small)

    f, g = build(a), build(b)
    assert cut(f * g) == cut(f) * cut(g)
    assert cut(f + g) == cut(f) + cut(g)
    f0 = f - f.constant_term
    assert cut(f0.exp()) == cut(f0).exp()
    assert cut((1 + f0).log()) == cut(1 + f0).log()
    assert cut((2 + f0).inverse()) == cut(2 + f0).inverse()


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms, series_terms)
def test_substitution_is_a_homomorphism_on_dominating_images(a, b, w):
    # u2 -> u2 * (1 + w) never lowers any grading, so truncation commutes
    f, g = build(a), build(b)
    image = Series.variable(PCTX, "u2") * (1 + build(w))
    lhs = (f * g).substitute({"u2": image})
    rhs = f.substitute({"u2": image}) * g.substitute({"u2": image})
    assert lhs == rhs
    sub = {"u2": image}
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)


@settings(max_examples=40, deadline=None)
@given(series_terms, st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
def test_reversion_routes_agree(a, c1):
    t = Series.variable(PCTX, "t")
    f = c1 * t + t * t * build(a)
    g = revert(f)
    assert f.substitute({"t": g}) == t
    assert lagrange_revert(f) == g


# -- graded recurrences against their power-sum twins ---------------------------

_TWIN_CONTEXTS = [
    TruncationContext(t_max=4, z_max=4, magnitude_max=0),  # psi's shape
    TruncationContext(t_max=3, z_max=0, magnitude_max=3),
    TruncationContext(t_max=2, z_max=2, magnitude_max=2),
    TruncationContext(t_max=0, z_max=0, magnitude_max=0),  # grade bound 0
]


def _admissible(ctx):
    ranges = [range(ctx.t_max + 1), range(ctx.z_max + 1)]
    ranges += [range(ctx.magnitude_max // (i - 1) + 1) for i in range(2, ctx.max_edge_size + 1)]
    return [m for m in map(Monomial, product(*ranges)) if ctx.admits(m)]


# operands over every variable, no t, z alone and no edge variable: exp and log
# stop their grades at the bounds of the variables the operand uses
_VARIABLE_SUBSETS = [
    lambda m: True,
    lambda m: not m[0],
    lambda m: not m[0] and not any(m[2:]),
    lambda m: not any(m[2:]),
]


def _twin_series(ctx):
    def over(uses):
        pool = [m for m in _admissible(ctx) if uses(m)]
        return st.dictionaries(st.sampled_from(pool), coeffs, max_size=8)

    terms = st.sampled_from(_VARIABLE_SUBSETS).flatmap(over)
    return terms.map(lambda t: Series(ctx, t))


twin_cases = st.sampled_from(_TWIN_CONTEXTS).flatmap(_twin_series)
units = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@settings(max_examples=80, deadline=None)
@given(twin_cases, units)
def test_graded_maps_equal_power_sums(f, c):
    f0 = f - f.constant_term
    exp, log, inverse = f0.exp(), (1 + f0).log(), (c + f0).inverse()
    assert exp == exp_by_power_sum(f0)
    assert log == log_by_power_sum(1 + f0)
    assert inverse == inverse_by_power_sum(c + f0)
    assert_canonical(f0, exp, log, inverse, f * c, f / c)


# -- one-call substitution against its power-sum twin ----------------------------

_SUBSTITUTION_CONTEXTS = [
    TruncationContext(t_max=3, z_max=2, magnitude_max=3),
    TruncationContext(t_max=2, z_max=3, magnitude_max=2),
]


def _substitution_case(ctx):
    pool = _admissible(ctx)
    nonconstant = [m for m in pool if any(m)]
    # an image of these monomials alone has its square past the bounds
    early = [m for m in nonconstant if not ctx.admits(Monomial(2 * e for e in m))]
    images = st.one_of(
        st.dictionaries(st.sampled_from(nonconstant), coeffs, max_size=4),
        st.dictionaries(st.sampled_from(early), coeffs, min_size=1, max_size=3),
    )
    f = st.dictionaries(st.sampled_from(pool), coeffs, max_size=10)
    variable = st.sampled_from(range(len(ctx.names)))
    return st.tuples(st.just(ctx), variable, st.booleans(), f, images)


substitution_cases = st.sampled_from(_SUBSTITUTION_CONTEXTS).flatmap(_substitution_case)


@settings(max_examples=80, deadline=None)
@given(substitution_cases)
def test_substitute_equals_power_sum_twin(case):
    # the other variables ride along in each exponent group: series
    # coefficients with t, z and u terms
    ctx, i, unused, f_terms, g_terms = case
    if unused:
        f_terms = {m: c for m, c in f_terms.items() if not m[i]}
    f, g = Series(ctx, f_terms), Series(ctx, g_terms)
    name = ctx.names[i]
    substituted = f.substitute({name: g})
    assert substituted == substitute_by_power_sum(f, name, g)
    assert_canonical(substituted)


@st.composite
def mapping_substitution_cases(draw):
    # any set of variables, t and z among them; an image may be zero and may carry
    # variables, substituted or not
    ctx = draw(st.sampled_from(_SUBSTITUTION_CONTEXTS))
    pool = _admissible(ctx)
    nonconstant = [m for m in pool if any(m)]
    # images of grade 1 keep their products of two or three inside the bounds
    low = [m for m in nonconstant if m[0] + m[1] + m.magnitude == 1]
    image = st.one_of(st.dictionaries(st.sampled_from(nonconstant), coeffs, max_size=4),
                      st.dictionaries(st.sampled_from(low), coeffs, max_size=3))
    f = Series(ctx, draw(st.dictionaries(st.sampled_from(pool), coeffs, max_size=10)))
    names = draw(st.lists(st.sampled_from(ctx.names), min_size=1, unique=True))
    return f, {name: Series(ctx, draw(image)) for name in names}


def _chain_without_truncation(f, images):
    """The chain of one-variable substitutions, run where no intermediate is cut.

    Each step truncates what it forms, and an intermediate can pass the bounds
    that the simultaneous result is back inside: with t -> u2 and u3 -> u2,
    t z u3 passes through u2 z u3, one magnitude past (2, 3, 2), on its way to
    z u2^2.  A term of f has at most grade_bound(ctx) units of exponent, and
    each becomes one image monomial inside ctx's bounds, so every intermediate
    fits each bound times grade_bound(ctx) + 1.
    """
    ctx = f.context
    k = grade_bound(ctx) + 1
    wide = TruncationContext(k * ctx.t_max, k * ctx.z_max, k * ctx.magnitude_max)
    chained = into_context_by_monomials(f, wide)
    for name, g in images.items():
        chained = substitute_by_power_sum(chained, name, into_context_by_monomials(g, wide))
    return into_context_by_monomials(chained, ctx)


_PAST_CTX = _SUBSTITUTION_CONTEXTS[1]
_PAST_U2 = Series.variable(_PAST_CTX, "u2")


@settings(max_examples=80, deadline=None)
@given(mapping_substitution_cases())
@example((Series(_PAST_CTX, {Monomial((1, 1, 0, 1)): 1}), {"t": _PAST_U2, "u3": _PAST_U2}))
def test_mapping_substitution_equals_simultaneous_twin(case):
    f, images = case
    substituted = f.substitute(images)
    assert substituted == substitute_by_monomials(f, images)
    assert_canonical(substituted)
    positions = [f.context.index(name) for name in images]
    if not any(m[i] for g in images.values() for m, _ in g.terms() for i in positions):
        assert substituted == _chain_without_truncation(f, images)


_SUB_CTX = TruncationContext(t_max=3, z_max=3, magnitude_max=4)
_t, _z, _u2, _u3, _u4, _ = (Series.variable(_SUB_CTX, name) for name in _SUB_CTX.names)


@pytest.mark.parametrize("images", [
    {"u2": _z + _t * _z, "u4": _z * _z},  # a strict subset of the u's
    {"u2": Series.zero(_SUB_CTX), "u3": _z + _z * _z},  # a zero image
    {"u2": _t * _u4 + _z, "u3": 2 * _u4},  # images that carry u4, which stays
    {"t": _t * (1 + _z), "u2": _z, "u3": _z * _z, "u4": _z * _z * _z},  # the verify shape
], ids=["u-subset", "zero-image", "unsubstituted-variable", "every-variable"])
def test_mapping_substitution_named_shapes(images):
    # every image power is built from a smaller one: u2 u4, u3^2 and u2 u3 z step
    # from one variable to another, or to the same one again
    f = (1 + _t * _u2 + 3 * _t * _t * _u3 - _u2 * _u2 + Fraction(1, 2) * _u2 * _u4
         + _z * _u4 + 5 * _t * _u2 * _u2 * _u2 + 2 * _u3 * _u3 + 7 * _z * _u2 * _u3)
    substituted = f.substitute(images)
    assert substituted == substitute_by_monomials(f, images)
    chained = f
    for name, g in images.items():
        chained = substitute_by_power_sum(chained, name, g)
    assert substituted == chained


def test_mapping_substitution_is_simultaneous():
    # t and z trade places: a chain of two calls would send both to z
    f = _t + 2 * _z + 7 * _t * _z * _z
    assert f.substitute({"t": _z, "z": _t}) == _z + 2 * _t + 7 * _z * _t * _t
    assert f.substitute({"t": _z, "z": _t}) == substitute_by_monomials(f, {"t": _z, "z": _t})
    assert f.substitute({}) == f


# -- key arithmetic against sliced exponent tuples ---------------------------------

@settings(max_examples=80, deadline=None)
@given(substitution_cases)
def test_key_arithmetic_equals_slicing_twins(case):
    ctx, i, _, f_terms, _ = case
    f = Series(ctx, f_terms)
    name = ctx.names[i]
    derivative = f.derivative(name)
    assert derivative == derivative_by_slicing(f, name)
    divisible = Series(ctx, {m: c for m, c in f_terms.items() if m[0]})
    divided = divisible.divided_by_t()
    assert divided == divided_by_t_by_slicing(divisible)
    assert_canonical(derivative, divided)
    if f != divisible:  # a term free of t
        with pytest.raises(ValueError, match="not divisible by t"):
            f.divided_by_t()
        with pytest.raises(ValueError, match="not divisible by t"):
            divided_by_t_by_slicing(f)


# -- the integer product kernel against its term-pair twin -----------------------

_WIDE = TruncationContext(t_max=3, z_max=1, magnitude_max=40)

# the largest bound at the top of a key field (all ones), then one past it (a field
# one bit wider), in t, in z and in the magnitude, the magnitude at 255 and 256 with
# 255 and 256 edge variables; at 1, 7 and 255 a product fills the magnitude field
_FIELD_TOP_CONTEXTS = [
    TruncationContext(t_max=1, z_max=1, magnitude_max=1),
    TruncationContext(t_max=3, z_max=2, magnitude_max=1),
    TruncationContext(t_max=2, z_max=4, magnitude_max=3),
    TruncationContext(t_max=1, z_max=2, magnitude_max=7),
    TruncationContext(t_max=8, z_max=1, magnitude_max=2),
    TruncationContext(t_max=2, z_max=15, magnitude_max=3),
    TruncationContext(t_max=3, z_max=1, magnitude_max=16),
    TruncationContext(t_max=255, z_max=2, magnitude_max=2),
    TruncationContext(t_max=2, z_max=255, magnitude_max=3),
    TruncationContext(t_max=1, z_max=1, magnitude_max=255),
    TruncationContext(t_max=256, z_max=1, magnitude_max=2),
    TruncationContext(t_max=3, z_max=256, magnitude_max=1),
    TruncationContext(t_max=1, z_max=2, magnitude_max=256),
]


def _wide_admissible(ctx):
    edges = [{}] + [{i: 1} for i in range(2, ctx.max_edge_size + 1)]
    edges += [{i: 1, j: 1} for i in range(2, ctx.max_edge_size + 1) for j in range(2, i)]
    edges += [{i: 2} for i in range(2, ctx.max_edge_size + 1)]
    ms = (ctx.monomial(t=t, z=z, u=u)
          for t in range(ctx.t_max + 1) for z in range(ctx.z_max + 1) for u in edges)
    return [m for m in ms if ctx.admits(m)]


def _field_top_admissible(ctx):
    # exponent pairs that sum to each bound b exactly and past it
    def degs(b):
        return sorted({d for d in (0, 1, b // 2, b - b // 2, b - 1, b) if d >= 0})

    M = ctx.max_edge_size
    edges = [{2: d} for d in degs(ctx.magnitude_max)]
    edges += [{i: 1} for i in {3, M // 2 + 1, M - 1, M} if 3 <= i <= M]
    edges += [{2: 1, M - 1: 1}] if M - 1 >= 3 else []
    ms = (ctx.monomial(t=t, z=z, u=u)
          for t in degs(ctx.t_max) for z in degs(ctx.z_max) for u in edges)
    return [m for m in ms if ctx.admits(m)]


# denominators up to 1000, with coprime ones drawn on purpose
kernel_coeffs = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=1000),
    st.sampled_from([Fraction(1, 997), Fraction(-3, 991), Fraction(7, 1000), Fraction(-5, 999)]),
).filter(bool)


_KERNEL_POOLS = {ctx: _admissible(ctx) for ctx in _TWIN_CONTEXTS}
_KERNEL_POOLS[_WIDE] = _wide_admissible(_WIDE)
_KERNEL_POOLS.update((ctx, _field_top_admissible(ctx)) for ctx in _FIELD_TOP_CONTEXTS)


def _one_term_monomials(ctx):
    # the unit, a term at t_max, one at z_max, one at the magnitude bound (the top
    # of the magnitude field in _FIELD_TOP_CONTEXTS), one with every field at its
    # bound, and any term of the pool
    M = ctx.max_edge_size
    top_edge = {M: 1} if M >= 2 else {}
    tops = [ctx.monomial(), ctx.monomial(t=ctx.t_max), ctx.monomial(z=ctx.z_max),
            ctx.monomial(u=top_edge), ctx.monomial(t=ctx.t_max, z=ctx.z_max, u=top_edge)]
    if M >= 2:
        tops.append(ctx.monomial(u={2: ctx.magnitude_max}))
    return tops + _KERNEL_POOLS[ctx]


# a one-term coefficient: negative, Fraction and the numerator 1 among them
one_term_coeffs = st.one_of(kernel_coeffs, st.sampled_from([1, -1, 2, Fraction(-7, 3)]))


def _kernel_triples(ctx):
    terms = st.lists(st.tuples(st.sampled_from(_KERNEL_POOLS[ctx]), kernel_coeffs), max_size=10)
    one_term = st.tuples(st.sampled_from(_one_term_monomials(ctx)), one_term_coeffs)
    return st.tuples(st.just(ctx), terms, terms, terms, one_term)


kernel_cases = st.sampled_from(list(_KERNEL_POOLS)).flatmap(_kernel_triples)


@settings(max_examples=80, deadline=None)
@given(kernel_cases, st.randoms(use_true_random=False))
def test_product_kernel_equals_term_pairs(case, rnd):
    ctx, a, b, c, one = case
    f, g, h, o = Series(ctx, a), Series(ctx, b), Series(ctx, c), Series(ctx, [one])
    products = [
        (f, g),
        (f, g + h),
        (f + g, f - g),  # the cross terms f*g and -g*f cancel inside one product
        (g - h, h - g),
        # a one-term factor on either side, which shifts the other factor's keys
        (o, f),
        (g + h, o),
        (o, o),
    ]
    for x, y in products:
        xy = x * y
        assert xy == mul_by_term_pairs(x, y)
        assert all(type(v) is Fraction and v for _, v in xy.terms())
        assert_canonical(x, y, xy)
    assert f * (g + h) - f * h == f * g
    assert (f + g) * (f - g) == f * f - g * g
    rnd.shuffle(a)
    rnd.shuffle(b)
    assert Series(ctx, a) * Series(ctx, b) == f * g


@settings(max_examples=80, deadline=None)
@given(kernel_cases)
def test_bounded_product_equals_cut_full_product(case):
    ctx, a, b, _, one = case
    f, g, o = Series(ctx, a), Series(ctx, b), Series(ctx, [one])
    # o on either side, at every bound: those below o's own magnitude leave nothing
    for x, y in ((f, g), (o, f), (g, o)):
        for bound in range(ctx.magnitude_max + 1):
            cut = x.product(y, magnitude_max=bound)
            assert cut == product_by_where(x, y, bound)
            assert_canonical(cut)
        assert x.product(y) == x * y
        assert not x.product(y, magnitude_max=-1)


@pytest.mark.parametrize("bound", [CTX.magnitude_max + 1, 2.0, "2"], ids=repr)
def test_bounded_product_refuses_a_bound_past_the_context(bound):
    with pytest.raises(ValueError, match="product bound") as refused:
        T.product(U2, magnitude_max=bound)
    assert "\n" not in str(refused.value)


# -- the one-pass store against a Fraction per term --------------------------------

_STORE_CTX = TruncationContext(t_max=3, z_max=2, magnitude_max=3)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.sampled_from(_admissible(_STORE_CTX)), st.integers(-40, 40), max_size=8),
       st.one_of(st.just(1), st.integers(1, 60)), st.sampled_from([1, 2, 3, 6, 35]), st.booleans())
def test_reduced_store_equals_fraction_per_term(nums, den, factor, all_zero):
    # zeros among the numerators or all of them, a common factor > 1 and den 1
    nums = {m: 0 if all_zero else v * factor for m, v in nums.items()}
    keyed = {_STORE_CTX._key(m): v for m, v in nums.items()}
    handed = dict(keyed)
    r = series._reduced(_STORE_CTX, den * factor, handed)
    assert r.terms() == reduced_by_fractions(den * factor, nums)
    assert all(type(v) is Fraction and v for _, v in r.terms())
    assert handed == keyed
    assert_canonical(r)


@settings(max_examples=80, deadline=None)
@given(kernel_cases)
def test_first_difference_is_none_exactly_on_equal_series(case):
    ctx, a, b, _, one = case
    f, g, o = Series(ctx, a), Series(ctx, b), Series(ctx, [one])
    pairs = [(f, g), (f, f), (f, Series(ctx, f.terms())), (f, -f), (f, f + o), (f, f + 2 * o),
             (f + f, 2 * f), (f, f / 3 * 3), (g, f * g), (Series.zero(ctx), o)]
    for x, y in pairs:
        diff = first_difference(x, y)
        assert (diff is None) == (x == y)
        assert diff == first_difference_by_terms(x, y)


@settings(max_examples=60, deadline=None)
@given(twin_cases, st.data())
def test_operations_leave_their_operand_as_built(f, data):
    # a result may keep its operand's numerators (f * 1 does), so no operation may
    # change the store of the series it read
    ctx = f.context
    f0 = f - f.constant_term
    o = Series(ctx, [data.draw(st.tuples(st.sampled_from(_one_term_monomials(ctx)),
                                         one_term_coeffs))])
    before = [x.terms() for x in (f, f0, o)]
    results = [f / 3, f * 1, -(-f), f0.exp(), (1 + f0).log(), o.product(f), f.product(o)]
    for x, terms in zip((f, f0, o), before):
        assert x.terms() == terms
        assert x == Series(ctx, terms)
    assert results[0] * 3 == results[1] == results[2] == f


# -- field reads against their monomial twins --------------------------------------

_PREDICATES = [
    lambda t, z, m: m == t - 1,  # the hypertree layer
    lambda t, z, m: t <= z,
    lambda t, z, m: (t + z + m) % 2 == 0,
]


@pytest.mark.parametrize("ctx", _FIELD_TOP_CONTEXTS + [_WIDE], ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_key_fields_equal_monomial_twins(ctx, data):
    terms = st.lists(st.tuples(st.sampled_from(_KERNEL_POOLS[ctx]), kernel_coeffs), max_size=10)
    f = Series(ctx, data.draw(terms))
    pred = data.draw(st.sampled_from(_PREDICATES))
    selected, marginal = f.where(pred), f.t_marginal()
    assert selected == where_by_terms(f, pred)
    assert marginal == t_marginal_by_terms(f)
    assert_canonical(selected, marginal)
    if ctx.magnitude_max >= ctx.t_max - 1:
        assert compute_T(f) == compute_T_by_terms(f)
        return
    for refused in (compute_T, compute_T_by_terms):
        with pytest.raises(ValueError, match="need magnitude_max >= t_max - 1"):
            refused(f)


# -- slice-by-slice reversion against its full-pass twin ---------------------------

_REVERT_CONTEXTS = [
    TruncationContext(t_max=3, z_max=0, magnitude_max=5),  # t_max binds
    TruncationContext(t_max=5, z_max=1, magnitude_max=2),  # magnitude binds
    TruncationContext(t_max=4, z_max=3, magnitude_max=0),  # z present, no edge variables
    TruncationContext(t_max=3, z_max=2, magnitude_max=2),
    TruncationContext(t_max=1, z_max=1, magnitude_max=2),
    TruncationContext(t_max=0, z_max=1, magnitude_max=1),  # t is zero: both refuse
]


def _revert_case(ctx):
    # terms of t-degree 1 besides t itself make f_1 a series in z and u; at
    # t_max = 0 no term is divisible by t, and any f is refused
    divisible = [m for m in _admissible(ctx) if m[0]] or _admissible(ctx)
    rest = st.dictionaries(st.sampled_from(divisible), coeffs, max_size=6)
    return st.tuples(st.just(ctx), units, rest, st.booleans())


revert_cases = st.sampled_from(_REVERT_CONTEXTS).flatmap(_revert_case)


@settings(max_examples=80, deadline=None)
@given(revert_cases)
def test_revert_slices_equal_iteration(case):
    ctx, c, rest, linear = case
    f = c * Series.variable(ctx, "t") + (Series.zero(ctx) if linear else Series(ctx, rest))
    try:
        expected = revert_by_iteration(f)
    except ValueError as exc:  # rest cancelled the linear term, or t_max = 0
        with pytest.raises(type(exc)) as got:
            revert(f)
        assert str(got.value) == str(exc)
        return
    g = revert(f)
    assert g == expected
    assert_canonical(g)


def test_revert_with_series_linear_coefficient():
    ctx = TruncationContext(t_max=5, z_max=3, magnitude_max=3)
    t, z, u2 = (Series.variable(ctx, name) for name in ("t", "z", "u2"))
    f = t * (2 + z + 3 * u2) + t * t * (u2 - 1) + power(t, 3) * z / 2
    g = revert(f)
    assert g == revert_by_iteration(f)
    assert f.substitute({"t": g}) == t


def test_exp_fixed_point_rooted_labeled_trees():
    # R = t exp(R) counts rooted labeled trees: n^(n-1) on n vertices; R is
    # the inverse of w exp(-w)
    R = revert(T * (-T).exp())
    assert [R.coefficient(mono(t=n)) * factorial(n) for n in range(1, 7)] == [
        n ** (n - 1) for n in range(1, 7)
    ]


def test_exp_fixed_point_equals_iteration():
    # R = t exp(a(R)) is the inverse of w exp(-a(w))
    ctx = TruncationContext(t_max=5, z_max=3, magnitude_max=3)
    t, z, u2 = (Series.variable(ctx, name) for name in ("t", "z", "u2"))
    a = t * (z - 1) + t * t * u2 / 2 + power(t, 3) * z / 3 + power(t, 5)
    R = t
    for _ in range(ctx.t_max):
        R = t * a.substitute({"t": R}).exp()
    assert revert(t * (-a).exp()) == R


def test_slice_solvers_make_no_empty_kernel_call(monkeypatch):
    # a slice sum whose pairs all have an empty side must not start the
    # term-pair loop, which begins with the lcm of its pairs' denominators
    sizes = []

    def recorded(*dens):
        if sys._getframe(1).f_code is series._mul.__code__:
            sizes.append(len(dens))
        return lcm(*dens)

    monkeypatch.setattr(series, "lcm", recorded)
    ctx = TruncationContext(t_max=7, z_max=2, magnitude_max=7)
    t, z, u2 = (Series.variable(ctx, name) for name in ("t", "z", "u2"))
    revert(t * (1 + z) - t * t * u2 + power(t, 3) / 2)
    solve_R_fixed_point(ctx)
    assert sizes and 0 not in sizes


@pytest.mark.parametrize("top", [1, 3, 4, 7, 8, 15, 16, 255, 256])
def test_graded_maps_and_revert_at_the_top_of_a_key_field(top):
    # z^(top - top // 2) * z^(top // 2) lands on the largest bound: at 1, 3, 7,
    # 15 and 255 the top of a field, at 4, 8, 16 and 256 one past it
    ctx = TruncationContext(t_max=min(3, top), z_max=top, magnitude_max=min(2, top))
    t, u2 = Series.variable(ctx, "t"), Series.variable(ctx, "u2")

    def z(e):
        return Series(ctx, {ctx.monomial(z=e): 1})

    f0 = z(top - top // 2) / 3 + 2 * u2 * z(top // 2) - t * z(top - 1) + t * t * z(1) / 5
    assert f0.exp() == exp_by_power_sum(f0)
    assert (1 + f0).log() == log_by_power_sum(1 + f0)
    assert (2 + f0).inverse() == inverse_by_power_sum(2 + f0)
    f = t * (1 + f0)
    assert revert(f) == revert_by_iteration(f)


@pytest.mark.parametrize(
    "graded, twin, f",
    [
        (Series.exp, exp_by_power_sum, 1 + T),
        (Series.log, log_by_power_sum, T),
        (Series.log, log_by_power_sum, 2 + T),
        (Series.inverse, inverse_by_power_sum, T + U2),
    ],
)
def test_graded_maps_reject_like_power_sums(graded, twin, f):
    with pytest.raises(ValueError) as new:
        graded(f)
    with pytest.raises(ValueError) as old:
        twin(f)
    assert str(new.value) == str(old.value)


# -- the exponential formula against its per-k twin ----------------------------------

# t_max = 0, z_max = 0, no edge variable, and the top of every key field
_FORMULA_CONTEXTS = [
    TruncationContext(t_max=0, z_max=3, magnitude_max=3),
    TruncationContext(t_max=4, z_max=0, magnitude_max=4),
    TruncationContext(t_max=4, z_max=4, magnitude_max=0),
    TruncationContext(t_max=3, z_max=2, magnitude_max=2),
] + _FIELD_TOP_CONTEXTS


def _weight_monomials(ctx):
    # t-free monomials of grade >= 1 over z, the u's or both, and some past the bounds
    inside = [m for m in _KERNEL_POOLS.get(ctx) or _admissible(ctx) if not m[0] and any(m)]
    M, zeros = ctx.max_edge_size, [0] * len(ctx.names)
    past = [Monomial([0, ctx.z_max + 1] + zeros[2:])]
    if M >= 2:
        past.append(Monomial([0, 1, ctx.magnitude_max + 1] + zeros[3:]))
    if M >= 3:
        past.append(Monomial([0, 0, 1] + zeros[3:M] + [1]))  # u2 * uM: magnitude_max + 1
    return inside + past


column_entries = st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _formula_case(ctx):
    columns = st.lists(column_entries, min_size=ctx.t_max + 1, max_size=ctx.t_max + 1)
    weights = st.dictionaries(st.sampled_from(_weight_monomials(ctx)), columns, max_size=4)
    return st.tuples(st.just(ctx), weights)


formula_cases = st.sampled_from(_FORMULA_CONTEXTS).flatmap(_formula_case)


@settings(max_examples=40, deadline=None)
@given(formula_cases)
def test_exponential_formula_equals_per_k_twin(case):
    ctx, weights = case
    L = series.exponential_formula(ctx, weights)
    assert L == exponential_formula_by_exps(ctx, weights)
    assert_canonical(L)


_W = TruncationContext(t_max=2, z_max=2, magnitude_max=2)


@pytest.mark.parametrize(
    "monomial, column, message",
    [
        (_W.monomial(t=1, z=1), [0, 1, 2], "has a t exponent"),
        (_W.monomial(), [0, 1, 2], "the unit monomial, of grade 0"),
        (Monomial((0, 1, 0)), [0, 1, 2], "does not match the context's edge variables"),
        (_W.monomial(z=1), [0, 1], "not t_max \\+ 1 = 3"),
    ],
    ids=["t-exponent", "unit", "width", "column-length"],
)
def test_exponential_formula_refuses_malformed_weights(monomial, column, message):
    with pytest.raises(ValueError, match=message) as refused:
        series.exponential_formula(_W, {_W.monomial(u={2: 1}): [0, 1, 1], monomial: column})
    assert "\n" not in str(refused.value)


def test_exponential_formula_drops_weights_past_the_bounds():
    kept = {_W.monomial(z=1): [0, 1, Fraction(1, 2)]}
    past = {_W.monomial(z=3): [1, 2, 3], _W.monomial(u={3: 2}): [0, -1, 1]}
    assert series.exponential_formula(_W, kept | past) == series.exponential_formula(_W, kept)
