"""Series core: exact arithmetic, transcendental maps, reversion.

Frozen reference values come with an independent route next to them:
reversions are re-checked by composing back, exp by its defining sum,
the two reversion algorithms are held against each other, the integer
product kernel against a Fraction per term pair, and the graded exp, log
and inverse against their full power-sum twins.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hypertrees.series import (
    ContextMismatchError,
    Monomial,
    OutOfContextError,
    Series,
    TruncationContext,
    first_difference,
    revert,
)
from oracles import (
    exp_by_power_sum,
    inverse_by_power_sum,
    lagrange_revert,
    log_by_power_sum,
    mul_by_term_pairs,
    power,
    t_coefficient,
)

CTX = TruncationContext(t_max=6, magnitude_max=5, max_edge_size=5)
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
    assert Series.variable(CTX, "z").is_zero()
    t_free = TruncationContext(t_max=0, z_max=2, magnitude_max=0, max_edge_size=2)
    assert Series.variable(t_free, "t").is_zero()
    assert not Series.variable(t_free, "z").is_zero()


def test_magnitude_has_no_width_cap():
    ctx = TruncationContext(t_max=1, magnitude_max=5000, max_edge_size=5000)

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


def test_mixing_contexts_raises():
    other = TruncationContext(t_max=6, magnitude_max=5, max_edge_size=6)
    with pytest.raises(ContextMismatchError):
        T + Series.variable(other, "t")


# -- ring arithmetic ----------------------------------------------------------


def test_basic_ring_identities():
    assert (1 + T) * (1 - T) == 1 - power(T, 2)
    assert power(T + U2, 2) == power(T, 2) + 2 * T * U2 + power(U2, 2)
    assert T - T == Series.zero(CTX)
    assert (T * 3) / 3 == T


def test_multiplication_truncates():
    assert not (power(T, 3) * power(T, 3)).is_zero()
    assert (power(T, 4) * power(T, 3)).is_zero()
    assert (power(U2, 3) * power(U2, 3)).is_zero()  # magnitude 6 > 5


def test_coefficient_in_and_out_of_context():
    f = power(1 + T, 6)
    assert f.coefficient(mono(t=2)) == 15
    assert f.coefficient(mono(t=6)) == 1
    with pytest.raises(OutOfContextError):
        f.coefficient(mono(t=7))


def test_t_coefficient_slices():
    f = T * U2 + T * U3 + power(T, 2)
    slice1 = t_coefficient(f, 1)
    assert slice1 == U2 + U3
    assert t_coefficient(f, 5).is_zero()


def test_derivative_basics():
    f = power(T, 3) * U2
    assert f.derivative("t") == 3 * power(T, 2) * U2
    assert f.derivative("u2") == power(T, 3)
    assert f.derivative("u3").is_zero()


def test_power_requires_non_negative_int():
    with pytest.raises(ValueError):
        power(T, -1)


# -- transcendental maps ------------------------------------------------------


def test_exp_matches_defining_sum():
    f = T.exp()
    for k in range(CTX.t_max + 1):
        assert f.coefficient(mono(t=k)) == Fraction(1, factorial(k))


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
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
    g = f.substitute("u2", Series.zero(CTX))
    assert g == Series.one(CTX)


def test_substitute_rejects_constant_term():
    with pytest.raises(ValueError):
        T.substitute("t", 1 + T)


# -- reversion ----------------------------------------------------------------


def test_revert_catalan():
    # g with g - g^2 = y counts binary plane trees: 1, 1, 2, 5, 14, 42
    f = T - power(T, 2)
    g = revert(f)
    assert f.substitute("t", g) == T
    got = [g.coefficient(mono(t=k)) for k in range(1, 7)]
    assert got == [1, 1, 2, 5, 14, 42]
    assert lagrange_revert(f) == g


def test_revert_rooted_labeled_trees():
    # inverse of t e^{-t} has [t^n] = n^{n-1}/n!
    ctx = TruncationContext(t_max=6, magnitude_max=0, max_edge_size=2)
    t = Series.variable(ctx, "t")
    g = revert(t * (-t).exp())
    for n in range(1, 7):
        expected = Fraction(n ** (n - 1), factorial(n))
        assert g.coefficient(ctx.monomial(t=n)) == expected
    assert lagrange_revert(t * (-t).exp()) == g


def test_revert_with_symbolic_coefficients():
    f = T * (-(U2 * T)).exp()
    g = revert(f)
    assert f.substitute("t", g) == T


def test_revert_rejects_bad_input():
    with pytest.raises(ValueError):
        revert(power(T, 2))
    with pytest.raises(ValueError):
        revert(T + U2)


# -- property tests -----------------------------------------------------------

PCTX = TruncationContext(t_max=4, magnitude_max=4, max_edge_size=4)

_ADMISSIBLE = [
    Monomial((t, 0, a, b, c))
    for t in range(PCTX.t_max + 1)
    for a in range(PCTX.magnitude_max + 1)
    for b in range(PCTX.magnitude_max // 2 + 1)
    for c in range(PCTX.magnitude_max // 3 + 1)
    if a + 2 * b + 3 * c <= PCTX.magnitude_max
]

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
series_terms = st.dictionaries(st.sampled_from(_ADMISSIBLE), coeffs, max_size=6)


def build(terms) -> Series:
    return Series(PCTX, terms)


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
    assert lhs.restrict(t_max=PCTX.t_max - 1) == rhs.restrict(t_max=PCTX.t_max - 1)
    lhs_u = (f * g).derivative("u2")
    rhs_u = f.derivative("u2") * g + f * g.derivative("u2")
    bound = PCTX.magnitude_max - 1
    assert lhs_u.restrict(magnitude_max=bound) == rhs_u.restrict(magnitude_max=bound)


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
    small = TruncationContext(t_max=2, magnitude_max=2, max_edge_size=4)

    def cut(f):
        return Series(small, f.terms())

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
    lhs = (f * g).substitute("u2", image)
    rhs = f.substitute("u2", image) * g.substitute("u2", image)
    assert lhs == rhs
    assert (f + g).substitute("u2", image) == f.substitute("u2", image) + g.substitute(
        "u2", image
    )


@settings(max_examples=40, deadline=None)
@given(series_terms, st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
def test_reversion_routes_agree(a, c1):
    t = Series.variable(PCTX, "t")
    f = c1 * t + t * t * build(a)
    g = revert(f)
    assert f.substitute("t", g) == t
    assert lagrange_revert(f) == g


# -- graded recurrences against their power-sum twins ---------------------------

_TWIN_CONTEXTS = [
    TruncationContext(t_max=4, z_max=4, magnitude_max=0, max_edge_size=2),  # psi's shape
    TruncationContext(t_max=3, z_max=0, magnitude_max=3, max_edge_size=4),
    TruncationContext(t_max=2, z_max=2, magnitude_max=2, max_edge_size=3),
    TruncationContext(t_max=0, z_max=0, magnitude_max=0, max_edge_size=2),  # grade bound 0
]


def _admissible(ctx):
    ranges = [range(ctx.t_max + 1), range(ctx.z_max + 1)]
    ranges += [range(ctx.magnitude_max // (i - 1) + 1) for i in range(2, ctx.max_edge_size + 1)]
    return [m for m in map(Monomial, product(*ranges)) if ctx.admits(m)]


def _twin_series(ctx):
    terms = st.dictionaries(st.sampled_from(_admissible(ctx)), coeffs, max_size=8)
    return terms.map(lambda t: Series(ctx, t))


twin_cases = st.sampled_from(_TWIN_CONTEXTS).flatmap(_twin_series)
units = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@settings(max_examples=80, deadline=None)
@given(twin_cases, units)
def test_graded_maps_equal_power_sums(f, c):
    f0 = f - f.constant_term
    assert f0.exp() == exp_by_power_sum(f0)
    assert (1 + f0).log() == log_by_power_sum(1 + f0)
    assert (c + f0).inverse() == inverse_by_power_sum(c + f0)


# -- the integer product kernel against its term-pair twin -----------------------

_WIDE = TruncationContext(t_max=3, z_max=1, magnitude_max=40, max_edge_size=40)


def _wide_admissible(ctx):
    edges = [{}] + [{i: 1} for i in range(2, ctx.max_edge_size + 1)]
    edges += [{i: 1, j: 1} for i in range(2, ctx.max_edge_size + 1) for j in range(2, i)]
    edges += [{i: 2} for i in range(2, ctx.max_edge_size + 1)]
    ms = (ctx.monomial(t=t, z=z, u=u)
          for t in range(ctx.t_max + 1) for z in range(ctx.z_max + 1) for u in edges)
    return [m for m in ms if ctx.admits(m)]


# denominators up to 1000, with coprime ones drawn on purpose
kernel_coeffs = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=1000),
    st.sampled_from([Fraction(1, 997), Fraction(-3, 991), Fraction(7, 1000), Fraction(-5, 999)]),
).filter(bool)


_KERNEL_POOLS = {ctx: _admissible(ctx) for ctx in _TWIN_CONTEXTS}
_KERNEL_POOLS[_WIDE] = _wide_admissible(_WIDE)


def _kernel_triples(ctx):
    terms = st.lists(st.tuples(st.sampled_from(_KERNEL_POOLS[ctx]), kernel_coeffs), max_size=10)
    return st.tuples(st.just(ctx), terms, terms, terms)


kernel_cases = st.sampled_from(list(_KERNEL_POOLS)).flatmap(_kernel_triples)


@settings(max_examples=80, deadline=None)
@given(kernel_cases, st.randoms(use_true_random=False))
def test_product_kernel_equals_term_pairs(case, rnd):
    ctx, a, b, c = case
    f, g, h = Series(ctx, a), Series(ctx, b), Series(ctx, c)
    products = [
        (f, g),
        (f, g + h),
        (f + g, f - g),  # the cross terms f*g and -g*f cancel inside one product
        (g - h, h - g),
    ]
    for x, y in products:
        xy = x * y
        assert xy == mul_by_term_pairs(x, y)
        assert all(type(v) is Fraction and v for v in xy._terms.values())
    assert f * (g + h) - f * h == f * g
    assert (f + g) * (f - g) == f * f - g * g
    rnd.shuffle(a)
    rnd.shuffle(b)
    assert Series(ctx, a) * Series(ctx, b) == f * g


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
