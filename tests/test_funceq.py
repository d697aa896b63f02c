"""Functional-equation layer: vanishing pattern, substitution family, reversion.

The left-hand-side builder is cross-checked against a from-scratch
implementation on plain (t_deg, z_deg) -> Fraction dicts, so the Series
engine never validates itself.
"""

from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from hypertrees.combinat import stirling2
from hypertrees.funceq import (
    PhiCoefficients,
    check_phi,
    diagonal_mismatches,
    hypertree_dictionary_report,
    lhs_series,
    psi_from_phi,
    psi_uv_coefficients,
    random_phi,
    substituted_connected_gf,
    substitution_images,
    verify_psi_form,
)
from hypertrees.gf import (
    T_from_R,
    compute_C,
    compute_T,
    edge_symbol_phi,
    hypertree_series,
    solve_R_fixed_point,
)
from hypertrees.series import Series, TruncationContext, first_difference, revert
from oracles import lhs_series_by_summands, psi_uv_coefficients_by_terms, verify_psi_form_by_terms

CTX = TruncationContext(t_max=5, z_max=5, magnitude_max=0)


# -- an independent reimplementation on plain dicts -----------------------------


def _mul(a, b, t_max, z_max):
    out = {}
    for (ta, za), ca in a.items():
        for (tb, zb), cb in b.items():
            td, zd = ta + tb, za + zb
            if td <= t_max and zd <= z_max:
                out[(td, zd)] = out.get((td, zd), Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def _reference_lhs(phi: PhiCoefficients, t_max: int, z_max: int):
    total = {}
    for k in range(t_max + 1):
        # k * Phi(kz, z): the u^a v^b entry becomes k^(a+1) z^(a+b)
        arg = {}
        for (a, b), c in phi.items():
            if a + b <= z_max:
                key = (0, a + b)
                arg[key] = arg.get(key, Fraction(0)) + c * k ** (a + 1)
        summand = {(0, 0): Fraction(1)}
        power = {(0, 0): Fraction(1)}
        for j in range(1, z_max + 1):
            power = _mul(power, arg, t_max, z_max)
            if not power:
                break
            for key, v in power.items():
                summand[key] = summand.get(key, Fraction(0)) + v / factorial(j)
        front = Fraction(1, factorial(k))
        for (td, zd), v in summand.items():
            if td + k <= t_max:
                key = (td + k, zd)
                total[key] = total.get(key, Fraction(0)) + front * v
    # log via the alternating series on g = total - 1
    g = dict(total)
    g[(0, 0)] = g.get((0, 0), Fraction(0)) - 1
    g = {k: v for k, v in g.items() if v}
    out = {}
    power = {(0, 0): Fraction(1)}
    for j in range(1, t_max + z_max + 1):
        power = _mul(power, g, t_max, z_max)
        if not power:
            break
        sign = Fraction((-1) ** (j + 1), j)
        for key, v in power.items():
            out[key] = out.get(key, Fraction(0)) + sign * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("seed", [42, 43, 44, 45])
def test_lhs_matches_reference_implementation(seed):
    phi = random_phi(seed)
    L = lhs_series(phi, CTX)
    reference = _reference_lhs(phi, CTX.t_max, CTX.z_max)
    got = {(m.t_deg, m.z_deg): c for m, c in L.terms()}
    assert got == reference


@pytest.mark.parametrize("seed", [42, 43, 44, 45, 46])
def test_lhs_k_sum_cut_at_t_max_is_exact(seed):
    # the summands past k = t_max have t-degree > t_max, so cutting the sum
    # there changes no coefficient, the top t-layer included; lhs_series
    # sums k = 0 .. t_max once and takes one log, and this is its check
    phi = random_phi(seed)
    for K in range(CTX.t_max + 1):
        small = TruncationContext(t_max=K, z_max=CTX.z_max, magnitude_max=0)
        big = TruncationContext(t_max=K + 1, z_max=CTX.z_max, magnitude_max=0)
        assert lhs_series(phi, small) == Series(small, lhs_series(phi, big).terms())


@pytest.mark.parametrize("t_max, z_max", [(0, 0), (1, 0), (3, 5), (6, 6), (10, 10)])
def test_lhs_equals_summand_twin(t_max, z_max):
    ctx = TruncationContext(t_max=t_max, z_max=z_max, magnitude_max=0)
    for seed in range(20):
        phi = random_phi(seed)
        assert lhs_series(phi, ctx) == lhs_series_by_summands(phi, ctx), seed


# entries with z-degree a + b from 1 to 7, past z_max in most contexts below, with
# numerators -6..6 (negative ones included) over denominators 1..7, so that one
# z-degree mixes denominators
_phi_entries = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda ab: 1 <= sum(ab) <= 7),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7)),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(_phi_entries, st.sampled_from([(0, 0), (1, 0), (3, 2), (2, 4), (5, 5), (6, 3)]))
def test_lhs_equals_summand_twin_on_drawn_arrays(entries, bounds):
    t_max, z_max = bounds
    ctx = TruncationContext(t_max=t_max, z_max=z_max, magnitude_max=0)
    phi = PhiCoefficients(entries)
    assert lhs_series(phi, ctx) == lhs_series_by_summands(phi, ctx)


# -- the coefficient array -------------------------------------------------------


def test_phi_coefficients_basics():
    phi = PhiCoefficients({(0, 1): Fraction(1, 2), (2, 0): 3})
    assert phi.coefficient(0, 1) == Fraction(1, 2)
    assert phi.coefficient(5, 5) == 0
    with pytest.raises(ValueError):
        PhiCoefficients({(-1, 0): 1})
    # int and Fraction only, as for Series: no value or index is converted
    for bad in (0.1, 2.0, "1/2", Decimal("0.5")):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            PhiCoefficients({(1, 0): bad})
    for bad in (1.5, 1.0, "1", Decimal("1")):
        for key in ((bad, 0), (0, bad)):
            with pytest.raises(TypeError, match="indices must be ints"):
                PhiCoefficients({key: 1})
    # another type is left to its own __eq__, and no array equals a scalar
    assert phi.__eq__({(0, 1): Fraction(1, 2), (2, 0): 3}) is NotImplemented
    assert PhiCoefficients({}) != 0


def test_phi_json_round_trip():
    phi = PhiCoefficients({**dict(random_phi(7).items()), (0, 0): Fraction(1, 3)})
    entries = [{"m": m, "n": n, "num": c.numerator, "den": c.denominator}
               for (m, n), c in phi.items()]
    again = PhiCoefficients.from_json({"entries": entries})
    assert again == phi


def test_without_constant_splits_c00():
    phi = PhiCoefficients({(0, 0): Fraction(2, 3), (1, 0): 1})
    c00, reduced = phi.without_constant()
    assert c00 == Fraction(2, 3)
    assert reduced == PhiCoefficients({(1, 0): 1})
    assert reduced.constant_term == 0


def test_random_phi_is_deterministic_and_seed_stable():
    assert random_phi(11) == random_phi(11)
    assert random_phi(11) != random_phi(12)
    # the (0, 0) draw is made and dropped, so seed 11 keeps the array it always had
    F = Fraction
    assert random_phi(11) == PhiCoefficients({
        (0, 1): F(1, 2), (0, 2): F(2, 3), (0, 3): -1, (0, 4): 1, (1, 0): 2, (1, 1): -1,
        (1, 3): F(-2, 3), (2, 0): F(-2, 3), (2, 1): F(1, 2), (2, 2): F(2, 3),
        (3, 0): F(-1, 3), (3, 1): F(-2, 3), (4, 0): -2,
    })


def test_lhs_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lhs_series(PhiCoefficients({(0, 0): 1}), CTX)


def test_lhs_without_z_is_plain_t():
    # z_max = 0 truncates every k Phi(kz, z) term: L = log(sum t^k/k!) = t
    no_z = TruncationContext(t_max=4, magnitude_max=0)
    L = lhs_series(PhiCoefficients({(1, 0): 1, (0, 1): 2}), no_z)
    assert L == Series.variable(no_z, "t")


# -- vanishing pattern ------------------------------------------------------------


def test_zero_phi_gives_plain_t():
    L = lhs_series(PhiCoefficients({}), CTX)
    assert L == Series.variable(CTX, "t")


def test_vanishing_over_seeded_arrays():
    for seed in range(300, 320):
        violations = verify_psi_form(lhs_series(random_phi(seed), CTX))
        assert violations == [], (seed, violations)


def test_verify_psi_form_flags_bad_support():
    bad = Series(
        CTX,
        {
            CTX.monomial(t=1): Fraction(1),
            CTX.monomial(z=2): Fraction(1),  # t^0: outside t * Psi(tz, z)
            CTX.monomial(t=3, z=1): Fraction(5),  # z below t - 1
        },
    )
    violations = verify_psi_form(bad)
    assert violations
    assert (0, 2, Fraction(1)) in violations
    assert (3, 1, Fraction(5)) in violations
    assert len(violations) == 2


@pytest.mark.parametrize("t_max, z_max", [(5, 5), (6, 0), (4, 7), (8, 3)])
def test_psi_form_readers_match_their_monomial_twins(t_max, z_max):
    # the library selects on key fields; the twins decode every term and test its Monomial
    ctx = TruncationContext(t_max=t_max, z_max=z_max, magnitude_max=0)
    planted = Series(ctx, {ctx.monomial(z=2): 1, ctx.monomial(t=3, z=1): 5})  # t^0, z < t - 1
    for seed in range(10):
        L = lhs_series(random_phi(seed), ctx)
        for f in (L, L + planted):
            assert verify_psi_form(f) == verify_psi_form_by_terms(f), seed
            assert psi_uv_coefficients(f) == psi_uv_coefficients_by_terms(f), seed


def test_psi_uv_mapping():
    L = Series(
        CTX,
        {
            CTX.monomial(t=1): Fraction(1),
            CTX.monomial(t=2, z=1): Fraction(7),
            CTX.monomial(t=2, z=3): Fraction(9),
        },
    )
    assert psi_uv_coefficients(L) == [
        (0, 0, Fraction(1)),
        (1, 0, Fraction(7)),
        (1, 2, Fraction(9)),
    ]


# -- substitution family -----------------------------------------------------------


def test_falling_factorial_basis_change():
    # k^l = sum_m S(l, m) m! binom(k, m), the identity behind substitution_images
    for l in range(7):
        for k in range(7):
            rhs = sum(
                stirling2(l, m) * factorial(m) * comb(k, m)
                for m in range(l + 1)
            )
            assert k**l == rhs


def test_substitution_images_single_entry():
    # Phi = u: P_1 = z, and u2 maps to z P_2(z) = 2z
    ctx = TruncationContext(t_max=3, z_max=3, magnitude_max=3)
    z = Series.variable(ctx, "z")
    images = substitution_images(PhiCoefficients({(1, 0): 1}), ctx)
    assert images == {1: z, 2: 2 * z, 3: Series.zero(ctx), 4: Series.zero(ctx)}


def test_substitution_images_mixed_entries():
    # c_{12} u v^2 reaches z^3 for m <= 2; c_{21} u^2 v reaches z^3 for m <= 3
    ctx = TruncationContext(t_max=4, z_max=4, magnitude_max=4)
    phi = PhiCoefficients({(1, 2): Fraction(1, 3), (2, 1): -2})
    images = substitution_images(phi, ctx)
    z3 = ctx.monomial(z=3)
    assert images[1] == Series(ctx, {z3: Fraction(1, 3) - 2})  # 1! (S(2,1) c12 + S(3,1) c21)
    assert images[2] == Series(ctx, {z3: 2 * (Fraction(1, 3) - 2 * 3)})  # S(3,2) = 3
    assert images[3] == Series(ctx, {z3: 6 * -2})
    assert images[4] == images[5] == Series.zero(ctx)


def test_substitution_maps_t_and_u():
    ctx = TruncationContext(t_max=4, z_max=4, magnitude_max=4)
    phi = PhiCoefficients({(1, 0): 1})
    u2_image = substituted_connected_gf(phi, Series.variable(ctx, "u2"))
    assert u2_image == Series(ctx, {ctx.monomial(z=1): 2})
    t_image = substituted_connected_gf(phi, Series.variable(ctx, "t"))
    # t * exp(z): coefficient of t z^2 is 1/2
    assert t_image.coefficient(ctx.monomial(t=1, z=2)) == Fraction(1, 2)


def test_substitution_requires_reduced_array():
    ctx = TruncationContext(t_max=3, z_max=3, magnitude_max=3)
    with pytest.raises(ValueError):
        substituted_connected_gf(PhiCoefficients({(0, 0): 1}), compute_C(ctx))


def test_substitution_reproduces_lhs():
    ctx = TruncationContext(t_max=4, z_max=4, magnitude_max=4)
    C = compute_C(ctx)
    for seed in (42, 99):
        phi = random_phi(seed)
        direct = lhs_series(phi, ctx)
        routed = substituted_connected_gf(phi, C)
        assert first_difference(direct, routed) is None, seed


def test_substitution_requires_magnitude_headroom():
    ctx = TruncationContext(t_max=4, z_max=4, magnitude_max=2)
    with pytest.raises(ValueError):
        substituted_connected_gf(random_phi(1), Series.zero(ctx))


# -- reversion route ---------------------------------------------------------------


def test_psi_of_zero_phi_is_one():
    ctx = TruncationContext(t_max=4, magnitude_max=0)
    t = Series.variable(ctx, "t")
    # phi = 0 reverts y = w itself, so w(y) = y and psi = (w - 0) / y = 1
    assert revert(t) == t
    assert psi_from_phi(Series.zero(ctx)) == Series.one(ctx)


def test_diagonal_matches_lhs_for_seeded_arrays():
    ctx1 = TruncationContext(t_max=5, magnitude_max=0)
    for seed in range(60, 70):
        phi = random_phi(seed)
        L = lhs_series(phi, CTX)
        psi = psi_from_phi(phi.phi_series(ctx1))
        assert diagonal_mismatches(psi, L) == [], seed


def _tz_terms(L):
    return [(m.t_deg, m.z_deg, c) for m, c in L.terms()]


@pytest.mark.parametrize("magnitude_max", [0, 5])
def test_check_phi_builds_L_in_the_callers_context(magnitude_max):
    # the edge variables of a wider context carry no terms of L
    ctx = TruncationContext(t_max=5, z_max=5, magnitude_max=magnitude_max)
    phi = random_phi(7)
    L, violations, psi, mismatches = check_phi(phi, ctx, 4)
    assert L.context == ctx
    assert _tz_terms(L) == _tz_terms(lhs_series(phi, CTX))
    assert psi.context.t_max == 5
    assert violations == mismatches == []


def test_diagonal_detects_corruption():
    phi = random_phi(5)
    L = lhs_series(phi, CTX)
    ctx1 = TruncationContext(t_max=5, magnitude_max=0)
    psi = psi_from_phi(phi.phi_series(ctx1))
    bad = L + Series(CTX, {CTX.monomial(t=3, z=2): Fraction(1, 7)})
    mism = diagonal_mismatches(psi, bad)
    assert [(power, a - b) for power, a, b in mism] == [(2, Fraction(-1, 7))]


def test_psi_from_phi_validates():
    with pytest.raises(ValueError):  # psi through y^(t_max - 1) needs t_max >= 1
        psi_from_phi(Series.zero(TruncationContext(t_max=0, magnitude_max=0)))
    with pytest.raises(ValueError):
        psi_from_phi(Series.one(TruncationContext(t_max=3, magnitude_max=0)))  # constant term


def test_psi_from_phi_carries_edge_symbols():
    # the u-variables ride along as coefficients: under the edge weights, psi is T / t
    ctx = TruncationContext(t_max=5, magnitude_max=5)
    psi = psi_from_phi(edge_symbol_phi(ctx))
    below_top = lambda t, z, magnitude: t <= 4
    assert psi == T_from_R(solve_R_fixed_point(ctx)).divided_by_t().where(below_top)
    assert psi == compute_T(compute_C(ctx)).divided_by_t().where(below_top)
    # the 3 labeled paths on 3 vertices, over 3!
    assert psi.coefficient(ctx.monomial(t=2, u={2: 2})) == Fraction(1, 2)


# -- the hypertree dictionary --------------------------------------------------------


def test_edge_symbol_phi_shape():
    ctx = TruncationContext(t_max=4, magnitude_max=4)
    phi = edge_symbol_phi(ctx)
    assert phi.coefficient(ctx.monomial(t=1, u={2: 1})) == Fraction(1, 2)
    assert phi.coefficient(ctx.monomial(t=3, u={4: 1})) == Fraction(1, 24)


def test_dictionary_reproduces_hypertree_series():
    ctx = TruncationContext(t_max=5, magnitude_max=5)
    C = compute_C(ctx)
    fixed = solve_R_fixed_point(ctx)

    def report(C):
        return hypertree_dictionary_report(*hypertree_series(C), fixed)

    checks = report(C)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert [c.key for c in checks] == ["dictionary-rooted", "dictionary-unrooted"]
    # R and T are read off C, so one wrong term of its hypertree layer fails both
    planted = C + Series(ctx, {ctx.monomial(t=3, u={2: 2}): 1})
    assert [c.ok for c in report(planted)] == [False, False]
