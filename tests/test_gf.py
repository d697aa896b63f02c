"""Generating-function pipeline against the brute-force oracle.

Every frozen number here is either cross-checked against the enumeration
oracle in the same test or carried by two independent computation routes
(log-pipeline vs fixed point vs closed form).
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from hypertrees.closed import (
    _pretty_monomial,
    count_by_profile,
    render_table_line,
    rooted_count_by_edges,
    table_terms,
)
from hypertrees.gf import (
    T_from_R,
    compute_C,
    compute_T,
    hypertree_series,
    solve_R_fixed_point,
    verify_identities,
)
from hypertrees.hypergraphs import EdgeProfile, count_profile, iter_profiles
from hypertrees.series import Series, TruncationContext
from oracles import (
    T_from_R_by_power_sum,
    compute_C_by_closed_form,
    count_by_profile_by_fractions,
    egf_profile_coefficient,
    factorial_norm,
    into_context_by_monomials,
    oracle_polynomials,
    pretty_monomial_by_sort_key,
    rooted_edge_argument,
    rooted_edge_argument_by_power_sum,
    solve_R_by_iteration,
    t_coefficient,
)

CTX = TruncationContext(t_max=6, magnitude_max=6)


@pytest.fixture(scope="module")
def C():
    return compute_C(CTX)


@pytest.fixture(scope="module")
def T_and_R(C):
    return hypertree_series(C)


@pytest.fixture(scope="module")
def T(T_and_R):
    return T_and_R[0]


@pytest.fixture(scope="module")
def R(T_and_R):
    """Rooted hypertrees from the log route: R = t dT/dt."""
    return T_and_R[1]


# -- pipeline structure ---------------------------------------------------------


def test_connected_series_starts_with_known_layers(C):
    assert C.coefficient(CTX.monomial(t=1)) == 1
    assert C.coefficient(CTX.monomial(t=2, u={2: 1})) == Fraction(1, 2)
    # two vertices, two labeled parallel 2-edges: 1/2! * 1/2!
    assert C.coefficient(CTX.monomial(t=2, u={2: 2})) == Fraction(1, 4)
    assert C.coefficient(CTX.monomial(t=3)) == 0


def test_every_connected_term_has_magnitude_at_least_n_minus_1(C):
    for m, c in C.terms():
        assert m.magnitude >= m.t_deg - 1, (m, c)


def test_hypertree_layer_is_the_minimal_magnitude_slice(C, T):
    for m, _ in T.terms():
        assert m.magnitude == m.t_deg - 1
    # and it is exactly the magnitude t_deg - 1 slice of C
    assert T == Series(CTX, [(m, c) for m, c in C.terms() if m.magnitude == m.t_deg - 1])
    assert T == compute_T(C)


def test_rooted_series_picks_one_of_n_vertices(T, R):
    # [t^n/n!] R = n [t^n/n!] T: a hypertree on n vertices has n rootings
    assert R == Series(CTX, [(m, m.t_deg * c) for m, c in T.terms()])


def test_pipeline_requires_wide_enough_alphabet():
    with pytest.raises(ValueError):
        compute_T(compute_C(TruncationContext(t_max=6, magnitude_max=3)))


def test_fixed_point_route_matches_log_route(R):
    assert solve_R_fixed_point(CTX) == R


@settings(max_examples=40, deadline=None)
@given(st.builds(TruncationContext, st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)))
@example(TruncationContext(t_max=3, magnitude_max=6))  # t_max binds
@example(TruncationContext(t_max=7, magnitude_max=2))  # magnitude binds
@example(TruncationContext(t_max=5, z_max=2, magnitude_max=5))  # z present
@example(TruncationContext(t_max=0, magnitude_max=3))
@example(TruncationContext(t_max=1, magnitude_max=3))
@example(TruncationContext(t_max=5, magnitude_max=0))
def test_fixed_point_slices_equal_iteration(ctx):
    assert solve_R_fixed_point(ctx) == solve_R_by_iteration(ctx)


@pytest.mark.parametrize("N, M, Z", [(6, 6, 3), (6, 3, 6), (6, 6, 0), (5, 7, 4), (4, 4, 4)])
def test_narrowed_C_equals_direct(N, M, Z):
    # verify builds C in each context it reads, the suite's and the substitution
    # route's: each equals the C of the wider magnitude cut down to that context
    wide = compute_C(TruncationContext(t_max=N, magnitude_max=max(M, Z)))
    for ctx in (TruncationContext(t_max=N, magnitude_max=M),
                TruncationContext(t_max=N, z_max=Z, magnitude_max=Z)):
        assert into_context_by_monomials(wide, ctx) == compute_C(ctx)


def test_compute_C_equals_closed_form_twin():
    for t in range(9):
        for z in (0, 1, 3):
            for m in range(9):
                ctx = TruncationContext(t_max=t, z_max=z, magnitude_max=m)
                assert compute_C(ctx) == compute_C_by_closed_form(ctx), ctx


# t_max and magnitude_max each end the sums in turn
TWIN_CONTEXTS = {
    "t-binds": TruncationContext(t_max=3, magnitude_max=6),
    "magnitude-binds": TruncationContext(t_max=6, z_max=2, magnitude_max=2),
    "t_max=1": TruncationContext(t_max=1, magnitude_max=2),
}


@pytest.mark.parametrize("ctx", TWIN_CONTEXTS.values(), ids=TWIN_CONTEXTS.keys())
def test_phi_maps_equal_hand_built_sums(ctx):
    t, z = Series.variable(ctx, "t"), Series.variable(ctx, "z")
    u = [Series.variable(ctx, f"u{i}") for i in range(2, ctx.max_edge_size + 1)]
    # the t-free terms keep every power of R alive, so a wrong cut in j shows
    R = t + t * t * u[0] / 3 - 2 * t * z + sum(u) * Fraction(2, 7)
    assert rooted_edge_argument(R) == rooted_edge_argument_by_power_sum(R)
    assert T_from_R(R) == T_from_R_by_power_sum(R)


# -- closed-form counts vs oracle ------------------------------------------------


def test_count_by_profile_examples():
    assert count_by_profile(1, EdgeProfile()) == (1, 1)
    assert count_by_profile(3, EdgeProfile.parse("u2=2", 3)) == (9, 3)
    assert count_by_profile(3, EdgeProfile.parse("u3=1", 3)) == (3, 1)
    assert count_by_profile(4, EdgeProfile.parse("u2=3", 4)) == (64, 16)
    assert count_by_profile(6, EdgeProfile.parse("u2=3,u3=1", 6)) == (12960, 2160)
    # off the magnitude surface: no hypertrees at all
    assert count_by_profile(4, EdgeProfile.parse("u2=1", 4)) == (0, 0)
    assert count_by_profile(4, EdgeProfile.parse("u2=4", 4)) == (0, 0)
    # decided before any factorial of a count grows past n
    assert count_by_profile(3, EdgeProfile((1, 10**9))) == (0, 0)
    assert count_by_profile(3, EdgeProfile((0,) * 10**6 + (1,))) == (0, 0)


def test_count_by_profile_equals_fraction_twin():
    # every profile up to magnitude n, on and off the magnitude n - 1 surface
    checked = 0
    for n in range(1, 25):
        for profile in iter_profiles(n, max_size=n + 1):
            assert count_by_profile(n, profile) == count_by_profile_by_fractions(n, profile)
            checked += profile.magnitude == n - 1
    assert checked == 5763  # sum of the partition numbers p(0) .. p(23)


def test_closed_form_matches_enumeration():
    for n in range(1, 6):
        for parts_profile in _tree_profiles(n):
            row = count_profile(n, parts_profile)
            rooted, unrooted = count_by_profile(n, parts_profile)
            # kernel labels edges within a size class
            assert row.hypertree == unrooted * factorial_norm(parts_profile)
            assert rooted == n * unrooted


def _tree_profiles(n):
    from hypertrees.hypergraphs import iter_profiles

    return [p for p in iter_profiles(n - 1, max_size=n) if p.magnitude == n - 1]


def test_rooted_count_by_edges_small():
    assert rooted_count_by_edges(1, 0) == 1
    assert rooted_count_by_edges(3, 1) == 3
    assert rooted_count_by_edges(3, 2) == 9
    assert sum(rooted_count_by_edges(3, k) for k in range(3)) == 12
    assert rooted_count_by_edges(4, 5) == 0
    assert rooted_count_by_edges(2, 0) == 0


def test_rooted_totals_match_all_ones_specialization(T, R):
    T1, R1 = T.t_marginal(), R.t_marginal()
    tctx = T1.context
    for n in range(1, 7):
        total_rooted = sum(rooted_count_by_edges(n, k) for k in range(n))
        got = R1.coefficient(tctx.monomial(t=n)) * factorial(n)
        assert got == total_rooted
    # unrooted totals: the hypertree counting sequence
    got_T = [T1.coefficient(tctx.monomial(t=n)) * factorial(n) for n in range(1, 7)]
    assert got_T == [1, 1, 4, 29, 311, 4447]


def test_egf_extraction_conventions(T):
    profile = EdgeProfile.parse("u2=1,u3=1", 4)
    # 12 hypertrees on 4 vertices with one 2-edge and one 3-edge
    coeff = egf_profile_coefficient(T, 4, profile)
    assert coeff == 12 * factorial_norm(profile)
    T4 = t_coefficient(T, 4) * factorial(4)
    assert T4.coefficient(CTX.monomial(u={2: 1, 3: 1})) == 12


def test_pipeline_matches_oracle_polynomials(C, T):
    # full polynomial agreement (all magnitudes) for small n
    octx = TruncationContext(t_max=4, magnitude_max=4)
    for n in range(1, 5):
        C_n, T_n = oracle_polynomials(n, octx)
        assert into_context_by_monomials(t_coefficient(C, n) * factorial(n), octx) == C_n
        assert into_context_by_monomials(t_coefficient(T, n) * factorial(n), octx) == T_n
    # and every n <= 12 at magnitude <= 11, where the kernel meets profiles such as
    # (12, u2^11) with 103,510,234,140,112,521,216 slot assignments
    wide = TruncationContext(t_max=12, magnitude_max=11)
    C12 = compute_C(wide)
    T12 = compute_T(C12)
    for n in range(1, 13):
        C_n, T_n = oracle_polynomials(n, wide)
        assert t_coefficient(C12, n) * factorial(n) == C_n
        assert t_coefficient(T12, n) * factorial(n) == T_n


# -- identity suite ---------------------------------------------------------------


def test_identity_suite_all_green(C, T, R):
    checks = verify_identities(C, T, R, solve_R_fixed_point(CTX), 8)
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert len(checks) == 18
    keys = {c.key for c in checks}
    assert "connected-2edge" in keys
    assert "magnitude-balance" in keys
    assert "rooted-fixed-point" in keys


def test_identity_check_reports_first_difference():
    from hypertrees.gf import identity_check

    t = Series.variable(CTX, "t")
    check = identity_check("probe", "t = 2t", t, 2 * t, CTX.t_max, CTX.magnitude_max)
    assert not check.ok
    assert "1 vs 2" in check.first_diff


def test_identity_check_empty_region_is_vacuous():
    from hypertrees.cli import _identity_section
    from hypertrees.gf import identity_check

    t = Series.variable(CTX, "t")
    check = identity_check("probe", "empty", t, 2 * t, CTX.t_max, -1)
    assert check.ok is None
    # vacuous, so neither the summary line nor the JSON may read ok
    section = _identity_section((check,))
    assert section.lines[0].startswith("skip probe")
    assert section.ok is None
    assert section.value == {"ok": None, "checks": [{
        "key": "probe", "formula": "empty", "ok": None,
        "region": {"t_max": CTX.t_max, "magnitude_max": -1}, "first_diff": None,
    }]}


# -- displayed table ---------------------------------------------------------------


def test_table_terms_order_and_values():
    got = table_terms(4)
    assert [(str(p), c) for p, c in got] == [("u4", 1), ("u2 u3", 12), ("u2^3", 16)]


def test_render_table_lines():
    assert render_table_line(1) == "[t/1!]T = 1"
    assert render_table_line(2) == "[t²/2!]T = u₂"
    assert render_table_line(3) == "[t³/3!]T = u₃ + 3u₂²"
    assert render_table_line(4) == "[t⁴/4!]T = u₄ + 12u₂u₃ + 16u₂³"
    assert (
        render_table_line(5)
        == "[t⁵/5!]T = u₅ + 20u₂u₄ + 15u₃² + 150u₃u₂² + 125u₂⁴"
    )


def test_pretty_monomial_equals_sort_key_twin():
    # twice over, so the second pass reads every factor from the cache
    for _ in range(2):
        for profile in iter_profiles(20, max_size=21):
            assert _pretty_monomial(profile) == pretty_monomial_by_sort_key(profile)


def test_render_table_line_n6_value():
    line = render_table_line(6)
    assert "2160u₃u₂³" in line
    assert "1296u₂⁵" in line
