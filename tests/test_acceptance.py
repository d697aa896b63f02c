"""Acceptance gate: every shipped guarantee, timed, at zero tolerance.

Each test exercises one criterion end to end and reports one PASS/FAIL
line through the acceptance log (printed in the terminal summary).
"""

import time

from click.testing import CliRunner

import pytest

from hypertrees.cli import main
from hypertrees.closed import count_by_profile, table_terms
from hypertrees.combinat import stirling2
from hypertrees.funceq import (
    diagonal_mismatches,
    hypertree_dictionary_report,
    lhs_series,
    psi_from_phi,
    random_phi,
    substituted_connected_gf,
    verify_psi_form,
)
from hypertrees.gf import (
    T_from_R,
    compute_C,
    compute_T,
    hypertree_series,
    solve_R_fixed_point,
    verify_identities,
)
from hypertrees.hypergraphs import (
    EdgeProfile,
    count_profile,
    count_sweep,
    iter_profiles,
    profiles,
)
from hypertrees.series import TruncationContext, first_difference
from oracles import (
    classify_by_union_find,
    egf_profile_coefficient,
    enumerate_hypergraphs,
    factorial_norm,
    magnitude_law_violations,
    sweep_by_partitions,
)

SEEDS = tuple(range(42, 62))

TABLE_LINES = [
    "[t/1!]T = 1",
    "[t²/2!]T = u₂",
    "[t³/3!]T = u₃ + 3u₂²",
    "[t⁴/4!]T = u₄ + 12u₂u₃ + 16u₂³",
    "[t⁵/5!]T = u₅ + 20u₂u₄ + 15u₃²"
    " + 150u₃u₂² + 125u₂⁴",
]


BIG_CTX = TruncationContext(t_max=6, magnitude_max=6)


@pytest.fixture(scope="module")
def big_C():
    return compute_C(BIG_CTX)


@pytest.fixture(scope="module")
def big_T_and_R(big_C):
    """The hypertree layer T and R = t dT/dt, read off it."""
    return hypertree_series(big_C)


@pytest.fixture(scope="module")
def big_T(big_T_and_R):
    return big_T_and_R[0]


@pytest.fixture(scope="module")
def big_R(big_T_and_R):
    return big_T_and_R[1]


def test_c1_table_reproduction(acceptance, big_C):
    start = time.monotonic()
    result = CliRunner().invoke(main, ["table", "--max-n", "5"])
    lines_ok = result.exit_code == 0 and result.output.splitlines() == TABLE_LINES

    # The n = 6 line is checked by value: every coefficient against the
    # series pipeline, and the u3 u2^3 term against brute force as well.
    terms = table_terms(6)
    big_T = compute_T(big_C)
    six_ok = len(terms) == len(set(p for p, _ in terms)) > 0
    for profile, coeff in terms:
        slot_labeled = egf_profile_coefficient(big_T, 6, profile)
        six_ok = six_ok and coeff * factorial_norm(profile) == slot_labeled
    probe = EdgeProfile.parse("u2=3,u3=1", 6)
    row = count_profile(6, probe)
    six_ok = six_ok and dict(terms)[probe] == 2160
    six_ok = six_ok and row.hypertree == 2160 * factorial_norm(probe)

    elapsed = time.monotonic() - start
    ok = lines_ok and six_ok and elapsed < 10.0
    acceptance.check(
        "C1",
        ok,
        f"5 display lines token-for-token, n=6 by value, {elapsed:.2f}s < 10s",
    )


def quadruple_agreement(reach):
    """C2's routes on every hypertree profile on n <= reach vertices: the log
    route, the fixed point, the closed form and the kernel.  Returns (every
    route agrees, profiles checked)."""
    ctx = TruncationContext(t_max=reach, magnitude_max=reach - 1)
    T_log = compute_T(compute_C(ctx))
    T_fixed = T_from_R(solve_R_fixed_point(ctx))
    checked = 0
    ok = True
    for n in range(1, reach + 1):
        for profile in profiles(n - 1, max_size=n):
            via_log = egf_profile_coefficient(T_log, n, profile)
            via_fixed_point = egf_profile_coefficient(T_fixed, n, profile)
            rooted, unrooted = count_by_profile(n, profile)
            via_closed_form = unrooted * factorial_norm(profile)
            via_enumeration = count_profile(n, profile).hypertree
            ok = ok and (
                via_log == via_fixed_point == via_closed_form == via_enumeration
            )
            ok = ok and rooted == n * unrooted
            checked += 1
    return ok, checked


def test_c2_quadruple_agreement(acceptance):
    start = time.monotonic()
    ok, checked = quadruple_agreement(14)
    elapsed = time.monotonic() - start
    ok = ok and checked == 373 and elapsed < 60.0
    acceptance.check(
        "C2",
        ok,
        f"4 routes on {checked} profiles, n <= 14, {elapsed:.2f}s < 60s",
    )


def test_c3_stirling_edge_counts(acceptance):
    start = time.monotonic()
    ok = True
    pairs = 0
    for n in range(2, 6):
        rooted_by_k: dict[int, int] = {}
        for profile in iter_profiles(n - 1, max_size=n):
            if profile.magnitude != n - 1:
                continue
            slot_labeled = count_profile(n, profile).hypertree
            norm = factorial_norm(profile)
            ok = ok and slot_labeled % norm == 0
            k = sum(profile.counts)
            rooted_by_k[k] = rooted_by_k.get(k, 0) + n * (slot_labeled // norm)
        for k in range(1, n):
            expected = n**k * stirling2(n - 1, k)
            ok = ok and rooted_by_k.get(k, 0) == expected
            pairs += 1
    elapsed = time.monotonic() - start
    ok = ok and pairs == 10 and elapsed < 30.0
    acceptance.check(
        "C3",
        ok,
        f"rooted-by-edge-count totals on {pairs} (n, k) pairs, {elapsed:.2f}s < 30s",
    )


def test_c4_identity_suite(acceptance, big_C, big_T, big_R):
    start = time.monotonic()
    fixed = solve_R_fixed_point(BIG_CTX)
    checks = verify_identities(big_C, big_T, big_R, fixed, 8)
    keys = {c.key for c in checks}
    required = {
        "connected-2edge",
        "connected-edge-recursion-u3",
        "connected-edge-recursion-u4",
        "connected-edge-recursion-u5",
        "tree-2edge",
        "tree-edge-recursion-u3",
        "tree-edge-recursion-u4",
        "tree-edge-recursion-u5",
        "tree-rooted-forest-u2",
        "tree-rooted-forest-u3",
        "tree-rooted-forest-u4",
        "tree-rooted-forest-u5",
        "magnitude-balance",
        "rooted-ratio",
        "all-ones-product",
    }
    elapsed = time.monotonic() - start
    ok = all(c.ok for c in checks)
    ok = ok and required <= keys and len(checks) == 18 and elapsed < 60.0
    acceptance.check(
        "C4",
        ok,
        f"{len(checks)} exact identities at t<=6, magnitude<=6, {elapsed:.2f}s < 60s",
    )


def test_c5_vanishing_pattern(acceptance):
    start = time.monotonic()
    ctx = TruncationContext(t_max=6, z_max=6, magnitude_max=0)
    ok = True
    for seed in SEEDS:
        ok = ok and verify_psi_form(lhs_series(random_phi(seed), ctx)) == []
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    acceptance.check(
        "C5",
        ok,
        f"coefficient support over {len(SEEDS)} seeded arrays at t<=6, z<=6, "
        f"{elapsed:.2f}s < 60s",
    )


def test_c6_substitution_equivalence(acceptance):
    start = time.monotonic()
    ctx = TruncationContext(t_max=6, z_max=6, magnitude_max=6)
    C = compute_C(ctx)
    ok = True
    for seed in SEEDS[:5]:
        direct = lhs_series(random_phi(seed), ctx)
        routed = substituted_connected_gf(random_phi(seed), C)
        ok = ok and first_difference(direct, routed) is None
    elapsed = time.monotonic() - start
    acceptance.check(
        "C6",
        ok,
        f"substitution route equals direct expansion on 5 seeded arrays, {elapsed:.2f}s",
    )


def test_c7_psi_diagonal_and_dictionary(acceptance, big_T, big_R):
    start = time.monotonic()
    ctx_tz = TruncationContext(t_max=6, z_max=6, magnitude_max=0)
    ctx_diag = TruncationContext(t_max=6, magnitude_max=0)
    ok = True
    for seed in SEEDS:
        phi = random_phi(seed)
        L = lhs_series(phi, ctx_tz)
        psi = psi_from_phi(phi.phi_series(ctx_diag))
        ok = ok and diagonal_mismatches(psi, L) == []
    dictionary = hypertree_dictionary_report(big_T, big_R, solve_R_fixed_point(BIG_CTX))
    ok = ok and all(c.ok for c in dictionary)
    elapsed = time.monotonic() - start
    acceptance.check(
        "C7",
        ok,
        f"psi diagonal through order 5 on {len(SEEDS)} arrays plus the"
        f" hypertree dictionary, {elapsed:.2f}s",
    )


def test_c8_magnitude_lemma(acceptance):
    start = time.monotonic()
    violations: list[str] = []
    # the library reads hypertrees off the lemma, so it is checked on the rows of
    # the set-partition twin, which finds cycles literally
    for n in range(1, 6):
        violations.extend(magnitude_law_violations(sweep_by_partitions(n, 6)))

    # independent per-instance confirmation through union-find
    instance_ok = True
    instances = 0
    spot = [(n, p) for n in range(1, 5) for p in iter_profiles(4, max_size=n)]
    spot += [
        (5, EdgeProfile.parse("u2=4", 5)),
        (5, EdgeProfile.parse("u3=2", 5)),
        (5, EdgeProfile.parse("u3=1,u4=1", 5)),
        (5, EdgeProfile.parse("u5=1", 5)),
    ]
    for n, profile in spot:
        mag = profile.magnitude
        for h in enumerate_hypergraphs(n, profile):
            connected, hypertree = classify_by_union_find(h)
            if connected:
                instance_ok = instance_ok and mag >= n - 1
                instance_ok = instance_ok and (mag == n - 1) == hypertree
            else:
                instance_ok = instance_ok and not hypertree
            instances += 1
    elapsed = time.monotonic() - start
    ok = not violations and instance_ok and instances > 0
    acceptance.check(
        "C8",
        ok,
        f"set-partition sweep n <= 5, magnitude <= 6 clean; {instances} instances"
        f" re-checked literally, {elapsed:.2f}s",
    )


def test_c9_negative_control(acceptance):
    start = time.monotonic()
    result = CliRunner().invoke(
        main,
        [
            "verify",
            "--t-max", "3",
            "--z-max", "3",
            "--max-edge-size", "4",
            "--trials", "1",
            "--sub-trials", "1",
            "--inject-fault",
        ],
    )
    elapsed = time.monotonic() - start
    ok = result.exit_code != 0 and "FAIL" in result.output
    acceptance.check(
        "C9",
        ok,
        f"fault injection drives verify to exit {result.exit_code}, {elapsed:.2f}s",
    )


def connected_counts_agree(reach):
    """C10's cells: n! a! [t^n u^a] C against the kernel's connected count, for
    n <= reach at magnitude <= reach - 1.  Returns (every cell agrees, cells,
    cells off the hypertree surface)."""
    C = compute_C(TruncationContext(t_max=reach, magnitude_max=reach - 1))
    ok = True
    cells = off_surface = 0
    for n in range(1, reach + 1):
        for row in count_sweep(n, reach - 1):
            ok = ok and egf_profile_coefficient(C, n, row.profile) == row.connected
            cells += 1
            off_surface += row.profile.magnitude != n - 1
    return ok, cells, off_surface


def test_c10_connected_counts_off_the_surface(acceptance):
    start = time.monotonic()
    ok, cells, off_surface = connected_counts_agree(14)
    elapsed = time.monotonic() - start
    ok = ok and cells == 3455 and elapsed < 60.0
    acceptance.check(
        "C10",
        ok,
        f"n! a! [t^n u^a] C equals the kernel's connected count on {cells} cells,"
        f" {off_surface} off the hypertree surface, n <= 14, magnitude <= 13,"
        f" {elapsed:.2f}s < 60s",
    )
