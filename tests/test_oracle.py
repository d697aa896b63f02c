"""Brute-force layer: enumeration, literal classification, counting kernel.

The counting kernel (a transfer over the block sizes of component
partitions) and the classifier both read hypertrees off the magnitude
lemma, so neither is trusted alone: the kernel is held against the
transfer over labeled set partitions that it lumps and against a
union-find pass over every assignment, and the classifier against
union-find per hypergraph; each twin finds cycles literally.
"""

import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypertrees import hypergraphs
from hypertrees.combinat import partitions
from hypertrees.hypergraphs import (
    BudgetExceededError,
    EdgeProfile,
    Hypergraph,
    classify,
    count_profile,
    count_sweep,
    iter_profiles,
    parse_hypergraph,
    profiles,
)
from hypertrees.series import TruncationContext
from oracles import (
    ENUMERATION_N_MAX,
    assignment_count,
    classify_by_union_find,
    count_by_partitions,
    count_profile_by_enumeration,
    enumerate_hypergraphs,
    factorial_norm,
    kernel_steps_by_enumeration,
    magnitude_law_violations,
    oracle_polynomials,
    slot_sizes,
    sweep_by_partitions,
)

DATA = Path(__file__).parent / "data"


# -- profiles -----------------------------------------------------------------


def test_profile_parse_and_str():
    p = EdgeProfile.parse("u2=2, u3=1", 3)
    assert p.counts == (2, 1)
    assert str(p) == "u2^2 u3"
    assert p.magnitude == 4
    assert sum(p.counts) == 3
    assert slot_sizes(p) == (2, 2, 3)
    assert EdgeProfile.parse("", 2) == EdgeProfile()
    with pytest.raises(ValueError):
        EdgeProfile.parse("v2=1", 3)
    with pytest.raises(ValueError):
        EdgeProfile.parse("u1=1", 3)
    with pytest.raises(ValueError, match="u4 has more vertices than n = 3"):
        EdgeProfile.parse("u2=1,u4=1", 3)


def test_profile_normalizes_trailing_zeros():
    assert EdgeProfile((1, 0, 0)) == EdgeProfile((1,))
    assert EdgeProfile.from_dict({4: 1}, 4).counts == (0, 0, 1)
    assert Hypergraph(3, ((1, 2), (1, 2, 3), (1, 2, 3))).profile() == EdgeProfile((1, 2))


def test_profile_sizes_are_bounded_before_counts_are_built():
    # a dense counts tuple to u10^9 would take minutes and gigabytes
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^an edge of u1000000000 has more vertices than n = 5$"):
        EdgeProfile.from_dict({10**9: 1}, 5)
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="^edge sizes start at 2$"):
        EdgeProfile.from_dict({1: 1}, 5)


def test_profile_rejects_non_integral_counts():
    # converted before it is trimmed: (0.5,) neither becomes an untrimmed (0,) nor a u2
    for counts in [(0.5,), (1.5,), (1, 0.5), (2, 0, 1e-9)]:
        with pytest.raises(ValueError):
            EdgeProfile(counts)
    with pytest.raises(ValueError):
        EdgeProfile.from_dict({2: 2.7}, 2)
    # counts int() itself refuses get the same error, not int()'s own
    for bad in [float("inf"), None, float("nan")]:
        with pytest.raises(ValueError, match="^edge counts must be non-negative integers$"):
            EdgeProfile((bad,))
    whole = EdgeProfile((2.0, 1.0, 0.0))
    assert whole == EdgeProfile((2, 1))
    assert [type(c) for c in whole.counts] == [int, int]


def test_profiles_equal_validated_partitions():
    # the stream skips the constructor's checks; the constructor is its twin
    for m in range(21):
        for max_size in [None, *range(1, m + 3)]:
            max_part = None if max_size is None else max_size - 1
            got = list(profiles(m, max_size))
            assert got == [EdgeProfile(c) for c in partitions(m, max_part)], (m, max_size)
            for profile in got:
                assert type(profile.counts) is tuple
                assert all(type(c) is int for c in profile.counts)
                assert not profile.counts or profile.counts[-1]


def test_iter_profiles_ordered_by_magnitude():
    got = list(iter_profiles(3, max_size=4))
    mags = [p.magnitude for p in got]
    assert mags == sorted(mags)
    assert got[0] == EdgeProfile()
    assert EdgeProfile((0, 0, 1)) in got  # one 4-edge, magnitude 3
    assert EdgeProfile((3,)) in got
    assert len(set(got)) == len(got)


def test_factorial_norm():
    assert factorial_norm(EdgeProfile.parse("u2=3,u3=2", 3)) == 12
    assert factorial_norm(EdgeProfile()) == 1


# -- hypergraphs and literal classifiers ----------------------------------------


def test_sample_fixture_matches_worked_example():
    h = parse_hypergraph((DATA / "sample5.txt").read_text())
    assert h.n == 5
    assert h.profile() == EdgeProfile.parse("u2=4,u3=3", 5)
    assert h.edge_magnitude == 10
    assert classify(h) == (True, False)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(3, ((1,),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((2, 1),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((1, 4),))
    with pytest.raises(ValueError):
        Hypergraph(3, ((1, 2, 3), (1, 2)))  # sizes must ascend


def test_single_vertex_is_a_hypertree():
    assert classify(Hypergraph(1, ())) == (True, True)
    assert classify(Hypergraph(0, ())) == (False, False)


def test_disconnected_and_cyclic_cases():
    assert classify(Hypergraph(4, ((1, 2), (3, 4)))) == (False, False)
    assert classify(Hypergraph(2, ((1, 2), (1, 2)))) == (True, False)
    # two 3-edges sharing two vertices: connected, cyclic
    assert classify(Hypergraph(4, ((1, 2, 3), (1, 2, 4)))) == (True, False)
    path = Hypergraph(5, ((4, 5), (1, 2, 3), (3, 4, 5)))
    assert classify(path) == (True, False)  # 4-5 inside {3,4,5} closes a cycle
    assert classify(Hypergraph(5, ((1, 2, 3), (3, 4, 5)))) == (True, True)


def format_hypergraph(h):
    """The text that parse_hypergraph reads: n, then one edge per line."""
    return "\n".join([str(h.n)] + [" ".join(map(str, edge)) for edge in h.edges]) + "\n"


def test_format_parse_round_trip():
    h = Hypergraph(5, ((1, 2), (2, 5), (1, 3, 4)))
    assert parse_hypergraph(format_hypergraph(h)) == h
    with pytest.raises(ValueError):
        parse_hypergraph("\n\n")


def test_enumeration_is_deterministic_and_complete():
    profile = EdgeProfile.parse("u2=1,u3=1", 4)
    first = list(enumerate_hypergraphs(4, profile))
    second = list(enumerate_hypergraphs(4, profile))
    assert first == second
    assert len(first) == assignment_count(4, profile) == 6 * 4


def test_budget_is_enforced_up_front():
    profile = EdgeProfile.parse("u2=7", 5)
    with pytest.raises(ValueError, match="needs 10000000 hypergraphs, over the budget of 1000000"):
        list(enumerate_hypergraphs(5, profile, budget=10**6))
    # the kernel's budget counts its steps, one per (state, move) pair of a slot
    profile = EdgeProfile.parse("u2=5", 5)
    steps = kernel_steps_by_enumeration(5, slot_sizes(profile))[-1]
    assert steps == 40
    with pytest.raises(BudgetExceededError, match="kernel steps") as exc:
        count_profile(5, profile, budget=steps - 1)
    assert exc.value.required == steps
    assert exc.value.budget == steps - 1
    assert count_profile(5, profile, budget=steps).total == 10**5
    with pytest.raises(ValueError):
        list(enumerate_hypergraphs(ENUMERATION_N_MAX + 1, EdgeProfile()))


# the slots of each profile in ascending size, the order the kernel fills them in
METERED = [(4, (2, 2, 2, 2)), (5, (2, 2, 3, 3)), (5, (2, 3, 4)), (3, (2, 2, 3)), (2, (2,))]


@pytest.mark.parametrize("n,sizes", METERED, ids=[f"n{n}-{s}" for n, s in METERED])
def test_kernel_refuses_a_slot_before_building_it(monkeypatch, n, sizes):
    profile = EdgeProfile.from_dict(Counter(sizes), n)
    assert slot_sizes(profile) == sizes
    priced = []  # the move count of every state the meter priced, in order
    moves = hypergraphs._moves

    def recorded(blocks, s):
        out = moves(blocks, s)
        priced.append(len(out))
        return out

    monkeypatch.setattr(hypergraphs, "_moves", recorded)
    counted = kernel_steps_by_enumeration(n, sizes)
    expected = (*count_profile_by_enumeration(n, sizes), counted[-1])
    for spent in (0, 3):  # steps already used by earlier profiles of a sweep
        running = [spent + s for s in counted]
        for budget in sorted({0, 1} | {s + d for s in running for d in (-1, 0, 1)}):
            priced.clear()
            within = [s for s in running if s <= budget]
            if budget < spent + len(sizes):
                # every slot costs a step: refused up front, before any state is priced
                with pytest.raises(BudgetExceededError) as exc:
                    count_profile(n, profile, budget, spent)
                assert exc.value.required == spent + len(sizes)
                assert priced == []
            elif len(within) == len(sizes):
                row = count_profile(n, profile, budget, spent)
                assert (row.total, row.connected, row.hypertree, row.steps) == expected
                assert sum(priced) == row.steps
            else:
                with pytest.raises(BudgetExceededError) as exc:
                    count_profile(n, profile, budget, spent)
                # refused at the first state that took the count past budget, in the
                # first slot that does not fit, before that slot moved any state
                assert budget < exc.value.required <= running[len(within)]
                assert spent + sum(priced) == exc.value.required
                assert spent + sum(priced) - priced[-1] <= budget


def test_sweep_meters_one_budget_for_the_whole_run():
    # each profile alone fits in 100 steps, the n = 5 sweep to magnitude 6 does not;
    # 331 and 54 are the sum and the largest of kernel_steps_by_enumeration's
    # counts over the 27 profiles
    rows = count_sweep(5, 6)
    steps = [row.steps for row in rows]
    assert (sum(steps), max(steps)) == (331, 54)
    assert count_sweep(5, 6, budget=sum(steps)) == rows
    with pytest.raises(BudgetExceededError) as exc:
        count_sweep(5, 6, budget=sum(steps) - 1)
    assert (exc.value.required, exc.value.budget) == (sum(steps), sum(steps) - 1)
    with pytest.raises(BudgetExceededError) as exc:
        count_sweep(5, 6, budget=100)
    assert exc.value.required > 100 > max(steps)


# -- counting kernel ------------------------------------------------------------


FROZEN_ROWS = [
    # (n, profile, total, connected, hypertree); counts label edges in
    # each size class, so a profile with k equal-size edges counts each
    # plain hypergraph k! times
    (1, "", 1, 1, 1),
    (2, "u2=1", 1, 1, 1),
    (3, "u2=2", 9, 6, 6),
    (3, "u3=1", 1, 1, 1),
    (4, "u2=3", 216, 96, 96),
    (4, "u2=1,u3=1", 24, 12, 12),
    (5, "u3=2", 100, 30, 30),
    (5, "u2=4", 10000, 3000, 3000),
    # connected but never a hypertree, above magnitude n - 1: a kernel that took
    # every connected hypergraph for a hypertree fails these
    (3, "u2=3", 27, 24, 0),
    (4, "u3=2", 16, 12, 0),
    (4, "u2=1,u3=2", 96, 84, 0),
]


@pytest.mark.parametrize("n,text,total,connected,hypertree", FROZEN_ROWS)
def test_frozen_counts(n, text, total, connected, hypertree):
    row = count_profile(n, EdgeProfile.parse(text, n))
    assert (row.total, row.connected, row.hypertree) == (total, connected, hypertree)


def test_spanning_trees_match_cayley():
    # k = n-1 plain 2-edges: n^{n-2} labeled trees, times (n-1)! slot orders
    from math import factorial

    for n in range(2, 6):
        profile = EdgeProfile.from_dict({2: n - 1}, n)
        row = count_profile(n, profile)
        assert row.hypertree == n ** (n - 2) * factorial(n - 1)


def test_kernels_agree_with_literal_classifiers():
    for n in range(1, 5):
        for profile in iter_profiles(4 if n < 4 else 3, max_size=n):
            total = connected = hypertree = 0
            for h in enumerate_hypergraphs(n, profile):
                total += 1
                c, ht = classify_by_union_find(h)
                connected += c
                hypertree += ht
            row = count_profile(n, profile)
            assert (row.total, row.connected, row.hypertree) == (
                total,
                connected,
                hypertree,
            ), f"kernel disagrees with literal route at n={n} {profile}"


def test_classifiers_equal_union_find_per_hypergraph():
    # per hypergraph, so errors cannot cancel as they can in aggregate counts
    checked = 0
    for n in range(1, 6):
        for profile in iter_profiles(4, max_size=n):
            for h in enumerate_hypergraphs(n, profile):
                assert classify(h) == classify_by_union_find(h), h
                checked += 1
    assert checked == 14268  # the sum of assignment_count over these cells


TWIN_PROFILES = [
    (n, profile)
    for n, mag in [(1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (6, 4)]
    for profile in iter_profiles(mag, max_size=n)
]


@pytest.mark.parametrize(
    "n,profile", TWIN_PROFILES, ids=[f"n{n}-{p}" for n, p in TWIN_PROFILES]
)
def test_kernel_equals_enumeration_twin(n, profile):
    # the counts by union-find over every assignment, the steps from counted states
    sizes = slot_sizes(profile)
    steps = kernel_steps_by_enumeration(n, sizes)
    expected = (*count_profile_by_enumeration(n, sizes), steps[-1] if steps else 0)
    row = count_profile(n, profile)
    assert (row.total, row.connected, row.hypertree, row.steps) == expected
    # the set-partition twin also answers every one of these with the union-find counts
    assert count_by_partitions(n, sizes)[:3] == expected[:3]


# (n, magnitude, twin budget): at its default budget of 10,000,000 the set-partition
# twin reaches every profile of n <= 7 to magnitude 7, about a second at n = 7; for
# n = 8..10 a cut budget keeps its cheaper profiles and refuses the rest up front
PARTITION_TWIN_GRID = [(n, 7, 10_000_000) for n in range(1, 8)] + [
    (n, n - 1, 50_000) for n in range(8, 11)
]


def test_kernel_equals_set_partition_twin():
    reached = refused = 0
    for n, mag, budget in PARTITION_TWIN_GRID:
        for profile in iter_profiles(mag, max_size=n):
            try:
                twin = count_by_partitions(n, slot_sizes(profile), budget)
            except BudgetExceededError:
                refused += 1
                continue
            row = count_profile(n, profile)
            assert (row.total, row.connected, row.hypertree) == twin[:3], (n, profile)
            reached += 1
    assert (reached, refused) == (184 + 50, 159)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kernel_ignores_slot_order(data):
    n = data.draw(st.integers(1, 5))
    sizes = data.draw(st.lists(st.integers(2, max(2, n)), max_size=4))
    profile = EdgeProfile(tuple(sizes.count(s) for s in range(2, max(sizes, default=1) + 1)))
    shuffled = tuple(data.draw(st.permutations(sizes)))
    # the kernel fills the slots in ascending size; the twin's counts do not
    # depend on the order it fills them in
    row = count_profile(n, profile)
    assert (row.total, row.connected, row.hypertree) == count_profile_by_enumeration(n, shuffled)


def test_kernel_input_validation():
    with pytest.raises(ValueError):
        count_profile(0, EdgeProfile((1,)))
    # a size-1 slot cannot reach count_profile: EdgeProfile has no size below 2
    with pytest.raises(ValueError):
        count_by_partitions(0, (2,))
    with pytest.raises(ValueError):
        count_by_partitions(3, (1,))


# -- the magnitude law ----------------------------------------------------------


def test_sweep_satisfies_magnitude_law():
    # the kernel reads hypertrees off the law, so the law is checked on the twin's rows
    for n in range(1, 5):
        assert magnitude_law_violations(sweep_by_partitions(n, max_magnitude=5)) == []


def test_sweep_step_totals():
    # the kernel's steps for every profile to magnitude n - 1, as CI's n = 12 run takes
    for n, steps in [(12, 37_360), (14, 156_524)]:
        assert sum(row.steps for row in count_sweep(n, n - 1)) == steps


def test_law_checker_flags_planted_violations():
    from hypertrees.hypergraphs import CountRow

    bad = (
        CountRow(3, EdgeProfile.parse("u2=1", 3), 3, 1, 0),  # connected below n-1
        CountRow(3, EdgeProfile.parse("u2=2", 3), 9, 6, 5),  # hypertree != connected
        CountRow(3, EdgeProfile.parse("u2=3", 3), 27, 26, 1),  # hypertree above n-1
    )
    assert len(magnitude_law_violations(bad)) == 3


def test_count_row_orders_counts():
    from hypertrees.hypergraphs import CountRow

    with pytest.raises(ValueError):
        CountRow(3, EdgeProfile.parse("u2=2", 3), 9, 6, 7)


# -- oracle polynomials ----------------------------------------------------------


def test_oracle_polynomials_small():
    ctx = TruncationContext(t_max=4, magnitude_max=4)
    C3, T3 = oracle_polynomials(3, ctx)
    u = lambda **kw: ctx.monomial(u={int(k[1:]): v for k, v in kw.items()})
    assert T3.coefficient(u(u3=1)) == 1
    assert T3.coefficient(u(u2=2)) == 3
    assert C3.coefficient(u(u2=2)) == 3
    # 27 slot assignments, disconnected only when all three repeat one pair
    assert C3.coefficient(u(u2=3)) == Fraction(27 - 3, 6)
    _, T4 = oracle_polynomials(4, ctx)
    assert T4.coefficient(u(u4=1)) == 1
    assert T4.coefficient(u(u2=1, u3=1)) == 12
    assert T4.coefficient(u(u2=3)) == 16


# -- property: edges of an enumerated hypergraph are canonical -------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(0, 40))
def test_enumerated_hypergraphs_are_canonical(n, skip):
    profile = EdgeProfile.parse("u2=1,u3=1", n) if n >= 3 else EdgeProfile.parse("u2=2", n)
    stream = enumerate_hypergraphs(n, profile)
    h = None
    for _ in range(skip % assignment_count(n, profile) + 1):
        h = next(stream)
    assert h.profile() == profile
    for edge in h.edges:
        assert list(edge) == sorted(set(edge))
    assert parse_hypergraph(format_hypergraph(h)) == h
