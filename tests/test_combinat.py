"""Partitions, multinomials and Stirling numbers against known tables."""

from decimal import Decimal
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from hypertrees.combinat import partitions, stirling2
from oracles import multinomial, partitions_as_parts, stirling2_by_recurrence


def multiplicities(parts):
    """The multiplicity vector of a partition: entry i counts the parts of size i + 1."""
    return tuple(parts.count(size) for size in range(1, max(parts, default=0) + 1))


def test_partitions_of_five_in_rev_lex_order():
    assert list(partitions(5)) == [
        (0, 0, 0, 0, 1),  # 5
        (1, 0, 0, 1),  # 4 + 1
        (0, 1, 1),  # 3 + 2
        (2, 0, 1),  # 3 + 1 + 1
        (1, 2),  # 2 + 2 + 1
        (3, 1),  # 2 + 1 + 1 + 1
        (5,),  # 1 + 1 + 1 + 1 + 1
    ]


def test_partitions_edge_cases():
    assert list(partitions(0)) == [()]
    assert list(partitions(3, max_part=2)) == [(1, 1), (3,)]
    assert list(partitions(3, max_part=0)) == []
    with pytest.raises(ValueError):
        list(partitions(-1))


def test_partitions_match_the_part_tuple_twin():
    for n in range(26):
        for max_part in [None, *range(-1, n + 2)]:
            twin = [multiplicities(p) for p in partitions_as_parts(n, max_part)]
            assert list(partitions(n, max_part)) == twin, (n, max_part)


def test_partition_counts_match_known_sequence():
    # number of partitions of n: 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
    counts = [sum(1 for _ in partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_multinomial_values():
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (3, 1, 1)) == 20
    assert multinomial(0, ()) == 1
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_multinomial_pair_is_binomial(a, b):
    assert multinomial(a + b, (a, b)) == comb(a + b, a)


def _row(n):
    return tuple(stirling2(n, k) for k in range(n + 1))


def test_stirling_small_table():
    assert _row(0) == (1,)
    assert _row(4) == (0, 1, 7, 6, 1)
    assert _row(5) == (0, 1, 15, 25, 10, 1)
    assert stirling2(6, 3) == 90
    assert stirling2(3, 5) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(0, -1)
    for bad in (5.0, 2.5, "5", Decimal("5")):
        with pytest.raises(TypeError, match="need int n and k"):
            stirling2(bad, 2)
        with pytest.raises(TypeError, match="need int n and k"):
            stirling2(5, bad)


def test_bell_numbers():
    assert [sum(_row(n)) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_stirling_counts_surjections():
    # k! S(n, k) counts the maps of an n-set onto a k-set, listed one by one
    for n, k in product(range(7), repeat=2):
        surjections = sum(len(set(f)) == k for f in product(range(k), repeat=n))
        assert factorial(k) * stirling2(n, k) == surjections, (n, k)


def test_stirling_equals_recurrence_twin():
    assert all(stirling2(n, k) == stirling2_by_recurrence(n, k)
               for n in range(40) for k in range(45))
