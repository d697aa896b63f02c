"""Partitions, multinomials and Stirling numbers against known tables."""

from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from hypertrees.combinat import StirlingTable, part_multiplicities, partitions
from oracles import multinomial


def test_partitions_of_five_in_rev_lex_order():
    assert list(partitions(5)) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_partitions_edge_cases():
    assert list(partitions(0)) == [()]
    assert list(partitions(3, max_part=2)) == [(2, 1), (1, 1, 1)]
    assert list(partitions(3, max_part=0)) == []
    with pytest.raises(ValueError):
        list(partitions(-1))


def test_partition_counts_match_known_sequence():
    # number of partitions of n: 1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42
    counts = [sum(1 for _ in partitions(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_part_multiplicities():
    assert part_multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    assert part_multiplicities(()) == {}


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


def test_stirling_small_table():
    table = StirlingTable()
    assert table.row(0) == (1,)
    assert table.row(4) == (0, 1, 7, 6, 1)
    assert table.row(5) == (0, 1, 15, 25, 10, 1)
    assert table.stirling2(6, 3) == 90
    assert table.stirling2(3, 5) == 0
    with pytest.raises(ValueError):
        table.stirling2(-1, 0)


def test_bell_numbers():
    table = StirlingTable()
    assert [sum(table.row(n)) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10))
def test_stirling_by_inclusion_exclusion(n, k):
    # k! S(n, k) counts surjections onto a k-set
    surjections = sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))
    assert factorial(k) * StirlingTable().stirling2(n, k) == surjections
