"""Closed-form hypertree counts, by Lagrange inversion, and the table's
terms: no power series, so ``count`` and ``table`` load no series stack."""

from __future__ import annotations

from math import factorial, perm

from .combinat import stirling2
from .hypergraphs import EdgeProfile, profiles


def count_by_profile(n: int, profile: EdgeProfile) -> tuple[int, int]:
    """(rooted, unrooted) hypertree counts on 1..n for one edge profile.

    Hypertrees with a_s edges of s vertices induce a partition of n - 1
    into a_s blocks of size s - 1.  With k = sum_s a_s edges the rooted
    count is a multinomial count of set partitions times n^k:

        (n - 1)! * n^k / prod_s ((s - 1)!^(a_s) * a_s!).

    One pass over the counts sums the magnitude and k and builds the
    denominator; one divmod then gives the rooted count and a second the
    unrooted one, and a non-zero remainder of either raises.  One top!
    of the largest block size top cancels against (n - 1)! up front.
    Profiles off the magnitude n - 1 surface admit no hypertrees at all.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    magnitude = edges = i = 0
    denominator = 1
    top = len(profile.counts)  # the counts carry no trailing zeros
    for a in profile.counts:  # a edges of i + 1 vertices
        i += 1
        if a:
            magnitude += i * a
            if magnitude >= n:  # off the surface, before a factorial outgrows n
                return (0, 0)
            edges += a
            if i < top:
                denominator *= factorial(i) ** a * factorial(a)
            elif a > 1:  # one copy of top! is cancelled below
                denominator *= factorial(i) ** (a - 1) * factorial(a)
    if magnitude != n - 1:
        return (0, 0)
    rooted, rest = divmod(perm(n - 1, n - 1 - top) * n**edges, denominator)
    unrooted, off = divmod(rooted, n)
    if rest or off:
        raise AssertionError(f"count of {profile} on n = {n} is not a multiple of n")
    return (rooted, unrooted)


def rooted_count_by_edges(n: int, k: int) -> int:
    """Rooted hypertrees on 1..n with exactly k edges: n^k * S(n-1, k).

    Out-of-range k gives 0, except the degenerate n = 1, k = 0 where the
    single empty rooted hypertree counts as 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if k < 0 or k > max(n - 1, 0):
        return 0
    return n**k * stirling2(n - 1, k)


def table_terms(n: int) -> list[tuple[EdgeProfile, int]]:
    """Unrooted hypertree counts for [t^n/n!] T, one term per edge profile.

    The profiles are profiles(n - 1), the partitions of n - 1 in reverse
    lexicographic order: each lies on the magnitude n - 1 surface, so
    each count is positive.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return [(profile, count_by_profile(n, profile)[1]) for profile in profiles(n - 1)]
