"""Small exact combinatorial helpers: partitions and Stirling numbers.

A partition is its multiplicity vector: entry i counts the parts of size
i + 1, with no trailing zeros, which is the layout of an edge profile.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Iterator


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts bounded by max_part, as multiplicity vectors.

    The stream is in reverse lexicographic order of the parts: the parts
    (n), (n-1, 1), ..., (1,) * n come as (0, ..., 0, 1), (1, 0, ..., 1),
    ..., (n,).  partitions(0) yields the single empty partition ().
    """
    if n < 0:
        raise ValueError("partitions need n >= 0")
    top = n if max_part is None else min(n, max_part)
    if top < 1:  # only n = 0 has a partition then, the empty one
        if n == 0:
            yield ()
        return
    counts = [0] * top
    k, free, length = top, n, top  # counts[length - 1] is the largest part's count
    while True:
        # spread `free` over parts of size <= k: as many k's as fit, then the rest
        counts[k - 1] += free // k
        if free % k:
            counts[free % k - 1] += 1
        yield tuple(counts[:length])
        # the next partition: the smallest part above 1 loses one, and the 1s go with it
        for k in range(1, length):
            if counts[k]:
                break
        else:
            return
        free = k + 1 + counts[0]
        counts[k] -= 1
        counts[0] = 0
        if not counts[k] and k == length - 1:
            length = k


def stirling2(n: int, k: int) -> int:
    """Stirling set number S(n, k) by inclusion-exclusion over the k blocks
    left empty: k! S(n, k) = sum_i (-1)^i C(k, i) (k - i)^n counts the
    surjections onto k blocks."""
    if not (isinstance(n, int) and isinstance(k, int)):
        raise TypeError(f"Stirling numbers need int n and k, got {n!r}, {k!r}")
    if n < 0 or k < 0:
        raise ValueError("Stirling numbers need n, k >= 0")
    if k > n:
        return 0
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)
