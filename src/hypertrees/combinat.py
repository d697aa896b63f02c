"""Small exact combinatorial helpers: partitions and Stirling numbers.

Partitions are represented as non-increasing tuples of positive parts;
``part_multiplicities`` recovers the multiset view used by edge profiles.
"""

from __future__ import annotations

from typing import Iterator


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts bounded by max_part, largest part first.

    The stream is in reverse lexicographic order: (n), (n-1, 1), ...,
    (1,) * n.  partitions(0) yields the single empty partition.
    """
    if n < 0:
        raise ValueError("partitions need n >= 0")
    first = n if max_part is None else min(n, max_part)

    def rec(remaining: int, bound: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, bound), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, first if n else 0, ())


def part_multiplicities(parts: tuple[int, ...]) -> dict[int, int]:
    """Map each part size to its multiplicity."""
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


def stirling2(n: int, k: int) -> int:
    """Stirling set number S(n, k), one row at a time by the recurrence
    S(n, k) = k * S(n-1, k) + S(n-1, k-1), keeping columns 0..k only."""
    if n < 0 or k < 0:
        raise ValueError("Stirling numbers need n, k >= 0")
    if k > n:
        return 0
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(n):
        for i in range(k, 0, -1):
            row[i] = i * row[i] + row[i - 1]
        row[0] = 0
    return row[k]
