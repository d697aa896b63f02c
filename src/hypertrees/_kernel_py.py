"""Pure-Python counting kernel behind the brute-force oracle.

Given n labeled vertices and a list of edge sizes, walk every assignment of
a vertex subset to each edge slot and classify it with a union-find pass:
connected iff the merges reach n - 1, acyclic iff no edge ever touched two
vertices already in one component.
"""

from __future__ import annotations

from itertools import combinations, product

KERNEL_NAME = "python"


def count_profile(n: int, sizes: tuple[int, ...]) -> tuple[int, int, int]:
    """Return (total, connected, hypertree) counts over all assignments."""
    if n < 1:
        raise ValueError("need n >= 1")
    sizes = tuple(int(s) for s in sizes)
    if any(s < 2 for s in sizes):
        raise ValueError("edges need at least 2 vertices")
    choice_lists = [tuple(combinations(range(n), s)) for s in sizes]
    total = 1
    for choices in choice_lists:
        total *= len(choices)
    if total == 0:
        return (0, 0, 0)
    if not sizes:
        flag = 1 if n == 1 else 0
        return (1, flag, flag)

    connected = 0
    hypertree = 0
    target = n - 1
    parent = list(range(n))
    for assignment in product(*choice_lists):
        for v in range(n):
            parent[v] = v
        cycle = False
        merges = 0
        for edge in assignment:
            r0 = edge[0]
            while parent[r0] != r0:
                parent[r0] = parent[parent[r0]]
                r0 = parent[r0]
            for j in range(1, len(edge)):
                r = edge[j]
                while parent[r] != r:
                    parent[r] = parent[parent[r]]
                    r = parent[r]
                if r == r0:
                    cycle = True
                else:
                    parent[r] = r0
                    merges += 1
        if merges == target:
            connected += 1
            if not cycle:
                hypertree += 1
    return (total, connected, hypertree)
