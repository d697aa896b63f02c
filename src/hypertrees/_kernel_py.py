"""Pure-Python counting kernel behind the brute-force oracle.

Given n labeled vertices and a list of edge sizes, fill the edge slots one
at a time and carry, instead of each partial assignment, only what decides
its class: the partition of the vertices into components (each vertex
labeled with the smallest vertex of its block) and whether a cycle has
been seen.  A state maps to the number of partial assignments that reach
it.  An edge closes a cycle iff it touches fewer distinct components than
it has vertices.  This is the transfer-matrix method (Stanley, EC1 4.7)
over set partitions.
"""

from __future__ import annotations

from itertools import combinations

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

    states = {(tuple(range(n)), False): 1}
    for s, choices in zip(sizes, choice_lists):
        after: dict[tuple[tuple[int, ...], bool], int] = {}
        for (labels, cycle), ways in states.items():
            for edge in choices:
                roots = {labels[v] for v in edge}
                low = min(roots)
                merged = tuple(low if label in roots else label for label in labels)
                key = (merged, cycle or len(roots) < s)
                after[key] = after.get(key, 0) + ways
        states = after

    connected = 0
    hypertree = 0
    for (labels, cycle), ways in states.items():
        if not any(labels):  # one block: every vertex carries label 0
            connected += ways
            if not cycle:
                hypertree += ways
    return (total, connected, hypertree)
