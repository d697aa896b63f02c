"""Host-speed calibration: fixed tasks timed around every child.

The speed of one CPU of the shared host drifts by a fifth or more over
minutes, as neighbours come and go, and the two CPUs drift independently.
``run.py`` therefore pins itself and its children to one CPU and times
these tasks on it just before and just after each child.  The tasks are
the benchmark's own and import nothing of the program, so a change to the
program cannot change them.  Each mimics one kind of work the program
does, because the drift slows different kinds of work by different
amounts.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

from workloads import psi_reference, random_phi

_PHI = random_phi(0)


def dense_series() -> None:
    """Dense one-variable series with Fraction coefficients of growing size."""
    psi_reference(_PHI, 19)


def sparse_series() -> None:
    """Sparse three-variable product with exponent-tuple keys, as in ``series``."""
    a = {(i, j, k): Fraction(i + 1, j + k + 2)
         for i in range(6) for j in range(5) for k in range(4) if (i + j + k) % 2 == 0}
    for _ in range(3):
        out: dict = {}
        for ka, va in a.items():
            for kb, vb in a.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                if key[0] <= 8:
                    out[key] = out.get(key, 0) + va * vb


def union_find() -> None:
    """Union-find over every 4-tuple of edges of K5, four times, as in the oracle kernel."""
    n = 5
    edges = list(combinations(range(n), 2))
    parent = list(range(n))
    connected = 0
    for _, assignment in product(range(4), product(edges, repeat=4)):
        for v in range(n):
            parent[v] = v
        merges = 0
        for a, b in assignment:
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[b] = a
                merges += 1
        connected += merges == n - 1


def small_ints() -> None:
    """Small-int arithmetic and dict stores."""
    acc, table = 0, {}
    for i in range(200_000):
        acc ^= (i * i) % 1009
        table[i & 1023] = acc


def big_ints() -> None:
    """Binomials and exact division of several-hundred-bit ints, as in ``gf``."""
    total = 0
    for n in range(10, 170):
        for k in range(2, n):
            total += comb(n, k) ** 3 // (k * k) * comb(2 * n, k)


# each task's time on an idle 2-core Xeon VM (Sapphire Rapids, Python 3.11)
REFERENCE_S = {"dense_series": 0.025, "sparse_series": 0.034, "union_find": 0.030,
               "small_ints": 0.029, "big_ints": 0.031}

TASKS = {f.__name__: f for f in (dense_series, sparse_series, union_find, small_ints, big_ints)}


# the host's speed also jitters by about a tenth from one 0.1 s slice to the
# next; rounds spread each task over the whole calibration to average it out
ROUNDS = 2


def time_tasks() -> dict[str, float]:
    """Each task's mean time per round, the rounds interleaved."""
    times = dict.fromkeys(TASKS, 0.0)
    for _ in range(ROUNDS):
        for name, task in TASKS.items():
            start = time.perf_counter()
            task()
            times[name] += (time.perf_counter() - start) / ROUNDS
    return times


class Calibrated:
    """Brackets each child with the tasks and scales its time by the host speed.

    The speed index around a child is the geometric mean, over the tasks,
    of each task's time just before and just after the child, relative to
    its reference time.  ``scale`` divides the child's wall time by it,
    giving the wall time on the reference host.
    """

    def __init__(self) -> None:
        time_tasks()  # warm-up, not kept
        self.last = time_tasks()
        self.brackets: list[dict[str, float]] = []

    def scale(self, wall_s: float) -> float:
        before, self.last = self.last, time_tasks()
        bracket = {k: (before[k] + self.last[k]) / 2 for k in TASKS}
        self.brackets.append(bracket)
        log_index = statistics.fmean(math.log(bracket[k] / REFERENCE_S[k]) for k in TASKS)
        return wall_s / math.exp(log_index)
