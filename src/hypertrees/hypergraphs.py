"""Brute-force oracle over labeled hypergraphs.

A hypergraph here has vertex set {1..n} and a finite multiset of edges,
each an unordered set of at least two vertices.  Edges of equal size are
distinguishable: the position of an edge inside its size class is its
label.  The edge profile records how many edges there are of each size;
its magnitude sum((i - 1) * count_i) is the grading that the series
modules track with the u-variables.

classify below decides hypertrees by the lemma that the series modules
rest on: h is a hypertree iff it is connected and its magnitude is
n - 1.  Its bipartite incidence graph (vertices on one side, edges on the
other) has n + e nodes and magnitude + e links, so when it is connected
it is a tree exactly then.  One walk of that graph decides connectivity;
the literal cycle detectors are the tests' twins.

The counting kernel does not classify hypergraphs one by one.  It counts
orbit types: it carries the block sizes of the component partition
through the edge slots, with the number of partial assignments that
reach each type, because every edge is drawn from all C(n, s) vertex
subsets alike, and reads the hypertrees off the connected count by the
same lemma.  It shares nothing with log S, the rooted fixed point or the
closed form: the pipeline builds S by the exponential formula, so it no
longer shares assignment_count with the oracle, and that count now lives
with the tests.  Tests hold the kernel against the transfer over labeled
set partitions that it lumps, against a union-find pass over every
assignment and against per-hypergraph union-find, so the fast path never
becomes the definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterator

from . import DEFAULT_BUDGET
from .combinat import partitions

# a kernel state's partition type: (block size, multiplicity) pairs, largest size first
_Blocks = tuple[tuple[int, int], ...]


class BudgetExceededError(RuntimeError):
    """Raised before a kernel slot whose work would take the count past the budget."""

    def __init__(self, required: int, budget: int) -> None:
        super().__init__(
            f"counting needs at least {required} kernel steps, over the budget of {budget}"
        )
        self.required = required
        self.budget = budget


def kernel_name() -> str:
    """The counting kernel's name, as reported by ``oracle --json``."""
    return "python"


@dataclass(frozen=True)
class EdgeProfile:
    """Edge counts by size: counts[j] is the number of edges with j + 2 vertices."""

    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            counts = tuple(int(c) for c in self.counts)  # converted before it is trimmed
            ok = counts == tuple(self.counts) and all(c >= 0 for c in counts)
        except (TypeError, ValueError, OverflowError):  # int() of None, nan and inf
            ok = False
        if not ok:
            raise ValueError("edge counts must be non-negative integers")
        top = len(counts)
        while top and counts[top - 1] == 0:
            top -= 1
        object.__setattr__(self, "counts", counts[:top])

    @classmethod
    def from_dict(cls, counts: dict[int, int], max_size: int) -> "EdgeProfile":
        """Counts by edge size; a size below 2 or past max_size, the vertex
        count, is refused before any counts are built."""
        for size in counts:
            if size < 2:
                raise ValueError("edge sizes start at 2")
            if size > max_size:
                raise ValueError(f"an edge of u{size} has more vertices than n = {max_size}")
        top = max(counts, default=2)
        return cls(tuple(counts.get(size, 0) for size in range(2, top + 1)))

    @classmethod
    def parse(cls, text: str, max_size: int) -> "EdgeProfile":
        """Parse the CLI syntax 'u2=2,u3=1'; an empty string is the empty profile.
        Sizes are bounded as in from_dict."""
        counts: dict[int, int] = {}
        for chunk in filter(None, (p.strip() for p in text.split(","))):
            name, _, value = chunk.partition("=")
            if not (name.startswith("u") and name[1:].isdigit()) or not value:
                raise ValueError(f"bad profile entry {chunk!r}; expected e.g. u2=2")
            size = int(name[1:])
            counts[size] = counts.get(size, 0) + int(value)
        return cls.from_dict(counts, max_size)

    def items(self) -> Iterator[tuple[int, int]]:
        for j, c in enumerate(self.counts):
            if c:
                yield (j + 2, c)

    @property
    def magnitude(self) -> int:
        return sum((size - 1) * c for size, c in self.items())

    def as_dict(self) -> dict[str, int]:
        return {f"u{size}": c for size, c in self.items()}

    def __str__(self) -> str:
        parts = [f"u{size}" + (f"^{c}" if c > 1 else "") for size, c in self.items()]
        return " ".join(parts) if parts else "1"


def profiles(magnitude: int, max_size: int | None = None) -> Iterator[EdgeProfile]:
    """The profiles of one magnitude with sizes <= max_size, in the order of
    partitions(magnitude), whose vectors are already canonical (non-negative
    ints, no trailing zeros): so each profile skips the constructor's checks."""
    for counts in partitions(magnitude, None if max_size is None else max_size - 1):
        profile = object.__new__(EdgeProfile)
        object.__setattr__(profile, "counts", counts)
        yield profile


def iter_profiles(max_magnitude: int, max_size: int) -> Iterator[EdgeProfile]:
    """All profiles with magnitude <= max_magnitude and sizes <= max_size,
    ordered by magnitude, then by reverse lexicographic partition."""
    for mag in range(max_magnitude + 1):
        yield from profiles(mag, max_size)


@dataclass(frozen=True)
class Hypergraph:
    """Labeled hypergraph on vertices 1..n.

    edges holds each edge as a sorted vertex tuple, grouped by size in
    ascending order; positions within one size class are the labels.
    """

    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("need n >= 0")
        last_size = 2
        for edge in self.edges:
            if len(edge) < 2:
                raise ValueError("edges need at least 2 vertices")
            if list(edge) != sorted(set(edge)):
                raise ValueError(f"edge {edge} must be sorted distinct vertices")
            if edge[0] < 1 or edge[-1] > self.n:
                raise ValueError(f"edge {edge} has vertices outside 1..{self.n}")
            if len(edge) < last_size:
                raise ValueError("edges must be grouped by size, ascending")
            last_size = len(edge)

    def profile(self) -> EdgeProfile:
        return EdgeProfile.from_dict(Counter(len(e) for e in self.edges), self.n)

    @property
    def edge_magnitude(self) -> int:
        return sum(len(e) - 1 for e in self.edges)


def classify(h: Hypergraph) -> tuple[bool, bool]:
    """(connected, hypertree) for one hypergraph.

    Connected iff a depth-first search of the incidence graph from vertex 1
    reaches every vertex; the empty vertex set is defined as disconnected
    for uniformity.  A connected h is a hypertree iff its magnitude is n - 1.
    """
    # only the vertices that edges touch get an entry: memory follows the edges, not n
    by_vertex: dict[int, list[int]] = {}
    for ei, edge in enumerate(h.edges):
        for v in edge:
            by_vertex.setdefault(v, []).append(ei)
    seen = {1}
    opened: set[int] = set()
    stack = [1]
    while stack:
        for ei in by_vertex.get(stack.pop(), ()):
            if ei not in opened:  # an edge is opened once, from the first vertex to reach it
                opened.add(ei)
                fresh = [w for w in h.edges[ei] if w not in seen]
                seen.update(fresh)
                stack.extend(fresh)
    connected = h.n > 0 and len(seen) == h.n
    return connected, connected and h.edge_magnitude == h.n - 1


@dataclass(frozen=True)
class CountRow:
    """Classification counts for one (n, profile) cell, and the kernel steps they took."""

    n: int
    profile: EdgeProfile
    total: int
    connected: int
    hypertree: int
    steps: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.hypertree <= self.connected <= self.total:
            raise ValueError("counts must satisfy hypertree <= connected <= total")

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "profile": self.profile.as_dict(),
            "all": self.total,
            "connected": self.connected,
            "hypertree": self.hypertree,
        }


def count_profile(
    n: int, profile: EdgeProfile, budget: int = DEFAULT_BUDGET, spent: int = 0
) -> CountRow:
    """Classify every hypergraph with this profile through the counting kernel,
    which refuses to take the run past budget steps, spent of them already used.

    The slots are filled one at a time, and instead of each partial
    assignment only the block sizes of its component partition are
    carried, mapped to the number of partial assignments that reach them.
    This is the transfer-matrix method (Stanley, EC1 4.7) on the chain of
    component partitions, lumped by its S_n symmetry (Kemeny and Snell,
    Finite Markov Chains, 1960): every edge is drawn from all C(n, s)
    subsets alike, so the ways to reach a partition depend only on its
    block sizes.  The connected count is the weight of the one-block
    type, and they are all hypertrees iff the magnitude is n - 1.

    A slot costs one step per (state, move) pair, in one pass over its
    states: charged before applied, and a slot over budget is dropped, as
    BudgetExceededError is raised as soon as the spent steps pass budget.
    When every size is at most n, each slot costs at least one step, so a
    profile with more slots than the budget has left is refused before
    any slot runs.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    slots = sum(profile.counts)
    if len(profile.counts) < n and spent + slots > budget:  # the largest size fits in n
        raise BudgetExceededError(spent + slots, budget)
    total = prod(comb(n, s) ** c for s, c in profile.items())  # one power per size
    if total == 0:
        return CountRow(n, profile, 0, 0, 0)

    states: dict[_Blocks, int] = {((1, n),): 1}  # n singleton blocks
    steps = spent
    for s, c in profile.items():
        for _ in range(c):
            after: dict[_Blocks, int] = {}
            for blocks, ways in states.items():
                moves = _moves(blocks, s)
                steps += len(moves)
                if steps > budget:
                    raise BudgetExceededError(steps, budget)
                for blocks_after, count in moves:
                    after[blocks_after] = after.get(blocks_after, 0) + ways * count
            states = after

    connected = states.get(((n, 1),), 0)
    hypertree = connected if profile.magnitude == n - 1 else 0
    return CountRow(n, profile, total, connected, hypertree, steps - spent)


@lru_cache(maxsize=4096)  # every (type, size) key of a sweep to n = 16 fits
def _moves(blocks: _Blocks, s: int) -> tuple[tuple[_Blocks, int], ...]:
    """Every way an s-edge meets a partition with these blocks, as (blocks
    after, number of edges).

    An edge that takes k_i >= 1 vertices from block i merges the blocks it
    touches.  The edges are counted per class of equal blocks: t of a
    class's m blocks of size b, hit by K vertices in all and each at least
    once, are C(m, t) [x^K] ((1+x)^b - 1)^t edge parts, and the t-vector of
    the classes fixes the blocks after.
    """
    # (vertices left, t per class so far): edge parts; placed once none is left
    partial = {(s, ()): 1}
    placed: dict[tuple[int, tuple[int, ...]], int] = {}
    room = sum(b * m for b, m in blocks)
    for b, m in blocks:
        room -= b * m  # the vertices of the classes after this one
        hits = _class_hits(b, m, s)
        grown: dict[tuple[int, tuple[int, ...]], int] = {}
        for (left, taken), count in partial.items():
            for k in range(max(0, left - room), min(left, len(hits) - 1) + 1):
                for t, ways in hits[k]:
                    key = (left - k, taken + (t,))
                    into = grown if k < left else placed
                    into[key] = into.get(key, 0) + count * ways
        partial = grown
    out: dict[_Blocks, int] = {}
    for (_, taken), count in placed.items():
        after = _merged(blocks, taken)
        out[after] = out.get(after, 0) + count
    return tuple(out.items())


def _class_hits(b: int, m: int, most: int) -> list[list[tuple[int, int]]]:
    """hits[K] lists (t, ways) for the K <= most vertices taken from t of m
    blocks of size b, each of the t hit at least once.

    ways = C(m, t) [x^K] ((1+x)^b - 1)^t, and inclusion-exclusion over the
    blocks left unhit gives [x^K] ((1+x)^b - 1)^t = sum_i (-1)^i C(t, i) C(b(t - i), K).
    C(b(t - i), K) = 0 once b(t - i) < K, so i runs only to t - ceil(K/b):
    one term for singleton blocks.
    """
    hits: list[list[tuple[int, int]]] = [[] for _ in range(min(b * m, most) + 1)]
    for t in range(min(m, most) + 1):
        for k in range(t, min(b * t, most) + 1):
            top = t - -(-k // b)  # the last i with b(t - i) >= k
            ways = sum((-1) ** i * comb(t, i) * comb(b * (t - i), k) for i in range(top + 1))
            hits[k].append((t, comb(m, t) * ways))
    return hits


def _merged(blocks: _Blocks, taken: tuple[int, ...]) -> _Blocks:
    """The blocks after an edge that touched taken[i] blocks of class i merges them."""
    counts = dict(blocks)
    size = 0
    for (b, _), t in zip(blocks, taken):
        counts[b] -= t
        size += b * t
    counts[size] = counts.get(size, 0) + 1
    return tuple(sorted(((b, m) for b, m in counts.items() if m), reverse=True))


def count_sweep(
    n: int, max_magnitude: int, budget: int = DEFAULT_BUDGET
) -> list[CountRow]:
    """Count rows for every profile with magnitude <= max_magnitude, within
    one budget of kernel steps for the whole sweep."""
    rows: list[CountRow] = []
    spent = 0
    for profile in iter_profiles(max_magnitude, max_size=n):
        rows.append(count_profile(n, profile, budget=budget, spent=spent))
        spent += rows[-1].steps
    return rows


# -- text fixture format ----------------------------------------------------


def parse_hypergraph(text: str) -> Hypergraph:
    """First line n, then one edge per line as a space-separated vertex list."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty hypergraph text")
    n = int(lines[0])
    edges = []
    for line in lines[1:]:
        edges.append(tuple(sorted(int(v) for v in line.split())))
    edges.sort(key=len)  # stable: preserves label order within a size class
    return Hypergraph(n, tuple(edges))
