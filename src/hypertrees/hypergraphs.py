"""Brute-force oracle over labeled hypergraphs.

A hypergraph here has vertex set {1..n} and a finite multiset of edges,
each an unordered set of at least two vertices.  Edges of equal size are
distinguishable: the position of an edge inside its size class is its
label.  The edge profile records how many edges there are of each size;
its magnitude sum((i - 1) * count_i) is the grading that the series
modules track with the u-variables.

is_connected and is_hypertree below are deliberately literal: they walk
the bipartite incidence graph (vertices on one side, edges on the other)
and test reachability and acyclicity by depth-first search.  The counting
kernel reaches the same classification by carrying component partitions
and a cycle flag through the edge slots; tests hold it against these
classifiers and a union-find pass over every assignment, so the fast path
never becomes the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, prod
from typing import Iterator

from .combinat import partitions

# counting-kernel steps per run, one per component label written
DEFAULT_BUDGET = 10_000_000


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
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_dict(cls, counts: dict[int, int]) -> "EdgeProfile":
        if any(size < 2 for size in counts):
            raise ValueError("edge sizes start at 2")
        top = max(counts, default=2)
        return cls(tuple(counts.get(size, 0) for size in range(2, top + 1)))

    @classmethod
    def from_sizes(cls, sizes: tuple[int, ...]) -> "EdgeProfile":
        out: dict[int, int] = {}
        for s in sizes:
            out[s] = out.get(s, 0) + 1
        return cls.from_dict(out)

    @classmethod
    def parse(cls, text: str, max_size: int) -> "EdgeProfile":
        """Parse the CLI syntax 'u2=2,u3=1'; an empty string is the empty profile.
        A size past max_size, the vertex count, is refused before any counts are built."""
        counts: dict[int, int] = {}
        for chunk in filter(None, (p.strip() for p in text.split(","))):
            name, _, value = chunk.partition("=")
            if not (name.startswith("u") and name[1:].isdigit()) or not value:
                raise ValueError(f"bad profile entry {chunk!r}; expected e.g. u2=2")
            size = int(name[1:])
            if size < 2:
                raise ValueError("edge sizes start at 2")
            if size > max_size:
                raise ValueError(f"an edge of u{size} has more vertices than n = {max_size}")
            counts[size] = counts.get(size, 0) + int(value)
        return cls.from_dict(counts)

    def items(self) -> Iterator[tuple[int, int]]:
        for j, c in enumerate(self.counts):
            if c:
                yield (j + 2, c)

    def sizes(self) -> tuple[int, ...]:
        out: list[int] = []
        for size, c in self.items():
            out.extend([size] * c)
        return tuple(out)

    @property
    def magnitude(self) -> int:
        return sum((size - 1) * c for size, c in self.items())

    def factorial_norm(self) -> int:
        """The label-class size: the product of count! over the sizes."""
        out = 1
        for _, c in self.items():
            out *= factorial(c)
        return out

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
        return EdgeProfile.from_sizes(tuple(len(e) for e in self.edges))

    @property
    def edge_magnitude(self) -> int:
        return sum(len(e) - 1 for e in self.edges)


def is_connected(h: Hypergraph) -> bool:
    """True iff every vertex is reachable from vertex 1 through edges.

    The empty vertex set is defined as disconnected for uniformity.
    """
    if h.n == 0:
        return False
    # only the vertices that edges touch get an entry: memory follows the edges, not n
    by_vertex: dict[int, list[int]] = {}
    for ei, edge in enumerate(h.edges):
        for v in edge:
            by_vertex.setdefault(v, []).append(ei)
    seen = {1}
    seen_edges: set[int] = set()
    stack = [1]
    while stack:
        v = stack.pop()
        for ei in by_vertex.get(v, ()):
            if ei in seen_edges:
                continue
            seen_edges.add(ei)
            for w in h.edges[ei]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(seen) == h.n


def is_hypertree(h: Hypergraph) -> bool:
    """True iff h is connected and its incidence graph is acyclic.

    The incidence graph is bipartite: vertex nodes and edge nodes, joined
    when the vertex lies in the edge.  A depth-first search that meets a
    visited node other than its parent has found a cycle; a cycle through
    k >= 2 edge nodes is exactly a closed walk through k distinct edges
    and k distinct vertices.
    """
    if h.n == 0:
        return False
    by_vertex: dict[int, list[int]] = {}
    for ei, edge in enumerate(h.edges):
        for v in edge:
            by_vertex.setdefault(v, []).append(ei)
    # nodes: ("v", vertex) and ("e", edge index)
    seen_v = {1}
    seen_e: set[int] = set()
    stack: list[tuple[str, int, tuple[str, int] | None]] = [("v", 1, None)]
    while stack:
        kind, key, parent = stack.pop()
        if kind == "v":
            for ei in by_vertex.get(key, ()):
                if ("e", ei) == parent:
                    continue
                if ei in seen_e:
                    return False
                seen_e.add(ei)
                stack.append(("e", ei, ("v", key)))
        else:
            for v in h.edges[key]:
                if ("v", v) == parent:
                    continue
                if v in seen_v:
                    return False
                seen_v.add(v)
                stack.append(("v", v, ("e", key)))
    return len(seen_v) == h.n and len(seen_e) == len(h.edges)


def assignment_count(n: int, profile: EdgeProfile) -> int:
    """Number of labeled hypergraphs on 1..n with the given profile."""
    total = 1
    for size, c in profile.items():
        total *= comb(n, size) ** c
    return total


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
    which refuses to take the run past budget steps, spent of them already used."""
    return CountRow(n, profile, *_count_by_partitions(n, profile.sizes(), budget, spent))


def _count_by_partitions(
    n: int, sizes: tuple[int, ...], budget: int = DEFAULT_BUDGET, spent: int = 0
) -> tuple[int, int, int, int]:
    """(total, connected, hypertree, steps) over every assignment of the edge slots.

    The slots are filled one at a time, and instead of each partial
    assignment only what decides its class is carried: the partition of
    the vertices into components (each vertex labeled with the smallest
    vertex of its block) and whether a cycle has been seen.  A state maps
    to the number of partial assignments that reach it.  An edge closes a
    cycle iff it touches fewer distinct components than it has vertices.
    This is the transfer-matrix method (Stanley, EC1 4.7) over set
    partitions.

    A slot of size s merges each state with each of its C(n, s) edges into
    a new n-tuple of labels: len(states) * C(n, s) * n steps, added to
    the spent ones before the slot runs.  Past budget, BudgetExceededError
    is raised before the slot builds its list of edges.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    sizes = tuple(int(s) for s in sizes)
    if any(s < 2 for s in sizes):
        raise ValueError("edges need at least 2 vertices")
    total = prod(comb(n, s) for s in sizes)
    if total == 0:
        return (0, 0, 0, 0)

    states = {(range(n), False): 1}  # each vertex v its own block, labeled v
    steps = spent
    for s in sizes:
        steps += len(states) * comb(n, s) * n
        if steps > budget:
            raise BudgetExceededError(steps, budget)
        choices = tuple(combinations(range(n), s))
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
    return (total, connected, hypertree, steps - spent)


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
