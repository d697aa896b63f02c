"""Slow, literal routes that the tests hold the library against.

Nothing in the library calls these: each one recomputes a result by a
second, independent method (Lagrange inversion in place of slice-by-slice
reversion, full-precision passes in place of the slice-by-slice fixed
point and reversion, the transfer over labeled set partitions in place
of the block-size-type counting kernel, explicit enumeration in place of
both kernels and of the step meter, union-find cycle detection in place
of the magnitude lemma that the classifier and the kernel read
hypertrees by, part tuples by recursion in place of the
multiplicity-vector partition stream, full power sums in place of the
graded exp and log recurrences, the inverse built from them and the
one-call substitution, one product of powers per term in place of the
grouped substitution of several variables at once, the full product cut
afterwards in place of the product cut as it is formed, hand-built
coefficient lists in place of the maps derived from the edge weights
phi, a Fraction per term pair in place of the integer product kernel
and its key shift for a one-term factor, a Fraction per term in place of
the one-pass lowest-terms store and of the store comparison that
first_difference makes first,
sliced exponent tuples in place of the key arithmetic of derivative and
divided_by_t, a Monomial decoded
per term in place of the field reads of where, compute_T and the
t-marginal, Fraction arithmetic
in place of the integer closed-form counts, a key-sorted factor list
rebuilt per call in place of the cached table pieces and each table
line joined term by term from it in place of the renderer, S in closed form
and a summand loop in place of the exponential formula that builds C and L,
a Monomial per term of L in place of the field selector of the psi form,
one exp per k in place of its grade recurrence,
the row recurrence in place of the inclusion-exclusion Stirling
numbers), so it lives with the tests that use it as a reference.  The
twins read a series only through its public API, so they stay
independent of its store.  The library never moves a series between
contexts; the tests that compare series of two contexts move one with
``into_context_by_monomials``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, prod
from typing import Iterable, Iterator, Sequence

from hypertrees.funceq import PhiCoefficients
from hypertrees.gf import edge_symbol_phi
from hypertrees.hypergraphs import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CountRow,
    EdgeProfile,
    Hypergraph,
    count_profile,
    iter_profiles,
)
from hypertrees.series import Monomial, Scalar, Series, TruncationContext, phi_maps


def mul_by_term_pairs(f: Series, g: Series) -> Series:
    """f * g by the literal double loop: one Fraction product per term pair,
    kept when the context admits its monomial."""
    ctx = f.context
    out: dict[Monomial, Fraction] = {}
    for ma, ca in f.terms():
        for mb, cb in g.terms():
            m = Monomial(a + b for a, b in zip(ma, mb))
            if ctx.admits(m):
                out[m] = out.get(m, Fraction(0)) + ca * cb
    return Series(ctx, out)


def reduced_by_fractions(den: int, nums: dict[Monomial, int]) -> list[tuple[Monomial, Fraction]]:
    """The terms of the numerators nums over den, one Fraction per term,
    zeros dropped, in canonical order."""
    return sorted((m, Fraction(v, den)) for m, v in nums.items() if v)


def first_difference_by_terms(
    f: Series, g: Series
) -> tuple[Monomial, Fraction, Fraction] | None:
    """The least monomial whose coefficients in f and g differ, with both,
    every term of each read through terms()."""
    cf, cg = dict(f.terms()), dict(g.terms())
    zero = Fraction(0)
    return min(((m, cf.get(m, zero), cg.get(m, zero)) for m in cf.keys() | cg.keys()
                if cf.get(m, zero) != cg.get(m, zero)), default=None)


def derivative_by_slicing(f: Series, name: str) -> Series:
    """The partial derivative, one exponent tuple sliced per term."""
    i = f.context.index(name)
    out = [(Monomial(m[:i] + (m[i] - 1,) + m[i + 1:]), c * m[i]) for m, c in f.terms() if m[i]]
    return Series(f.context, out)


def divided_by_t_by_slicing(f: Series) -> Series:
    """f / t, one exponent tuple sliced per term."""
    if any(m[0] == 0 for m, _ in f.terms()):
        raise ValueError("series is not divisible by t")
    return Series(f.context, [(Monomial((m[0] - 1,) + m[1:]), c) for m, c in f.terms()])


def where_by_terms(f: Series, pred) -> Series:
    """The terms whose (t, z, magnitude) satisfy pred, read off each monomial."""
    return Series(f.context, [(m, c) for m, c in f.terms() if pred(m[0], m[1], m.magnitude)])


def compute_T_by_terms(C: Series) -> Series:
    """Hypertree layer: the terms of C with magnitude == t_deg - 1."""
    ctx = C.context
    if ctx.magnitude_max < ctx.t_max - 1:
        raise ValueError("need magnitude_max >= t_max - 1 for a complete hypertree layer")
    return Series(ctx, [(m, c) for m, c in C.terms() if m.magnitude == m.t_deg - 1])


def t_marginal_by_terms(f: Series) -> Series:
    """f with every variable but t set to 1, one monomial built per term."""
    tctx = TruncationContext(t_max=f.context.t_max, z_max=0, magnitude_max=0)
    return Series(tctx, [(tctx.monomial(t=m.t_deg), c) for m, c in f.terms()])


def into_context_by_monomials(f: Series, ctx: TruncationContext) -> Series:
    """f truncated into ctx, each monomial cut or padded to ctx's edge
    variables; a term that uses a u_j past ctx's is dropped."""
    width = len(ctx.names)
    pad = (0,) * (width - len(f.context.names))
    return Series(ctx, [(Monomial(m[:width] + pad), c) for m, c in f.terms() if not any(m[width:])])


def product_by_where(f: Series, g: Series, bound: int) -> Series:
    """f * g to the context's magnitude bound, then the terms of magnitude <= bound."""
    return (f * g).where(lambda t, z, magnitude: magnitude <= bound)


def grade_bound(ctx: TruncationContext) -> int:
    """The largest total grade t + z + magnitude a monomial of ctx can have."""
    return ctx.t_max + ctx.z_max + ctx.magnitude_max


def power(f: Series, k: int) -> Series:
    """f^k by k repeated products."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("series powers take non-negative integer exponents")
    result = Series.one(f.context)
    for _ in range(k):
        result = result * f
        if not result:
            break
    return result


def t_coefficient(f: Series, k: int) -> Series:
    """The coefficient of t^k in f as a series in the remaining variables."""
    out = {Monomial((0,) + m[1:]): c for m, c in f.terms() if m[0] == k}
    return Series(f.context, out)


def power_sum(f: Series, coeffs: Sequence[Scalar | Series]) -> Series:
    """sum_k coeffs[k] * f^k for f with zero constant term, one product
    and one sum per power.

    Each coefficient is a scalar or a series.  The sum stops at the end of
    coeffs or at the first power that truncates to zero.  Every
    non-constant monomial has t + z + magnitude >= 1, so f^(grade_bound + 1)
    is zero and grade_bound + 1 coefficients always reach the end of the
    truncated series.
    """
    if f.constant_term:
        raise ValueError("power sums need a series with zero constant term")
    result = Series.zero(f.context)
    p = Series.one(f.context)
    for k, c in enumerate(coeffs):
        if k:
            p = f if k == 1 else p * f
            if not p:
                break
        if c:
            result = result + (p * c if k else c)  # f^0 = 1 needs no product
    return result


def substitute_by_power_sum(f: Series, name: str, g: Series) -> Series:
    """f with a variable replaced by g, as the power sum of g whose k-th
    coefficient collects the terms of f with that variable to the k."""
    f._check_same_context(g)
    i = f.context.index(name)
    groups: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in f.terms():
        groups.setdefault(m[i], {})[Monomial(m[:i] + (0,) + m[i + 1:])] = c
    top = max(groups, default=0)
    return power_sum(g, [Series(f.context, groups.get(e, ())) for e in range(top + 1)])


def substitute_by_monomials(f: Series, images: dict[str, Series]) -> Series:
    """f with each named variable replaced by its image at once: per term of f,
    the product of each variable's power, an image's where it has one."""
    ctx = f.context
    out = Series.zero(ctx)
    for m, c in f.terms():
        term = Series.one(ctx) * c
        for name, e in zip(ctx.names, m):
            if e:
                term = term * power(images.get(name, Series.variable(ctx, name)), e)
        out = out + term
    return out


def exp_by_power_sum(f: Series) -> Series:
    """exp(f) for f with zero constant term."""
    if f.constant_term:
        raise ValueError("exp needs a series with zero constant term")
    n = grade_bound(f.context) + 1
    return power_sum(f, [Fraction(1, factorial(k)) for k in range(n)])


def log_by_power_sum(f: Series) -> Series:
    """log(f) for f with constant term 1."""
    if f.constant_term != 1:
        raise ValueError("log needs a series with constant term 1")
    n = grade_bound(f.context) + 1
    coeffs = [Fraction((-1) ** (k + 1), k) if k else 0 for k in range(n)]
    return power_sum(f - 1, coeffs)


def inverse_by_power_sum(f: Series) -> Series:
    """Multiplicative inverse of a unit (nonzero constant term) series."""
    c = f.constant_term
    if not c:
        raise ValueError("inverse needs a nonzero constant term")
    n = grade_bound(f.context) + 1
    return power_sum(f / c - 1, [(-1) ** k for k in range(n)]) / c


def rooted_edge_argument_by_power_sum(R: Series) -> Series:
    """sum_j u_{j+1} R^j / j! from a hand-built coefficient list.

    j stops at magnitude_max (u_{j+1} has magnitude j) and at t_max - 1.
    """
    ctx = R.context
    j_top = min(ctx.t_max - 1, ctx.magnitude_max)
    u = [Series.variable(ctx, f"u{j + 1}") / factorial(j) for j in range(1, j_top + 1)]
    return power_sum(R, [0] + u)


def T_from_R_by_power_sum(R: Series) -> Series:
    """T = R - sum_{j>=2} (j-1) u_j R^j / j! from a hand-built coefficient list."""
    ctx = R.context
    top = min(ctx.max_edge_size, ctx.t_max)
    u = [Series.variable(ctx, f"u{j}") * Fraction(1 - j, factorial(j)) for j in range(2, top + 1)]
    return power_sum(R, [0, 1] + u)


def rooted_edge_argument(R: Series) -> Series:
    """sum_j u_{j+1} R^j / j!, the rooted map of the edge weights composed
    with R by substitution.

    The map is cut at w^(t_max - 1): R^j has t-degree at least j, so the
    j = t_max term lands beyond t_max once the fixed point multiplies it
    by t.
    """
    ctx = R.context
    rooted, _ = phi_maps(edge_symbol_phi(ctx))
    cut = Series(ctx, [(m, c) for m, c in rooted.terms() if m[0] < ctx.t_max])
    return cut.substitute({"t": R})


def solve_R_by_iteration(ctx: TruncationContext) -> Series:
    """Solve R = t * exp(sum_j u_{j+1} R^j / j!) by iteration from R = t.

    Each pass extends exactness by one t-order, so t_max passes starting
    from the t-linear seed determine every admissible coefficient.
    """
    t = Series.variable(ctx, "t")
    R = t
    for _ in range(ctx.t_max):
        R = t * rooted_edge_argument(R).exp()
    return R


def revert_by_iteration(f: Series) -> Series:
    """Compositional inverse in the t-variable slot, by full-precision passes.

    The fixed-point iteration g = (t - h(g)) / c1, with c1 the scalar
    linear coefficient, gains one order of total grade per step, so it is
    run to the context grade bound and checked for stability.
    """
    ctx = f.context
    y = Series.variable(ctx, "t")
    t_monomial = ctx.monomial(t=1)
    c1 = f.coefficient(t_monomial)
    if not c1:
        raise ValueError("reversion needs a nonzero linear t-coefficient")
    if any(m[0] == 0 for m, _ in f.terms()):
        raise ValueError("reversion needs every term divisible by t")
    h = f - c1 * y
    g = y / c1
    for _ in range(grade_bound(ctx) + 2):
        nxt = (y - h.substitute({"t": g})) / c1
        if nxt == g:
            return g
        g = nxt
    raise RuntimeError("reversion iteration did not stabilize")


def lagrange_revert(f: Series) -> Series:
    """Compositional inverse via the Lagrange coefficient formula.

    [y^n] g = (1/n) [t^(n-1)] (t/f)^n.  Slower than revert(); kept as an
    independent route for cross-checking.
    """
    ctx = f.context
    t_monomial = ctx.monomial(t=1)
    if not f.coefficient(t_monomial):
        raise ValueError("reversion needs a nonzero linear t-coefficient")
    ratio_inv = f.divided_by_t().inverse()  # t/f
    g = Series.zero(ctx)
    power = Series.one(ctx)
    for n in range(1, ctx.t_max + 1):
        power = power * ratio_inv
        slice_n = t_coefficient(power, n - 1)
        if not slice_n:
            continue
        t_n = Series(ctx, {ctx.monomial(t=n): Fraction(1, n)})
        g = g + t_n * slice_n
    return g


def factorial_norm(profile: EdgeProfile) -> int:
    """The label-class size: the product of count! over the sizes."""
    out = 1
    for _, c in profile.items():
        out *= factorial(c)
    return out


def slot_sizes(profile: EdgeProfile) -> tuple[int, ...]:
    """The size of every edge slot, ascending, as the kernel fills them."""
    return tuple(size for size, c in profile.items() for _ in range(c))


def assignment_count(n: int, profile: EdgeProfile) -> int:
    """Number of labeled hypergraphs on 1..n with the given profile."""
    total = 1
    for size, c in profile.items():
        total *= comb(n, size) ** c
    return total


def exponential_formula_by_exps(
    ctx: TruncationContext, weights: dict[Monomial, Sequence[Scalar]]
) -> Series:
    """log(sum_{k <= t_max} t^k/k! exp(w_k)) with w_k = sum_m weights[m][k] m,
    one exp per k: each w_k built as a series, t^k/k! times its exp as a
    term product, and the summands added one at a time.
    """
    total = Series.zero(ctx)
    for k in range(ctx.t_max + 1):
        w_k = Series(ctx, [(m, column[k]) for m, column in weights.items()])
        front = Series(ctx, {ctx.monomial(t=k): Fraction(1, factorial(k))})
        total = total + front * w_k.exp()
    return total.log()


def compute_C_by_closed_form(ctx: TruncationContext) -> Series:
    """Connected-hypergraph series C = log S, with S in closed form.

    Expanding exp(sum_i binom(k, i) u_i) gives

        [t^k u^a] S = prod_i binom(k, i)^(a_i) / (k! * prod_i a_i!),

    the number of labeled hypergraphs on 1..k with edge profile a over
    the label-class size and k!.  k runs to t_max and a through every
    profile within magnitude_max.
    """
    terms = {}
    for p in iter_profiles(ctx.magnitude_max, max_size=ctx.max_edge_size):
        u = dict(p.items())
        for k in range(ctx.t_max + 1):
            count = assignment_count(k, p)
            terms[ctx.monomial(t=k, u=u)] = Fraction(count, factorial(k) * factorial_norm(p))
    return Series(ctx, terms).log()


def lhs_series_by_summands(phi: PhiCoefficients, ctx: TruncationContext) -> Series:
    """L = log(sum_k t^k/k! exp(k Phi(kz, z))), truncated to ctx, one summand
    at a time.

    The k-th summand has t-degree exactly k, so the sum is cut at
    k = t_max.
    """
    if phi.constant_term:
        raise ValueError(
            "constant term must be zero; use without_constant() and carry "
            "the t-scale separately"
        )
    K = ctx.t_max

    def summand(k: int) -> Series:
        acc: dict[int, Fraction] = {}
        for (a, b), c in phi.items():
            zp = a + b
            if zp <= ctx.z_max:
                acc[zp] = acc.get(zp, Fraction(0)) + c * k ** (a + 1)
        arg = Series(ctx, {ctx.monomial(z=zp): v for zp, v in acc.items()})
        front = Series(ctx, {ctx.monomial(t=k): Fraction(1, factorial(k))})
        return front * arg.exp()

    total = Series.zero(ctx)
    for k in range(K + 1):
        total = total + summand(k)
    return total.log()


def outside_psi_form_by_monomial(m: Monomial) -> bool:
    """t^a z^b is outside the support of t * Psi(tz, z) when a = 0 or b < a - 1."""
    return m.t_deg == 0 or m.z_deg < m.t_deg - 1


def verify_psi_form_by_terms(L: Series) -> list[tuple[int, int, Fraction]]:
    """The terms of L outside t * Psi(tz, z), every term decoded and tested."""
    return [(m.t_deg, m.z_deg, c) for m, c in L.terms() if outside_psi_form_by_monomial(m)]


def psi_uv_coefficients_by_terms(L: Series) -> list[tuple[int, int, Fraction]]:
    """Psi(u, v) read off L through u^n v^m <-> t^{n+1} z^{n+m}, every term decoded."""
    return [(m.t_deg - 1, m.z_deg - m.t_deg + 1, c) for m, c in L.terms()
            if not outside_psi_form_by_monomial(m)]


def stirling2_by_recurrence(n: int, k: int) -> int:
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


def multinomial(n: int, parts: tuple[int, ...]) -> int:
    """n! / (p1! p2! ...) for parts summing to n."""
    if sum(parts) != n:
        raise ValueError("multinomial parts must sum to n")
    result = factorial(n)
    for p in parts:
        result //= factorial(p)
    return result


def count_by_profile_by_fractions(n: int, profile: EdgeProfile) -> tuple[int, int]:
    """(rooted, unrooted) hypertree counts: the multinomial of the induced
    partition of n - 1 times prod_i n^{a_i} / a_i!, in Fractions."""
    if n < 1:
        raise ValueError("need n >= 1")
    if profile.magnitude != n - 1:
        return (0, 0)
    parts: list[int] = []
    rooted = Fraction(1)
    for size, a in profile.items():
        parts.extend([size - 1] * a)
        rooted *= Fraction(n**a, factorial(a))
    rooted *= multinomial(n - 1, tuple(parts))
    if rooted.denominator != 1:
        raise AssertionError(f"rooted count {rooted} is not an integer")
    rooted_int = rooted.numerator
    if rooted_int % n:
        raise AssertionError(f"rooted count {rooted_int} not divisible by n = {n}")
    return (rooted_int, rooted_int // n)


_SUBSCRIPT_DIGITS = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")
_SUPERSCRIPT_DIGITS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def pretty_monomial_by_sort_key(profile: EdgeProfile) -> str:
    """The table's monomial text, e.g. u₂u₃u₄²: factors by ascending
    exponent, then size, each built afresh."""
    factors = sorted(profile.items(), key=lambda item: (item[1], item[0]))
    parts = []
    for size, e in factors:
        text = "u" + str(size).translate(_SUBSCRIPT_DIGITS)
        if e > 1:
            text += str(e).translate(_SUPERSCRIPT_DIGITS)
        parts.append(text)
    return "".join(parts)


def render_table_line_by_terms(n: int, terms: Sequence[tuple[EdgeProfile, int]]) -> str:
    """The table's line for n, e.g. [t⁴/4!]T = u₄ + 12u₂u₃ + 16u₂³: each
    term is str(coefficient) and its monomial text, with a coefficient 1
    dropped before a non-empty monomial, and the terms join with " + "."""
    power = "" if n == 1 else str(n).translate(_SUPERSCRIPT_DIGITS)
    parts = []
    for profile, coefficient in terms:
        monomial = pretty_monomial_by_sort_key(profile)
        if coefficient == 1 and monomial:
            parts.append(monomial)
        else:
            parts.append(str(coefficient) + monomial)
    return f"[t{power}/{n}!]T = " + " + ".join(parts)


def egf_profile_coefficient(f: Series, n: int, profile: EdgeProfile) -> Fraction:
    """Coefficient of (t^n/n!) (u^profile/profile!) in f."""
    m = f.context.monomial(t=n, u=dict(profile.items()))
    return f.coefficient(m) * factorial(n) * factorial_norm(profile)


ENUMERATION_N_MAX = 6


def enumerate_hypergraphs(
    n: int, profile: EdgeProfile, budget: int = DEFAULT_BUDGET
) -> Iterator[Hypergraph]:
    """Stream every labeled hypergraph with the given profile, deterministically.

    Order: edge slots by size ascending then label, each slot running
    through the lexicographically sorted vertex subsets.  Never samples;
    raises ValueError up front when n is over ENUMERATION_N_MAX or the
    number of hypergraphs over budget.
    """
    if not 1 <= n <= ENUMERATION_N_MAX:
        raise ValueError(f"need 1 <= n <= {ENUMERATION_N_MAX}, got {n}")
    required = assignment_count(n, profile)
    if required > budget:
        raise ValueError(f"enumeration needs {required} hypergraphs, over the budget of {budget}")
    choice_lists = [
        list(combinations(range(1, n + 1), size)) for size in slot_sizes(profile)
    ]
    for assignment in product(*choice_lists):
        yield Hypergraph(n, tuple(assignment))


def classify_by_union_find(h: Hypergraph) -> tuple[bool, bool]:
    """(connected, hypertree) for one hypergraph by union-find: an edge closes
    a cycle when two of its vertices already share a component."""
    parent = list(range(h.n + 1))

    def root(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    cycle = False
    for edge in h.edges:
        roots = [root(v) for v in edge]
        cycle = cycle or len(set(roots)) < len(roots)
        for r in roots:
            parent[r] = roots[0]
    connected = h.n > 0 and len({root(v) for v in range(1, h.n + 1)}) == 1
    return connected, connected and not cycle


def count_profile_by_enumeration(n: int, sizes: tuple[int, ...]) -> tuple[int, int, int]:
    """(total, connected, hypertree) by a union-find pass over every assignment.

    Connected iff the merges reach n - 1, acyclic iff no edge ever touched two
    vertices already in one component.
    """
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


def count_by_partitions(
    n: int, sizes: tuple[int, ...], budget: int = 10_000_000
) -> tuple[int, int, int, int]:
    """(total, connected, hypertree, steps) by the transfer over labeled set
    partitions that the block-size kernel lumps.

    A state is the component label of every vertex (the smallest vertex of
    its block) and whether a cycle has been seen; a slot of size s merges
    each state with each of its C(n, s) edges, and an edge closes a cycle
    iff it touches fewer distinct components than it has vertices.  It keeps
    its own meter and default budget: len(states) * C(n, s) * n steps per
    slot, one per label written, and BudgetExceededError before a slot that
    would pass budget.
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
    steps = 0
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
    return (total, connected, hypertree, steps)


def sweep_by_partitions(n: int, max_magnitude: int) -> list[CountRow]:
    """count_sweep's rows from the set-partition twin, which finds the
    hypertrees by literal cycles rather than by the magnitude lemma."""
    return [CountRow(n, profile, *count_by_partitions(n, slot_sizes(profile))[:3])
            for profile in iter_profiles(max_magnitude, max_size=n)]


def _merge(blocks: list[set[int]], edge: tuple[int, ...]) -> tuple[list[set[int]], bool]:
    """The blocks after edge merges the ones it touches, and whether it closed
    a cycle by touching fewer blocks than it has vertices."""
    touched = [b for b in blocks if b & set(edge)]
    after = [b for b in blocks if b not in touched] + [set().union(*touched)]
    return after, len(touched) < len(edge)


def block_type(blocks: Iterable[set[int]]) -> tuple[int, ...]:
    """The block sizes of a partition, largest first."""
    return tuple(sorted((len(b) for b in blocks), reverse=True))


def kernel_steps_by_enumeration(n: int, sizes: tuple[int, ...]) -> list[int]:
    """The counting kernel's running step count after each slot, from the
    states and moves counted literally.  Before slot j, the states are the
    distinct (block-size type, cycle seen) pairs that the assignments of the
    slots before j reach; a state's moves are the distinct (type after,
    closes a cycle) pairs over all C(n, s_j) edges laid on one partition
    of its type that an assignment reached.  Slot j costs the states' moves.
    The kernel carries the type alone; the type fixes the block count, so
    with the slot sizes it fixes the cycle flag, and the counts agree."""
    out = []
    steps = 0
    for j, s in enumerate(sizes):
        reached: dict[tuple[tuple[int, ...], bool], list[set[int]]] = {}
        for assignment in product(*(combinations(range(n), r) for r in sizes[:j])):
            blocks = [{v} for v in range(n)]
            cycle = False
            for edge in assignment:
                blocks, closes = _merge(blocks, edge)
                cycle = cycle or closes
            reached.setdefault((block_type(blocks), cycle), blocks)
        for blocks in reached.values():
            moves = {(block_type(after), closes)
                     for after, closes in (_merge(blocks, e) for e in combinations(range(n), s))}
            steps += len(moves)
        out.append(steps)
    return out


def partitions_as_parts(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts bounded by max_part, as non-increasing
    tuples of parts, by recursion on the largest part: reverse
    lexicographic order, (n), (n-1, 1), ..., (1,) * n."""
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


def magnitude_law_violations(rows: Iterable[CountRow]) -> list[str]:
    """Check the magnitude law against brute-force counts.

    For every profile: connected hypergraphs need magnitude >= n - 1, and
    magnitude == n - 1 holds exactly for the hypertrees.  Returns human
    readable descriptions of any violations (empty means the law held).
    """
    out = []
    for row in rows:
        mag = row.profile.magnitude
        floor = row.n - 1
        if mag < floor and row.connected:
            out.append(
                f"n={row.n} {row.profile}: {row.connected} connected below magnitude {floor}"
            )
        if mag == floor and row.hypertree != row.connected:
            out.append(
                f"n={row.n} {row.profile}: {row.connected} connected vs "
                f"{row.hypertree} hypertrees at magnitude {floor}"
            )
        if mag > floor and row.hypertree:
            out.append(
                f"n={row.n} {row.profile}: {row.hypertree} hypertrees above magnitude {floor}"
            )
    return out


def oracle_polynomials(
    n: int, ctx: TruncationContext, budget: int = DEFAULT_BUDGET
) -> tuple[Series, Series]:
    """(C_n, T_n): brute-force polynomials in the u-variables.

    C_n collects connected counts over every profile within the context
    magnitude bound, each divided by the label-class size so that the
    coefficient of u^profile counts hypergraphs with indistinguishable
    equal-size edges.  T_n keeps the magnitude n - 1 layer, counting
    hypertrees; the magnitude law is asserted along the way.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    c_terms: dict[Monomial, Fraction] = {}
    t_terms: dict[Monomial, Fraction] = {}
    max_size = min(n, ctx.max_edge_size)
    rows = []
    for profile in iter_profiles(ctx.magnitude_max, max_size=max_size):
        row = count_profile(n, profile, budget=budget)
        rows.append(row)
        if not row.connected:
            continue
        m = ctx.monomial(u=dict(profile.items()))
        norm = Fraction(1, factorial_norm(profile))
        c_terms[m] = row.connected * norm
        if profile.magnitude == n - 1:
            t_terms[m] = row.hypertree * norm
    violations = magnitude_law_violations(rows)
    if violations:
        raise AssertionError("magnitude law failed: " + "; ".join(violations))
    return Series(ctx, c_terms), Series(ctx, t_terms)
