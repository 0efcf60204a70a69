"""Parametric host-graph families and their exact edge-count probabilities.

A family is described by part fractions of the vertex set (clique or
independent inside, complete or empty between pairs); whatever fraction
remains is an implicit background part with no internal edges.  Finite hosts
are realized by flooring part sizes.  The edges a k-subset induces depend
only on how many of its vertices fall in each part, so
:func:`limit_probability` makes one walk over part-count vectors for both
cases and changes only the term: the hypergeometric one on an n-vertex host,
and in the n -> infinity limit the multinomial one with the part fractions.
The walk carries the free slots and the edges so far down to each node and
ends a part's loop at the first overshoot.  It lists the counts of every
explicit part but the last: given those, the edge count is a quadratic in the
last part's count (the background takes the rest), so its integer roots are
solved for in closed form.  The :data:`VECTOR_CAP` guard still counts the
full product of the parts' ranges.  One closed form for the largest clique
under ell serves the walk and :func:`clique_decomposition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .dist import SliceSpec, ValueDist, poisson_peak_lower, slice_value_dist
from .errors import InputError, ResourceLimitError, as_flag, as_integer, as_integers, as_pair, as_probability
from .poly import MultilinearPoly
from .report import VerificationReport, check

#: Guard on the number of explicit part-count vectors one walk may visit.
VECTOR_CAP = 2 * 10**6


@dataclass(frozen=True)
class HostGraph:
    """A concrete simple graph on vertices 0..n-1; n is read by :func:`as_integer`
    and each edge by :func:`as_pair`."""

    n: int
    edges: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "n", as_integer(self.n))
        if self.n < 1:
            raise InputError("a host graph needs at least one vertex")
        object.__setattr__(self, "edges", frozenset(as_pair(e, self.n) for e in self.edges))


@dataclass(frozen=True)
class PartFamily:
    """Part fractions plus edge rules; the remainder is a background part.

    ``clique[i]`` makes explicit part i internally complete; ``cross`` lists
    part pairs joined completely, where index ``len(fractions)`` denotes the
    background part.  The background is always internally empty.
    """

    fractions: tuple
    clique: tuple
    cross: frozenset = frozenset()
    tag: str = ""

    def __post_init__(self):
        fractions = tuple(as_probability(c) for c in self.fractions)
        if any(c <= 0 for c in fractions):
            raise InputError("part fractions must be positive")
        if sum(fractions) > 1:
            raise InputError("part fractions must sum to at most 1")
        clique = tuple(as_flag(b) for b in self.clique)
        if len(clique) != len(fractions):
            raise InputError("need one clique flag per part")
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "clique", clique)
        object.__setattr__(self, "cross", frozenset(as_pair(pair, len(fractions) + 1) for pair in self.cross))


def bipartite_family(a: int, k: int, with_clique: bool = False) -> PartFamily:
    """A part of fraction a/k joined completely to the rest of the vertices,
    optionally also a clique inside."""
    a, k = as_integer(a), as_integer(k)
    if not 1 <= a < k:
        raise InputError("need 1 <= a < k")
    tag = f"bipartite-plus-clique(a={a},k={k})" if with_clique else f"bipartite(a={a},k={k})"
    return PartFamily((Fraction(a, k),), (with_clique,), frozenset({(0, 1)}), tag)


def clique_union_family(sizes: Sequence[int], k: int) -> PartFamily:
    """Disjoint cliques of fractions m_i/k plus isolated background."""
    sizes, k = tuple(as_integers(sizes)), as_integer(k)
    if not sizes or any(m < 2 for m in sizes):
        raise InputError("clique sizes must all be >= 2")
    if sum(sizes) > k:
        raise InputError("clique sizes must sum to at most k")
    fractions = tuple(Fraction(m, k) for m in sizes)
    return PartFamily(fractions, (True,) * len(sizes), frozenset(), f"cliques({','.join(map(str, sizes))};k={k})")


def crossed_clique_family(a: int, m: int, k: int) -> PartFamily:
    """A part of fraction a/k joined to everything else, plus a disjoint
    clique part of fraction m/k."""
    a, m, k = as_integer(a), as_integer(m), as_integer(k)
    if a < 1 or m < 2 or a + m > k:
        raise InputError("need a >= 1, m >= 2, a + m <= k")
    return PartFamily(
        (Fraction(a, k), Fraction(m, k)),
        (False, True),
        frozenset({(0, 1), (0, 2)}),
        f"crossed-clique(a={a},m={m},k={k})",
    )


def blocker_with_buffer_family(a: int, m: int, k: int) -> PartFamily:
    """A part of fraction (a+1)/k joined only to the background, next to an
    edgeless buffer part of fraction m/k that soaks up vertices."""
    a, m, k = as_integer(a), as_integer(m), as_integer(k)
    if a < 0 or m < 1 or (a + 1) + m > k:
        raise InputError("need a >= 0, m >= 1, (a+1) + m <= k")
    return PartFamily(
        (Fraction(a + 1, k), Fraction(m, k)),
        (False, False),
        frozenset({(0, 2)}),
        f"blocker-buffer(a={a},m={m},k={k})",
    )


def _part_sizes(family: PartFamily, n: int) -> list[int]:
    """Part sizes at n vertices, background last: each explicit part gets
    the floor of its fraction of n and the background gets the rest."""
    sizes = [math.floor(c * n) for c in family.fractions]
    if any(s == 0 for s in sizes):
        raise InputError(f"n={n} too small: some part would be empty")
    return sizes + [n - sum(sizes)]


def build_host(family: PartFamily, n: int) -> HostGraph:
    """Realize the family at n vertices with :func:`_part_sizes`."""
    n = as_integer(n)
    blocks = []
    start = 0
    for s in _part_sizes(family, n):
        blocks.append(range(start, start + s))
        start += s
    edges = set()
    for i, is_clique in enumerate(family.clique):
        if is_clique:
            edges.update(combinations(blocks[i], 2))
    for i, j in family.cross:
        edges.update((u, v) for u in blocks[i] for v in blocks[j])
    return HostGraph(n, frozenset(edges))


def edge_polynomial(host: HostGraph) -> MultilinearPoly:
    """Induced-edge count of the selected vertex set, as a quadratic form."""
    return MultilinearPoly(host.n, 0, {}, {e: 1 for e in sorted(host.edges)})


def edge_count_dist(host: HostGraph, k: int) -> ValueDist:
    """Exact induced-edge-count distribution over uniform k-subsets."""
    return slice_value_dist(edge_polynomial(host), SliceSpec(host.n, k))


def _largest_clique(ell: int) -> int:
    """Largest m with C(m, 2) <= ell, for an integer ell >= 0."""
    return (1 + math.isqrt(8 * ell + 1)) // 2


def _integer_roots(a: int, b: int, d: int, top: int) -> Sequence[int]:
    """The integers c in 0..top with a c^2 + b c + d == 0: every one when all
    three coefficients are 0, else the at most two exact roots, found with
    :func:`math.isqrt` and confirmed by substitution."""
    if a == 0 == b:
        return range(top + 1) if d == 0 else ()
    if a == 0:
        roots = {-d // b}
    else:
        disc = b * b - 4 * a * d
        if disc < 0:
            return ()
        r = math.isqrt(disc)
        roots = {(-b - r) // (2 * a), (-b + r) // (2 * a)}
    return [c for c in roots if 0 <= c <= top and (a * c + b) * c + d == 0]


def limit_probability(family: PartFamily, k: int, ell: int, n: int | None = None) -> Fraction:
    """Exact probability that a uniform k-subset induces ell edges: on the
    n-vertex host when n is given, else in the n -> infinity limit.

    The sum runs over the part-count vectors c (background last) whose
    induced edge count is ell.  The walk carries the free slots, the edges
    so far and the term's factors so far: c vertices of the next part add c
    times the counts of the earlier parts joined to it, plus C(c, 2) for a
    clique, and no later part removes an edge, so the loop ends at the first
    c past ell.  It stops one part early: with ``left`` free
    slots, E edges so far, J of the chosen vertices joined to the last
    explicit part P and B joined to the background, c vertices in P and the
    rest in the background give E + cJ + q C(c, 2) + (left - c)(B + x c)
    edges, q = 1 for a clique P and x = 1 when P is joined to the background.
    So c solves the integer quadratic (q - 2x) c^2 + (2J - q - 2B + 2x left) c
    + 2(E + left B - ell) = 0 (:func:`_integer_roots`).  :func:`_largest_clique`
    bounds the clique parts, and the :data:`VECTOR_CAP` guard still counts the
    product of every explicit part's range, P's included.

    With s_i the :func:`_part_sizes`, the finite term is prod C(s_i, c_i)
    over C(n, k).  For fixed k the part counts converge to a multinomial draw,
    so with part fractions a_i / D the limit term is prod C(rem, c_i) a_i^c_i
    over D^k, rem counting the slots not yet given to earlier parts.
    """
    k, ell = as_integer(k), as_integer(ell)
    t = len(family.fractions)
    if t > 6:
        raise InputError("at most 6 explicit parts supported")
    if not 0 <= k <= 10**4:
        raise InputError("need 0 <= k <= 10**4")
    if n is None:
        den = math.lcm(*(c.denominator for c in family.fractions))
        weights = [c.numerator * (den // c.denominator) for c in family.fractions]
        weights.append(den - sum(weights))
        denominator = den**k
    else:
        n = as_integer(n)
        weights = _part_sizes(family, n)
        if k > n:
            raise InputError(f"need k <= n, got n={n} k={k}")
        denominator = math.comb(n, k)
    if ell < 0:
        return Fraction(0)
    ranges = [min(_largest_clique(ell), k) + 1 if q else k + 1 for q in family.clique]
    needed = math.prod(ranges)
    if needed > VECTOR_CAP:
        raise ResourceLimitError(f"the sum would visit {needed} count vectors (cap {VECTOR_CAP})")
    if not t:
        return Fraction(int(ell == 0))
    last = t - 1
    joins = [[j for j in range(i) if (j, i) in family.cross] for i in range(t + 1)]
    q, x = int(family.clique[last]), int(last in joins[t])

    def factor(i: int, left: int, c: int) -> int:
        """Part i's factor of the term, with c of the ``left`` free slots."""
        return math.comb(weights[i], c) if n is not None else math.comb(left, c) * weights[i] ** c

    total = 0

    def walk(counts: list[int], left: int, edges: int, prefix: int) -> None:
        nonlocal total
        i = len(counts)
        if i == last:
            to_last = sum(counts[j] for j in joins[last])  # J
            to_back = sum(counts[j] for j in joins[t] if j != last)  # B
            roots = _integer_roots(q - 2 * x, 2 * to_last - q - 2 * to_back + 2 * x * left,
                                   2 * (edges + left * to_back - ell), min(ranges[last] - 1, left))
            for c in roots:
                total += prefix * factor(last, left, c) * factor(t, left - c, left - c)
            return
        joined = sum(counts[j] for j in joins[i])
        for c in range(min(ranges[i] - 1, left) + 1):
            grown = edges + c * joined + (math.comb(c, 2) if family.clique[i] else 0)
            if grown > ell:
                break
            walk(counts + [c], left - c, grown, prefix * factor(i, left, c))

    walk([], k, 0, 1)
    return Fraction(total, denominator)


def clique_decomposition(ell: int) -> tuple:
    """Greedy decomposition of ell into triangular numbers C(m_i, 2), m_i >= 2,
    taking the largest piece first."""
    ell = as_integer(ell)
    if ell < 1:
        raise InputError("ell must be >= 1")
    pieces = []
    rem = ell
    while rem:
        pieces.append(_largest_clique(rem))
        rem -= math.comb(pieces[-1], 2)
    return tuple(pieces)


def clique_decomposition_bound(k: int, ell: int) -> tuple:
    """(decomposition, product of piece sizes, exact limit probability of the
    matching clique-union family at this k)."""
    k, ell = as_integer(k), as_integer(ell)
    if not 1 <= ell or 2 * ell > k:
        raise InputError("need 1 <= ell <= k/2")
    pieces = clique_decomposition(ell)
    family = clique_union_family(pieces, k)
    prob = limit_probability(family, k, ell)
    return pieces, math.prod(pieces), prob


def poisson_reference(a: int) -> float:
    """a^a / (e^a a!), the Poisson(a) point mass at a: the double nearest its enclosure's lower end."""
    a = as_integer(a)
    if not 0 <= a <= 10**4:
        raise InputError("need 0 <= a <= 10**4")
    return float(poisson_peak_lower(a))


# ---------------------------------------------------------------------------
# Certificates built on the constructions
# ---------------------------------------------------------------------------


def verify_goodman() -> VerificationReport:
    """Two disjoint half cliques: exact values at n = 12, 24, 48 and the
    exact 3/4 limit for one induced edge among three chosen vertices."""
    family = clique_union_family((3, 3), 6)
    n12, n24, n48 = (limit_probability(family, 3, 1, n) for n in (12, 24, 48))
    limit = limit_probability(family, 3, 1)
    checks = [
        check("n12_value", n12, "==", Fraction(9, 11)),
        check("n24_below_n12", n24, "<", n12),
        check("n48_below_n24", n48, "<", n24),
        check("n24_at_least_limit", limit, "<=", n24),
        check("n48_at_least_limit", limit, "<=", n48),
        check("limit_value", limit, "==", Fraction(3, 4)),
    ]
    return VerificationReport(
        name="goodman",
        inputs={"family": family.tag, "k": 3, "ell": 1, "n_list": [12, 24, 48]},
        exact_values={"n12": n12, "n24": n24, "n48": n48, "limit": limit},
        checks=checks,
    )


def verify_poisson_emergence() -> VerificationReport:
    """Complete bipartite families at k = 200 against the a^a/(e^a a!)
    constants: a = 1 within 0.01 of 1/e, a = 2 within 0.02 of 2/e^2."""
    k = 200
    checks = []
    exact = {}
    for a, tol_denom in ((1, 100), (2, 50)):
        family = bipartite_family(a, k)
        ell = a * (k - a)
        prob = limit_probability(family, k, ell)
        ref = Fraction(poisson_reference(a))
        exact[f"a{a}_limit"] = prob
        checks.append(check(f"a{a}_within_tolerance", abs(prob - ref), "<=", Fraction(1, tol_denom)))
    return VerificationReport(
        name="poisson_emergence",
        inputs={"k": k, "a_values": [1, 2], "reference": "a^a/(e^a a!)"},
        exact_values=exact,
        checks=checks,
    )
