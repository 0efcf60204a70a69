"""Parametric host-graph families and their exact edge-count probabilities.

A family is described by part fractions of the vertex set (clique or
independent inside, complete or empty between pairs); whatever fraction
remains is an implicit background part with no internal edges.  Finite hosts
are realized by flooring part sizes; limit probabilities for a uniform
k-subset are exact multinomial sums, since for fixed k the hypergeometric
part counts converge to a multinomial draw with the part fractions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import mpmath

from .dist import SliceSpec, ValueDist, as_probability, format_rational, slice_value_dist
from .errors import InputError, ResourceLimitError
from .poly import MultilinearPoly
from .report import VerificationReport, check

#: Guard on the number of explicit part-count vectors a limit sum may visit.
DEFAULT_VECTOR_CAP = 2 * 10**6


@dataclass(frozen=True)
class HostGraph:
    """A concrete simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset = frozenset()
    family_tag: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise InputError("a host graph needs at least one vertex")
        normalized = set()
        for a, b in self.edges:
            if a == b:
                raise InputError(f"loop at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InputError(f"edge ({a}, {b}) outside vertex range")
            normalized.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def complement(self) -> "HostGraph":
        missing = frozenset(pair for pair in combinations(range(self.n), 2) if pair not in self.edges)
        tag = f"complement({self.family_tag})" if self.family_tag else "complement"
        return HostGraph(self.n, missing, tag)


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
        clique = tuple(bool(b) for b in self.clique)
        if len(clique) != len(fractions):
            raise InputError("need one clique flag per part")
        t = len(fractions)
        normalized = set()
        for a, b in self.cross:
            if a == b or not (0 <= a <= t and 0 <= b <= t):
                raise InputError(f"invalid cross pair ({a}, {b})")
            normalized.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "fractions", fractions)
        object.__setattr__(self, "clique", clique)
        object.__setattr__(self, "cross", frozenset(normalized))

    @property
    def num_parts(self) -> int:
        """Number of explicit (non-background) parts."""
        return len(self.fractions)

    @property
    def background_index(self) -> int:
        return len(self.fractions)

    @property
    def background_fraction(self) -> Fraction:
        return 1 - sum(self.fractions, Fraction(0))


def bipartite_family(a: int, k: int, with_clique: bool = False) -> PartFamily:
    """A part of fraction a/k joined completely to the rest of the vertices,
    optionally also a clique inside."""
    if not 1 <= a < k:
        raise InputError("need 1 <= a < k")
    tag = f"bipartite-plus-clique(a={a},k={k})" if with_clique else f"bipartite(a={a},k={k})"
    return PartFamily((Fraction(a, k),), (with_clique,), frozenset({(0, 1)}), tag)


def clique_union_family(sizes: Sequence[int], k: int) -> PartFamily:
    """Disjoint cliques of fractions m_i/k plus isolated background."""
    sizes = tuple(int(m) for m in sizes)
    if not sizes or any(m < 2 for m in sizes):
        raise InputError("clique sizes must all be >= 2")
    if sum(sizes) > k:
        raise InputError("clique sizes must sum to at most k")
    fractions = tuple(Fraction(m, k) for m in sizes)
    return PartFamily(fractions, (True,) * len(sizes), frozenset(), f"cliques({','.join(map(str, sizes))};k={k})")


def crossed_clique_family(a: int, m: int, k: int) -> PartFamily:
    """A part of fraction a/k joined to everything else, plus a disjoint
    clique part of fraction m/k."""
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
    if a < 0 or m < 1 or (a + 1) + m > k:
        raise InputError("need a >= 0, m >= 1, (a+1) + m <= k")
    return PartFamily(
        (Fraction(a + 1, k), Fraction(m, k)),
        (False, False),
        frozenset({(0, 2)}),
        f"blocker-buffer(a={a},m={m},k={k})",
    )


def build_host(family: PartFamily, n: int) -> HostGraph:
    """Realize the family at n vertices, flooring part sizes with the
    remainder going to the background part."""
    sizes = [math.floor(c * n) for c in family.fractions]
    if any(s == 0 for s in sizes):
        raise InputError(f"n={n} too small: some part would be empty")
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(range(start, start + s))
        start += s
    blocks.append(range(start, n))  # background
    edges = set()
    for i, is_clique in enumerate(family.clique):
        if is_clique:
            edges.update(combinations(blocks[i], 2))
    for i, j in family.cross:
        edges.update((u, v) for u in blocks[i] for v in blocks[j])
    return HostGraph(n, frozenset(edges), family.tag)


def edge_polynomial(host: HostGraph) -> MultilinearPoly:
    """Induced-edge count of the selected vertex set, as a quadratic form."""
    return MultilinearPoly(host.n, 0, {}, {e: 1 for e in sorted(host.edges)})


def edge_count_dist(host: HostGraph, k: int, cap: int = 10**7) -> ValueDist:
    """Exact induced-edge-count distribution over uniform k-subsets."""
    return slice_value_dist(edge_polynomial(host), SliceSpec(host.n, k), cap)


def limit_probability(
    family: PartFamily, k: int, ell: int, vector_cap: int = DEFAULT_VECTOR_CAP
) -> Fraction:
    """Exact n->infinity probability that a uniform k-subset induces ell edges.

    For fixed k the part counts of a uniform k-subset converge to a
    multinomial draw over the part fractions, so the limit is a finite sum of
    multinomial terms over count vectors whose induced edge count is ell.
    """
    if family.num_parts > 6:
        raise InputError("at most 6 explicit parts supported")
    if not 0 <= k <= 10**4:
        raise InputError("need 0 <= k <= 10**4")
    if ell < 0:
        return Fraction(0)
    t = family.num_parts
    ranges = []
    for i in range(t):
        hi = k
        if family.clique[i]:
            hi = 0
            while math.comb(hi + 1, 2) <= ell and hi < k:
                hi += 1
        ranges.append(hi + 1)
    needed = math.prod(ranges)
    if needed > vector_cap:
        raise ResourceLimitError(
            f"limit sum would visit {needed} count vectors (cap {vector_cap})",
            needed=needed,
            cap=vector_cap,
        )
    bg_fraction = family.background_fraction
    cross = sorted(family.cross)
    total = Fraction(0)

    def induced(counts: list[int]) -> int:
        """Edges among the parts counted so far (cross pairs are sorted, i < j)."""
        e = sum(math.comb(c, 2) for c, q in zip(counts, family.clique) if q)
        return e + sum(counts[i] * counts[j] for i, j in cross if j < len(counts))

    def walk(i: int, counts: list[int]) -> None:
        nonlocal total
        used = sum(counts)
        if i == t:
            if induced(counts + [k - used]) != ell:
                return
            rem = k
            term = Fraction(1)
            for c, frac in zip(counts, family.fractions):
                term *= math.comb(rem, c) * frac**c
                rem -= c
            term *= bg_fraction**rem if rem else 1
            total += term
            return
        for c in range(min(ranges[i] - 1, k - used) + 1):
            counts.append(c)
            if induced(counts) <= ell:
                walk(i + 1, counts)
            counts.pop()

    walk(0, [])
    return total


def clique_decomposition(ell: int) -> tuple:
    """Greedy decomposition of ell into triangular numbers C(m_i, 2), m_i >= 2,
    taking the largest piece first."""
    if ell < 1:
        raise InputError("ell must be >= 1")
    pieces = []
    rem = ell
    while rem:
        m = 2
        while math.comb(m + 1, 2) <= rem:
            m += 1
        pieces.append(m)
        rem -= math.comb(m, 2)
    return tuple(pieces)


def clique_decomposition_bound(
    k: int, ell: int, vector_cap: int = DEFAULT_VECTOR_CAP
) -> tuple:
    """(decomposition, product of piece sizes, exact limit probability of the
    matching clique-union family at this k)."""
    if not 1 <= ell or 2 * ell > k:
        raise InputError("need 1 <= ell <= k/2")
    pieces = clique_decomposition(ell)
    family = clique_union_family(pieces, k)
    prob = limit_probability(family, k, ell, vector_cap)
    return pieces, math.prod(pieces), prob


@dataclass
class MonotonicityScan:
    """Exact finite-n probabilities next to the limit value."""

    values: list  # (n, Fraction) pairs in the scanned order
    limit: Fraction
    monotone_toward_limit: bool


def monotonicity_scan(
    family: PartFamily, k: int, ell: int, n_list: Iterable[int], cap: int = 10**7
) -> MonotonicityScan:
    """Pr[k-subset induces ell edges] for each n, flagged for whether the
    distance to the limit shrinks along the list (observed, not a theorem)."""
    values = []
    for n in n_list:
        host = build_host(family, n)
        values.append((n, edge_count_dist(host, k, cap).prob(ell)))
    limit = limit_probability(family, k, ell)
    gaps = [abs(v - limit) for _, v in values]
    monotone = all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
    return MonotonicityScan(values, limit, monotone)


def poisson_reference(a: int) -> float:
    """a^a / (e^a a!), the Poisson(a) point mass at a, to double precision."""
    if a < 0:
        raise InputError("a must be >= 0")
    with mpmath.workdps(50):
        return float(mpmath.mpf(a) ** a / (mpmath.e**a * mpmath.factorial(a))) if a else 1.0


# ---------------------------------------------------------------------------
# Certificates built on the constructions
# ---------------------------------------------------------------------------


def verify_goodman(subset_cap: int = 10**7) -> VerificationReport:
    """Two disjoint half cliques: exact values at n = 12, 24, 48 and the
    exact 3/4 limit for one induced edge among three chosen vertices."""
    start = time.perf_counter()
    family = clique_union_family((3, 3), 6)
    scan = monotonicity_scan(family, 3, 1, (12, 24, 48), subset_cap)
    by_n = dict(scan.values)
    checks = [
        check("n12_value", by_n[12], "==", Fraction(9, 11)),
        check("n24_below_n12", by_n[24], "<", by_n[12]),
        check("n48_below_n24", by_n[48], "<", by_n[24]),
        check("n24_at_least_limit", scan.limit, "<=", by_n[24]),
        check("n48_at_least_limit", scan.limit, "<=", by_n[48]),
        check("limit_value", scan.limit, "==", Fraction(3, 4)),
    ]
    return VerificationReport(
        name="goodman",
        inputs={"family": family.tag, "k": 3, "ell": 1, "n_list": [12, 24, 48]},
        exact_values={
            "n12": by_n[12],
            "n24": by_n[24],
            "n48": by_n[48],
            "limit": scan.limit,
        },
        checks=checks,
        wall_time=time.perf_counter() - start,
    )


def verify_poisson_emergence() -> VerificationReport:
    """Complete bipartite families at k = 200 against the a^a/(e^a a!)
    constants: a = 1 within 0.01 of 1/e, a = 2 within 0.02 of 2/e^2."""
    start = time.perf_counter()
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
        wall_time=time.perf_counter() - start,
    )
