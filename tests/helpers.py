"""Shared generators and oracles for the test suite."""

import math
from fractions import Fraction
from itertools import combinations, permutations

import mpmath

from edgestat.dist import TRANSCENDENTAL_SLACK, ValueDist, as_probability
from edgestat.poly import (
    CanonicalKey,
    GPolynomial,
    MultilinearPoly,
    permute_variables,
    substitute,
    value_weight_counts,
)


def random_poly(rng, max_vars=8, coeff_range=(-4, 4)):
    """A random integer-coefficient multilinear quadratic on 1..max_vars slots."""
    n = rng.randint(1, max_vars)
    lo, hi = coeff_range
    linear = {i: rng.randint(lo, hi) for i in range(n) if rng.random() < 0.7}
    quadratic = {
        (a, b): rng.randint(lo, hi)
        for a, b in combinations(range(n), 2)
        if rng.random() < 0.4
    }
    return MultilinearPoly(n, rng.randint(lo, hi), linear, quadratic)


def eval_direct(f, assignment):
    """Term-by-term evaluation, independent of the library's recursion."""
    total = f.constant
    total += sum(c for i, c in f.linear.items() if assignment[i])
    total += sum(c for (i, j), c in f.quadratic.items() if assignment[i] and assignment[j])
    return total


def _refined_classes_oracle(s, L, nbrs):
    """Colour refinement on dicts and tuple colours, as first written."""
    color = {v: (0 if v in L else 1, len(nbrs[v])) for v in range(s)}
    while True:
        raw = {v: (color[v], tuple(sorted(color[u] for u in nbrs[v]))) for v in range(s)}
        rank = {t: r for r, t in enumerate(sorted(set(raw.values())))}
        new = {v: rank[raw[v]] for v in range(s)}
        if len(set(new.values())) == len(set(color.values())):
            color = new
            break
        color = new
    classes = {}
    for v in range(s):
        classes.setdefault(color[v], []).append(v)
    return [sorted(classes[c]) for c in sorted(classes)]


def canonical_form_unpruned(g):
    """Oracle for ``canonical_form``: try every class-respecting placement of
    the edge-touching members and keep the least ``(s, L, E)`` encoding."""
    s = g.num_vars
    L = g.linear_indices
    edges = sorted(g.edge_pairs)
    nbrs = [set() for _ in range(s)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    perm = [0] * s
    lin_targets = []
    movable = []
    pos = 0
    for cls in _refined_classes_oracle(s, L, nbrs):
        edged = [v for v in cls if nbrs[v]]
        if cls[0] in L:
            lin_targets.extend(range(pos, pos + len(cls)))
        for off, v in enumerate(v for v in cls if not nbrs[v]):
            perm[v] = pos + len(edged) + off
        if edged:
            movable.append((edged, range(pos, pos + len(edged))))
        pos += len(cls)

    best = None
    best_perm = None

    def search(idx):
        nonlocal best, best_perm
        if idx == len(movable):
            enc = (s, tuple(lin_targets), tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)))
            if best is None or enc < best:
                best, best_perm = enc, perm.copy()
            return
        members, targets = movable[idx]
        for placement in permutations(targets):
            for v, t in zip(members, placement):
                perm[v] = t
            search(idx + 1)

    search(0)
    return CanonicalKey(best), GPolynomial(permute_variables(g.poly, best_perm))


def bernoulli_value_dist_conditioning(f, p):
    """Oracle for ``bernoulli_value_dist``: the law computed by conditioning
    on one variable at a time instead of enumerating assignments."""
    p = as_probability(p)
    q = 1 - p

    def law(g):
        if g.num_vars == 0:
            return {g.constant: Fraction(1)}
        low = law(substitute(g, 0, 0))
        high = law(substitute(g, 0, 1))
        out = {}
        for v, pr in low.items():
            out[v] = out.get(v, Fraction(0)) + q * pr
        for v, pr in high.items():
            out[v] = out.get(v, Fraction(0)) + p * pr
        return out

    return ValueDist(law(f))


def poisson_tv_check_per_term(n, p):
    """Oracle for ``poisson_tv_check``: each binomial mass as a reduced
    Fraction and each Poisson mass from exp(-lambda) lambda^m / m!."""
    p = as_probability(p)
    lam = p * n
    with mpmath.workdps(50):
        lamf = mpmath.mpf(lam.numerator) / lam.denominator
        acc = mpmath.mpf(0)
        poi_partial = mpmath.mpf(0)
        for m in range(n + 1):
            binom = math.comb(n, m) * p**m * (1 - p) ** (n - m)
            poi = mpmath.exp(-lamf) * lamf**m / mpmath.factorial(m)
            poi_partial += poi
            acc += abs(mpmath.mpf(binom.numerator) / binom.denominator - poi)
        acc += 1 - poi_partial
        tv = float(acc / 2)
    return tv, tv <= float(p) + TRANSCENDENTAL_SLACK


def gm_membership_derived(g, m):
    """Oracle for ``gm_membership``: the neighbourhood predicate.

    With ``L`` the linear support and ``N(i)`` the quadratic neighbours of
    ``i``: every slot must satisfy ``i in L or N(i) & L != {}`` and
    ``|(L | N(i)) - {i}| <= m - 1``.
    """
    f = g.poly
    L = set(f.linear)
    nbrs = {i: set() for i in range(f.num_vars)}
    for a, b in f.quadratic:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for i in range(f.num_vars):
        if i not in L and not (nbrs[i] & L):
            return False
        if len((L | nbrs[i]) - {i}) > m - 1:
            return False
    return True


def binmax_oracle(m, p):
    """Largest Binomial(m, p) point mass by scanning every value."""
    return max(math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(m + 1))


def member_profiles(family):
    """``value_weight_counts`` of every member, computed apart from the family."""
    return [value_weight_counts(g.poly) for g in family.members]


def reduction_bound_unpruned(family, profiles, p, ell_min):
    """Oracle for ``reduction_bound``: a Fraction loop over every value of
    every member, with no pruning.

    Returns ``(bound, gm_part, witness_key, witness_ell)``; family ties go to
    the smallest ``(key, value)``.
    """
    max_n = max(g.num_vars for g in family.members)
    p_pows = [p**w for w in range(max_n + 1)]
    q_pows = [(1 - p) ** w for w in range(max_n + 1)]
    best = None
    for key, g, profile in zip(family.keys, family.members, profiles):
        n = g.num_vars
        for value, per_w in profile.items():
            if value < ell_min:
                continue
            pr = sum((cnt * p_pows[w] * q_pows[n - w] for w, cnt in per_w.items()), Fraction(0))
            if best is None or pr > best[0] or (pr == best[0] and (key, value) < (best[1], best[2])):
                best = (pr, key, value)
    gm_part = best[0] if best else Fraction(0)
    bound = max(binmax_oracle(family.m, p), gm_part)
    if best is not None and best[0] == bound:
        return bound, gm_part, best[1], best[2]
    return bound, gm_part, None, None
