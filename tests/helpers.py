"""Shared generators and oracles for the test suite."""

import csv
import io
import math
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import mpmath

from edgestat.cli import table_csv
from edgestat.constructions import HostGraph, PartFamily
from edgestat.errors import InputError, ResourceLimitError, as_probability
from edgestat.poly import (
    ASSIGNMENT_CAP,
    CanonicalKey,
    MultilinearPoly,
    canonical_code,
    value_weight_counts,
)


def evaluate(f, assignment):
    """Value of ``f`` at a 0/1 assignment (one bit per variable slot)."""
    if len(assignment) != f.num_vars:
        raise InputError(f"assignment length {len(assignment)} != num_vars {f.num_vars}")
    for b in assignment:
        if b not in (0, 1):
            raise InputError("assignment entries must be 0 or 1")
    value = f.constant
    for i, c in f.linear.items():
        if assignment[i]:
            value += c
    for (i, j), c in f.quadratic.items():
        if assignment[i] and assignment[j]:
            value += c
    return value


def substitute(f, i, bit):
    """Pin ``x_i = bit`` and drop slot ``i``; higher slots shift down by one."""
    if not 0 <= i < f.num_vars:
        raise InputError(f"variable index {i} out of range")
    if bit not in (0, 1):
        raise InputError("substituted value must be 0 or 1")

    def shift(v):
        return v - 1 if v > i else v

    constant = f.constant
    linear = {}
    quadratic = {}
    for v, c in f.linear.items():
        if v == i:
            if bit:
                constant += c
        else:
            linear[shift(v)] = linear.get(shift(v), 0) + c
    for (a, b), c in f.quadratic.items():
        if i in (a, b):
            if bit:
                other = shift(b if a == i else a)
                linear[other] = linear.get(other, 0) + c
        else:
            quadratic[(shift(a), shift(b))] = c
    return MultilinearPoly(f.num_vars - 1, constant, linear, quadratic)


def unit_form(num_vars, linear, edges):
    """The 0/1 quadratic form with linear terms on ``linear`` and quadratic
    terms on the pairs ``edges``."""
    return MultilinearPoly(num_vars, 0, dict.fromkeys(linear, 1), dict.fromkeys(edges, 1))


def permute_variables(f, perm):
    """Relabel variables: old slot ``v`` becomes ``perm[v]``."""
    if sorted(perm) != list(range(f.num_vars)):
        raise InputError("perm must be a permutation of range(num_vars)")
    linear = {perm[v]: c for v, c in f.linear.items()}
    quadratic = {(perm[a], perm[b]): c for (a, b), c in f.quadratic.items()}
    return MultilinearPoly(f.num_vars, f.constant, linear, quadratic)


def achievable_values(f):
    """Sorted list of values ``f`` attains on {0,1}^num_vars."""
    return sorted(value_weight_counts(f))


def value_weight_counts_label_order(f, weights=None):
    """Oracle for ``value_weight_counts``: the same frontier table with the
    read slots always set in label order, as it was before the slot order
    was chosen by frontier width.  Same guard, same message."""
    n = f.num_vars
    if weights is None:
        weights = range(n + 1)
    lo, hi = weights.start, weights.stop - 1
    needed, term = 0, 1
    for j in range(min(lo, n - lo)):
        term = term * (n - j) // (j + 1)
        if term > ASSIGNMENT_CAP:
            break
    for w in weights:
        needed += term
        if needed > ASSIGNMENT_CAP:
            raise ResourceLimitError(f"{n} variables at weight {lo}..{hi} have more assignments "
                                     f"than the cap of {ASSIGNMENT_CAP}")
        term = term * (n - w) // (w + 1)
    below = {}  # slot -> {coefficient: mask of lower neighbours}
    last = {}  # bit -> last slot that reads it, for bits a later slot reads
    for (a, b), c in f.quadratic.items():
        nbrs = below.setdefault(b, {})
        nbrs[c] = nbrs.get(c, 0) | 1 << a
        last[a] = max(last.get(a, b), b)
    release = {}  # slot -> bits no later slot reads
    for a, b in last.items():
        release[b] = release.get(b, 0) | 1 << a
    read = sorted(f.used_variables())
    states = {(f.constant, 0, 0): 1}
    for i, v in enumerate(read):
        keep = ~release.get(v, 0)
        bit = 1 << v if v in last else 0
        lin = f.linear.get(v, 0)
        pairs = below.get(v, {}).items()
        floor = lo - (n - 1 - i)
        nxt = {}
        while states:
            (value, weight, mask), count = states.popitem()
            if weight >= floor:
                key = (value, weight, mask & keep)
                nxt[key] = nxt.get(key, 0) + count
            if weight < hi:
                for c, nbrs in pairs:
                    value += c * (nbrs & mask).bit_count()
                weight += 1
                key = (value + lin, weight, (mask & keep) | bit if weight < hi else 0)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    unread = n - len(read)
    counts = {}
    for (value, weight, _), count in states.items():
        per = counts.setdefault(value, {})
        for w in range(max(lo, weight), min(hi, weight + unread) + 1):
            per[w] = per.get(w, 0) + count * math.comb(unread, w - weight)
    return counts


def zero_poly(num_vars=0):
    return MultilinearPoly(num_vars)


def is_zero(f):
    return not f.constant and not f.linear and not f.quadratic


def complement(host):
    """The host graph on the same vertices with exactly the missing edges."""
    missing = frozenset(pair for pair in combinations(range(host.n), 2) if pair not in host.edges)
    return HostGraph(host.n, missing)


def random_part_family(rng, parts=3):
    """A family of ``parts`` parts a_i/D (D <= 6) with random clique flags and
    cross pairs.  Part 0 is always joined to the background and to the last
    part, which is a clique, so a clique part comes after a joined one."""
    top = rng.randint(parts + 1, 6)
    cuts = sorted(rng.sample(range(1, top + 1), parts))  # part i is cuts[i-1]..cuts[i] of den
    den = rng.randint(cuts[-1], 6)
    fractions = tuple(Fraction(b - a, den) for a, b in zip([0] + cuts, cuts))
    clique = tuple(rng.random() < 0.5 for _ in range(parts - 1)) + (True,)
    cross = {pair for pair in combinations(range(parts + 1), 2) if rng.random() < 0.5}
    return PartFamily(fractions, clique, frozenset(cross | {(0, parts), (0, parts - 1)}))


def limit_law_by_words(family, k):
    """{edges: probability} of a k-subset in the n -> infinity limit, summed
    over all (t+1)^k words of part labels (background last): a word has
    probability prod a_w, and its edges depend only on its part counts."""
    weights = list(family.fractions) + [1 - sum(family.fractions)]
    law = {}
    for word in product(range(len(weights)), repeat=k):
        counts = [word.count(i) for i in range(len(weights))]
        edges = sum(math.comb(c, 2) for c, q in zip(counts, family.clique) if q)
        edges += sum(counts[i] * counts[j] for i, j in family.cross)
        law[edges] = law.get(edges, 0) + math.prod(weights[i] for i in word)
    return law


def limit_probability_full_walk(family, k, ell, n=None):
    """Oracle for ``constructions.limit_probability``: the walk as it was
    before the last explicit part's count was solved for, which loops over
    every part's count and gives the background the free slots at the leaf.
    Inputs are taken as valid."""
    t = len(family.fractions)
    if n is None:
        den = math.lcm(*(c.denominator for c in family.fractions))
        weights = [c.numerator * (den // c.denominator) for c in family.fractions]
        weights.append(den - sum(weights))
        denominator = den**k
    else:
        weights = [math.floor(c * n) for c in family.fractions]
        weights.append(n - sum(weights))
        denominator = math.comb(n, k)
    if ell < 0:
        return Fraction(0)
    largest = (1 + math.isqrt(8 * ell + 1)) // 2
    ranges = [min(largest, k) + 1 if q else k + 1 for q in family.clique]
    total = 0

    def walk(counts, left, edges):
        nonlocal total
        i = len(counts)
        joined = sum(c for j, c in enumerate(counts) if (j, i) in family.cross)
        if i == t:
            if edges + left * joined != ell:
                return
            counts = counts + [left]
            if n is not None:
                term = math.prod(math.comb(s, c) for s, c in zip(weights, counts))
            else:
                term, rem = 1, k
                for c, a in zip(counts, weights):
                    term *= math.comb(rem, c) * a**c
                    rem -= c
            total += term
            return
        for c in range(min(ranges[i] - 1, left) + 1):
            grown = edges + c * joined + (math.comb(c, 2) if family.clique[i] else 0)
            if grown > ell:
                break
            walk(counts + [c], left - c, grown)

    walk([], k, 0)
    return Fraction(total, denominator)


def poly_from_json(data):
    """Inverse of ``poly.poly_to_json``, the oracle for its exact round trip."""
    linear = {i - 1: c for i, c in data["lin"]}
    quadratic = {(a - 1, b - 1): c for a, b, c in data["quad"]}
    return MultilinearPoly(data["n"], data["c"], linear, quadratic)


_TERM_HEAD_RE = re.compile(r"^(?P<sign>[+-])?(?P<coeff>\d+)?(?P<var>x\d+)?$")
_TERM_VAR_RE = re.compile(r"^x(\d+)$")


def _parse_term(chunk):
    """Split one ``-2*x1*x3``-style product into (coefficient, 1-based indices)."""
    parts = chunk.split("*")
    head = _TERM_HEAD_RE.match(parts[0])
    if not head or (head.group("coeff") is None and head.group("var") is None):
        raise InputError(f"cannot parse term {chunk!r}")
    coeff = int(head.group("coeff") or 1)
    if head.group("sign") == "-":
        coeff = -coeff
    var_texts = ([head.group("var")] if head.group("var") else []) + parts[1:]
    indices = []
    for text in var_texts:
        m = _TERM_VAR_RE.match(text or "")
        if not m:
            raise InputError(f"cannot parse term {chunk!r}")
        indices.append(int(m.group(1)))
    return coeff, indices


def parse_poly_split(text):
    """Oracle for ``poly.parse_poly``: the parser as it was before one term
    pattern replaced it, which splits each term on ``*``, reads the head and
    the factors with two patterns, and orders and checks each pair itself."""
    compact = text.replace(" ", "")
    if not compact:
        raise InputError("empty polynomial text")
    chunks = compact.replace("+-", "-").replace("-", "+-").split("+")
    constant = 0
    linear = {}
    quadratic = {}
    max_index = 0
    seen_term = False
    for pos, chunk in enumerate(chunks):
        if not chunk:
            if pos == 0:
                continue  # leading sign produced an empty head
            raise InputError(f"dangling operator in {text!r}")
        seen_term = True
        coeff, indices = _parse_term(chunk)
        if any(v < 1 for v in indices):
            raise InputError("variable indices are 1-based")
        if indices:
            max_index = max(max_index, *indices)
        if len(indices) == 0:
            constant += coeff
        elif len(indices) == 1:
            i = indices[0] - 1
            linear[i] = linear.get(i, 0) + coeff
        elif len(indices) == 2:
            a, b = indices[0] - 1, indices[1] - 1
            if a == b:
                raise InputError("quadratic terms must pair two distinct variables")
            if a > b:
                a, b = b, a
            quadratic[(a, b)] = quadratic.get((a, b), 0) + coeff
        else:
            raise InputError(f"term {chunk!r} has degree > 2")
    if not seen_term:
        raise InputError("empty polynomial text")
    return MultilinearPoly(max_index, constant, linear, quadratic)


def random_poly_text(rng, max_len=12):
    """A random string over the characters and tokens of polynomial text."""
    pieces = ("x", "x", "0", "1", "2", "3", "9", "+", "+", "-", "-", "*", "*", " ", "x0", "x1", "x2", "x10", "x3")
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, max_len)))


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


def canonical_form_unpruned(f):
    """Oracle for ``canonical_form``: try every class-respecting placement of
    the edge-touching members and keep the least ``(s, L, E)`` encoding.
    Returns the key and ``f`` relabelled by the placement that attains it."""
    s = f.num_vars
    L = frozenset(f.linear)
    edges = sorted(f.quadratic)
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
    return CanonicalKey(best), permute_variables(f, best_perm)


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

    return {v: pr for v, pr in sorted(law(f).items()) if pr}


def tv_distance_oracle(d1, d2):
    """Oracle for ``tv_distance``: half the sum of |d1(v) - d2(v)| in Fractions."""
    values = set(d1.support()) | set(d2.support())
    return sum((abs(d1.prob(v) - d2.prob(v)) for v in values), Fraction(0)) / 2


def poisson_tv_check_per_term(n, p):
    """Oracle for ``poisson_tv_check``: each binomial mass as a reduced
    Fraction and each Poisson mass from exp(-lambda) lambda^m / m!, at 50
    digits, with a one-sided 1e-12 slack on the verdict."""
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
    return tv, tv <= float(p) + 1e-12


def gm_membership_derived(f, m):
    """Oracle for ``gm_membership``: the neighbourhood predicate.

    With ``L`` the linear support and ``N(i)`` the quadratic neighbours of
    ``i``: every slot must satisfy ``i in L or N(i) & L != {}`` and
    ``|(L | N(i)) - {i}| <= m - 1``.
    """
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
    return [value_weight_counts(k.member) for k in family.keys]


def max_structure_stats(family):
    """Extremes over the family: ``(variable count, |L|, quadratic degree)``."""
    max_vars = 0
    max_lin = 0
    max_deg = 0
    for k in family.keys:
        f = k.member
        max_vars = max(max_vars, f.num_vars)
        max_lin = max(max_lin, len(f.linear))
        deg: dict[int, int] = {}
        for a, b in f.quadratic:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if deg:
            max_deg = max(max_deg, max(deg.values()))
    return max_vars, max_lin, max_deg


def reduction_bound_unpruned(family, profiles, p, ell_min):
    """Oracle for ``reduction_bound``: a Fraction loop over every value of
    every member, with no pruning.

    Returns ``(bound, gm_part, witness_key, witness_ell)``; family ties go to
    the smallest ``(key, value)``.
    """
    max_n = max(k.code[0] for k in family.keys)
    p_pows = [p**w for w in range(max_n + 1)]
    q_pows = [(1 - p) ** w for w in range(max_n + 1)]
    best = None
    for key, profile in zip(family.keys, profiles):
        n = key.code[0]
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


def sorted_columns_undo(t, q, cap_row):
    """Oracle for ``gm._sorted_columns``: the column sequences as first
    generated, by a recursion that updates shared lists and undoes each
    update."""
    out = []
    counts = [0] * t
    cols = []

    def rec(idx, start):
        if idx == q:
            out.append(tuple(cols))
            return
        for mask in range(start, 1 << t):
            rows = [r for r in range(t) if mask >> r & 1]
            if any(counts[r] >= cap_row for r in rows):
                continue
            for r in rows:
                counts[r] += 1
            cols.append(mask)
            rec(idx + 1, mask)
            cols.pop()
            for r in rows:
                counts[r] -= 1

    rec(0, 1)
    return out


def bounded_degree_masks(q, max_degree):
    """Oracle for ``gm._bounded_degree_graphs``: every mask of the C(q, 2)
    pairs on q vertices, kept when no vertex degree exceeds ``max_degree``."""
    pairs = list(combinations(range(q), 2))
    kept = []
    for mask in range(1 << len(pairs)):
        edges = tuple(pair for i, pair in enumerate(pairs) if mask >> i & 1)
        if all(sum(v in pair for pair in edges) <= max_degree for v in range(q)):
            kept.append(edges)
    return kept


def skeletons(m, t, q):
    """Edge lists of the branch's skeletons: attachment columns plus a
    bounded-degree graph on the quadratic-only vertices, no edge inside L.
    The columns and the graphs come from oracles, so the generator's own
    are checked against them."""
    qq_graphs = bounded_degree_masks(q, m - 1 - t)
    for cols in sorted_columns_undo(t, q, m - t):
        base = [(r, t + ci) for ci, mask in enumerate(cols) for r in range(t) if mask >> r & 1]
        for qq in qq_graphs:
            yield base + [(t + a, t + b) for a, b in qq]


def uncut_codes(m, t, q):
    """Oracle for the generator's order cuts: the canonical codes of every
    skeleton of branch ``(t, q)`` completed by every edge set inside ``L``."""
    ll_pairs = list(combinations(range(t), 2))
    ll_sets = [
        [ll_pairs[i] for i in range(len(ll_pairs)) if ll_mask >> i & 1]
        for ll_mask in range(1 << len(ll_pairs))
    ]
    lmask = (1 << t) - 1
    return {canonical_code(t + q, lmask, skeleton + ll) for skeleton in skeletons(m, t, q) for ll in ll_sets}


def star_search_oracle(max_s, ells, p):
    """Independent exhaustive max of P[f = 0], f = ell(1 - sum x) + edges,
    with its first maximizer ``(ell, s, edges)`` in (ell, s, edge-mask) order.

    Plain bitmask enumeration: every variable count up to ``max_s``, every
    edge subset, every ell, every 0/1 assignment.
    """
    p = Fraction(p)
    best, witness = Fraction(-1), None
    for ell in sorted(ells):
        for v in range(1, max_s + 1):
            pairs = list(combinations(range(v), 2))
            pair_bits = [(1 << i) | (1 << j) for i, j in pairs]
            ones = [bin(a).count("1") for a in range(1 << v)]
            weight = [p ** ones[a] * (1 - p) ** (v - ones[a]) for a in range(1 << v)]
            sat = [
                sum(1 << t for t, bits in enumerate(pair_bits) if a & bits == bits)
                for a in range(1 << v)
            ]
            for mask in range(1 << len(pairs)):
                prob = Fraction(0)
                for a in range(1 << v):
                    if ell * (1 - ones[a]) + bin(mask & sat[a]).count("1") == 0:
                        prob += weight[a]
                if prob > best:
                    edges = tuple(pair for t, pair in enumerate(pairs) if mask >> t & 1)
                    best, witness = prob, (ell, v, edges)
    return best, witness


def automorphism_count(key):
    """|Aut| of the unit form a canonical key spells out, by a plain
    backtracking search: vertex v is mapped to an unused vertex with the same
    L membership and degree whose adjacency to the images of 0..v-1 matches
    v's own."""
    s, lin, edges = key.code
    in_l = [v in lin for v in range(s)]
    adj = [set() for _ in range(s)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    image = []

    def extend(v):
        if v == s:
            return 1
        total = 0
        for w in range(s):
            if w in image or in_l[w] != in_l[v] or len(adj[w]) != len(adj[v]):
                continue
            if all((u in adj[v]) == (image[u] in adj[w]) for u in range(v)):
                image.append(w)
                total += extend(v + 1)
                image.pop()
        return total

    return extend(0)


def labelled_members(m, t, q):
    """Labelled members at threshold ``m`` with |L| = t and q quadratic-only
    vertices: C(t + q, t) ways to place L, A attachment-column tuples, B graphs
    on the quadratic-only vertices and 2^C(t, 2) edge sets inside L.  A counts
    the ordered q-tuples of nonempty t-bit masks in which each row is set in
    at most m - t masks, by brute force; B counts the labelled graphs on q
    vertices with maximum degree at most m - 1 - t."""
    a = sum(
        all(sum(mask >> r & 1 for mask in cols) <= m - t for r in range(t))
        for cols in product(range(1, 1 << t), repeat=q)
    )
    b = len(bounded_degree_masks(q, m - 1 - t))
    return math.comb(t + q, t) * a * b * 2 ** math.comb(t, 2)


def table_rows(report) -> list[dict]:
    """The table certificate's rows as the CLI's CSV renders them; m and count as ints."""
    rows = list(csv.DictReader(io.StringIO(table_csv(report))))
    for row in rows:
        row["m"], row["count"] = int(row["m"]), int(row["count"])
    return rows
