"""Certificate computations: reduction bounds, named inequality batteries,
and the supporting finite oracles.

Every verdict is decided in exact rational arithmetic.  :func:`reduction_bound`
is the one computation of the reduction bound: it weighs the value rows of the
family it is given, all on one width, by one scale, so the masses compare as
integers.  :func:`optimize_p` and the ``reduction_spot`` suite read their
bounds from it, each on a G(m) its caller enumerated once.  A witness is a
canonical key, and its polynomial is the key's ``member``.  Floats appear only
in decimal annotations.  Where a side is transcendental (antichain expectation,
Poisson TV), e^x is enclosed in integers by :func:`dist.exp_enclosure` and a
check passes only if the whole enclosure clears its bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .dist import (
    SliceSpec,
    bernoulli_value_dist,
    binmax,
    binmaxplus,
    binomial_numerators,
    format_rational,
    point_probability,
    poisson_peak_lower,
    poisson_tv_check,
    product_slice_tv,
    weight_scale,
)
from .errors import InputError, as_integer, as_integers, as_probability, as_rational
from .gm import GmFamily, enumerate_gm, var_bound
from .poly import (
    CanonicalKey,
    MultilinearPoly,
    canonical_form,
    parse_poly,
    poly_to_json,
    value_weight_counts,
)
from .report import VerificationReport, check

#: Reference row per threshold m: (class count, optimal grid p, bound to 4 dp).
TABLE_REFERENCE: dict[int, tuple[int, Fraction, Fraction]] = {
    2: (4, Fraction(2, 3), Fraction(4444, 10000)),
    3: (16, Fraction(1, 2), Fraction(3750, 10000)),
    4: (99, Fraction(2, 5), Fraction(3456, 10000)),
    5: (1653, Fraction(1, 3), Fraction(3292, 10000)),
}

#: |computed bound - reference| tolerance for "matches to 4 decimal places".
TABLE_TOLERANCE = Fraction(1, 20000)


#: The point p = 0.388 and the target 0.725 of the ``better34`` battery and the star search.
BETTER34_P = Fraction(97, 250)
BETTER34_TARGET = Fraction(29, 40)

#: The points :func:`optimize_p` searches: the multiples of 1/300 strictly inside (0, 1).
GRID = [Fraction(i, 300) for i in range(1, 300)]


@dataclass
class ReductionBound:
    """Exact reduction bound together with the attaining family witness."""

    bound: Fraction
    binmax_part: Fraction
    gm_part: Fraction
    witness_key: CanonicalKey | None
    witness_ell: int | None


def reduction_bound(family: GmFamily, p, ell_min: int) -> ReductionBound:
    """max(binmax(m, p), family point-mass max over values >= ell_min), m = ``family.m``.

    The family part is maximized over the rows ``family.value_rows`` of the
    family given, at values at least ``ell_min``, that is over every member
    and every achievable value that large; ties are broken toward the
    lexicographically smallest canonical key, then the smallest value.  Every
    row counts assignments on the same N = ``var_bound(m)`` slots, so with
    p = a/b one scale ``weight_scale(p, N)`` turns each row into its mass
    times b^N, and rows compare as integers.  The witness is reported
    whenever the family part attains the overall bound; with no rows the
    family part is 0.  p and ``ell_min`` are read before the rows are built.
    """
    p = as_probability(p)
    if not 0 < p < 1:
        raise InputError("p must lie strictly between 0 and 1")
    ell_min = as_integer(ell_min)
    if ell_min < 1:
        raise InputError("ell_min must be >= 1")
    width = var_bound(family.m)
    scale = weight_scale(p, width)
    best: tuple[int, CanonicalKey, int] | None = None
    for value, rows in family.value_rows.items():
        for counts, key in rows if value >= ell_min else ():
            num = sum(map(mul, counts, scale))
            if best is None or num > best[0] or (num == best[0] and (key, value) < best[1:]):
                best = (num, key, value)
    num, key, value = best or (0, None, None)
    gm_part = Fraction(num, p.denominator**width)
    binmax_part = binmax(family.m, p)
    bound = max(binmax_part, gm_part)
    if gm_part < bound:
        key = value = None
    return ReductionBound(bound, binmax_part, gm_part, key, value)


def optimize_p(family: GmFamily) -> tuple[Fraction, Fraction]:
    """Point of :data:`GRID` minimizing the reduction bound over values >= 2,
    with its exact bound.

    Exact ties are broken toward the larger p (the reference table's m=2 row
    has two exact minima, at 1/3 and 2/3, and is quoted at the larger one).
    """
    bounds = [(p, reduction_bound(family, p, 2).bound) for p in GRID]
    return min(bounds, key=lambda pb: (pb[1], -pb[0]))


# ---------------------------------------------------------------------------
# Named certificates
# ---------------------------------------------------------------------------

_WITNESS_POLY_TEXT = "x2+x3+x4+x5+x1*x2+x1*x3+x1*x4+x1*x5"


def verify_prop_033(workers: int = 1) -> VerificationReport:
    """m=5 reduction bound at p=1/3 stays strictly below 0.3293."""
    p = Fraction(1, 3)
    threshold = Fraction(3293, 10000)
    rb = reduction_bound(enumerate_gm(5, workers), p, 2)
    expected_key = canonical_form(parse_poly(_WITNESS_POLY_TEXT))
    witness = None
    if rb.witness_key is not None:
        witness = {
            "key": rb.witness_key.text,
            "ell": rb.witness_ell,
            "poly": poly_to_json(rb.witness_key.member),
        }
    checks = [
        check("bound_below_threshold", rb.bound, "<", threshold),
        check("binmax_equals_family_part", rb.binmax_part, "==", rb.gm_part),
        check("witness_ell", Fraction(rb.witness_ell if rb.witness_ell is not None else -1), "==", Fraction(2)),
        check("witness_key", rb.witness_key.text if rb.witness_key else "", "==s", expected_key.text),
    ]
    return VerificationReport(
        name="prop033",
        inputs={"m": 5, "p": "1/3", "ell_min": 2},
        exact_values={"bound": rb.bound, "binmax_part": rb.binmax_part, "family_part": rb.gm_part},
        threshold=threshold,
        witness=witness,
        checks=checks,
    )


def verify_counts(workers: int = 1) -> VerificationReport:
    """Family sizes for m = 2..5 against the reference row 4, 16, 99, 1653."""
    checks = []
    exact: dict[str, Fraction] = {}
    for m, (ref_count, _, _) in TABLE_REFERENCE.items():
        family = enumerate_gm(m, workers)
        exact[f"count_m{m}"] = Fraction(family.count)
        checks.append(check(f"count_m{m}", Fraction(family.count), "==", Fraction(ref_count)))
    return VerificationReport(
        name="counts",
        inputs={"m_range": "2..5"},
        exact_values=exact,
        checks=checks,
    )


def verify_prop_027() -> VerificationReport:
    """m=8 bound at p=0.426: binomial part, expectation, and Markov step."""
    p = Fraction(213, 500)
    threshold = Fraction(27, 100)
    bm = binmax(8, p)
    expectation = 70 * p * p + 8 * p
    markov = expectation / 60
    checks = [
        check("binmax_below_threshold", bm, "<", threshold),
        check("expectation_bound", expectation, "<", Fraction(16112, 1000)),
        check("markov_tail_bound", markov, "<", threshold),
    ]
    return VerificationReport(
        name="prop027",
        inputs={"m": 8, "p": "213/500", "tail_from": 60},
        exact_values={"binmax8": bm, "expectation": expectation, "markov": markov},
        threshold=threshold,
        checks=checks,
    )


def verify_table(workers: int = 1) -> tuple[VerificationReport, list[dict]]:
    """Reproduce the m=2..5 reference table (counts, optimal p, bounds)."""
    checks = []
    exact: dict[str, Fraction] = {}
    rows: list[dict] = []
    for m, (ref_count, ref_p, ref_bound) in TABLE_REFERENCE.items():
        family = enumerate_gm(m, workers)
        p_star, bound = optimize_p(family)
        exact[f"bound_m{m}"] = bound
        exact[f"p_star_m{m}"] = p_star
        checks.append(check(f"count_m{m}", Fraction(family.count), "==", Fraction(ref_count)))
        checks.append(check(f"p_star_m{m}", p_star, "==", ref_p))
        checks.append(check(f"bound_m{m}_to_4dp", abs(bound - ref_bound), "<=", TABLE_TOLERANCE))
        rows.append(
            {
                "m": m,
                "count": family.count,
                "p_star": format_rational(p_star),
                "bound_exact": format_rational(bound),
                "bound_decimal": f"{float(bound):.10f}",
            }
        )
    report = VerificationReport(
        name="table",
        inputs={"m_range": "2..5", "grid": "i/300, i=1..299", "ell_min": 2},
        exact_values=exact,
        checks=checks,
    )
    return report, rows


def _two_layer_max(s: int, p: Fraction) -> Fraction:
    """max over nonempty pairs {l1, l2} of positive values of P[Bin(s,p) in pair]:
    the two largest positive masses (the only one when s = 1)."""
    numerators = sorted(binomial_numerators(s, p)[1:], reverse=True)
    return Fraction(sum(numerators[:2]), p.denominator**s)


def check_better34_inequalities(p=BETTER34_P) -> VerificationReport:
    """The exact inequality battery behind the 0.725 threshold at p=0.388.

    Three groups: the positive-binomial point-mass bound 19/40 (base cases
    m <= 2 plus identity with the full binomial max, with a belt-and-braces
    scan up to m=64), the two combined 0.725 comparisons, and the two-layer
    0.713 comparisons for the complete-multipartite case.
    """
    p = as_probability(p)
    b = Fraction(19, 40)
    two_layer_cap = Fraction(713, 1000)
    bp2 = binmaxplus(2, p)
    bm2 = binmax(2, p)
    two_layer_s3 = _two_layer_max(3, p)
    two_layer_tail = 2 * binmax(4, p)
    belt = max(binmaxplus(mm, p) for mm in range(0, 65))
    combined = (1 - b) * (1 - p) + b * (1 - p * p)
    multipartite = 1 - (1 - b) ** 2
    checks = [
        check("binmaxplus_m0", binmaxplus(0, p), "<", b),
        check("binmaxplus_m1", binmaxplus(1, p), "<", b),
        check("binmaxplus_m2", bp2, "<", b),
        check("binmaxplus_m2_equals_binmax", bp2, "==", bm2),
        check("binmaxplus_scan_m_le_64", belt, "<", b),
        check("combined_bound", combined, "<", BETTER34_TARGET),
        check("multipartite_bound", multipartite, "<", BETTER34_TARGET),
        check("two_layer_s1", _two_layer_max(1, p), "<", two_layer_cap),
        check("two_layer_s2", _two_layer_max(2, p), "<", two_layer_cap),
        check("two_layer_s3", two_layer_s3, "<", two_layer_cap),
        check("two_layer_tail", two_layer_tail, "<", two_layer_cap),
    ]
    return VerificationReport(
        name="better34",
        inputs={"p": format_rational(p)},
        exact_values={
            "binmax2": bm2,
            "binmaxplus_scan_max": belt,
            "combined": combined,
            "multipartite": multipartite,
            "two_layer_s3": two_layer_s3,
            "two_layer_tail": two_layer_tail,
        },
        threshold=BETTER34_TARGET,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Zero-probability search over reduced star-form polynomials
# ---------------------------------------------------------------------------


def verify_star_search(
    max_s: int = 5, ell_values: Iterable[int] = (-2, -1, 1, 2), p=BETTER34_P
) -> VerificationReport:
    """Exhaustive max of P[f = 0] over f = ell(1 - sum x_i) + edge terms.

    Every graph on up to ``max_s`` labelled vertices is paired with every
    requested ``ell``.  At weight w, f = 0 exactly when the graph has
    ell(w - 1) edges among the ones, so one value/weight table of the graph's
    edge form serves every ell; its mass at p = a/b is an integer over b^s,
    and the masses of all the weights must total b^s.  The witness is the
    first maximizer in (ell, size, edge-mask) order.
    """
    max_s = as_integer(max_s)
    if not 1 <= max_s <= 5:
        raise InputError("max_s must be in 1..5")
    p = as_probability(p)
    ells = sorted(set(as_integers(ell_values)))
    if not ells:
        raise InputError("need at least one ell value")
    if any(e == 0 or abs(e) > 4 for e in ells):
        raise InputError("ell values must be nonzero with |ell| <= 4")
    b = p.denominator
    best = dict.fromkeys(ells, (-1, 0, ()))  # ell -> (mass times b^max_s, size, edges)
    for s in range(1, max_s + 1):
        pairs = list(combinations(range(s), 2))
        scale, lift = weight_scale(p, s), b ** (max_s - s)
        for mask in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            counts = value_weight_counts(MultilinearPoly(s, 0, {}, dict.fromkeys(edges, 1)))
            if sum(c * scale[w] for per_w in counts.values() for w, c in per_w.items()) != b**s:
                raise RuntimeError(f"the law of the edges {edges} on {s} vertices does not total 1")
            for ell in ells:
                num = lift * sum(counts.get(ell * (w - 1), {}).get(w, 0) * scale[w] for w in range(s + 1))
                if num > best[ell][0]:
                    best[ell] = (num, s, edges)
    ell, (num, s, edges) = max(best.items(), key=lambda item: item[1][0])
    prob = Fraction(num, b**max_s)
    return VerificationReport(
        name="star_search",
        inputs={"max_vars": max_s, "ell_values": ells, "p": format_rational(p)},
        exact_values={"max_zero_probability": prob},
        threshold=BETTER34_TARGET,
        witness={"ell": ell, "num_vars": s,
                 "edges": [[u + 1, v + 1] for u, v in edges], "prob": format_rational(prob)},
        checks=[check("max_zero_probability", prob, "<", BETTER34_TARGET)],
    )


# ---------------------------------------------------------------------------
# Finite oracles for the supporting lemmas
# ---------------------------------------------------------------------------


def _require_antichain(n: int, sets: Sequence[frozenset[int]]) -> None:
    for a in sets:
        if not all(0 <= v < n for v in a):
            raise InputError(f"set {sorted(a)} not inside the ground set of size {n}")
    if len(set(sets)) != len(sets):
        raise InputError("duplicate sets are not allowed in an antichain")
    for a, bset in combinations(sets, 2):
        if a <= bset or bset <= a:
            raise InputError(f"not an antichain: {sorted(a)} and {sorted(bset)} are comparable")


def blym_check(n: int, antichain: Iterable[Iterable[int]]) -> tuple[Fraction, bool]:
    """Layer-weighted sum of an antichain in 2^[n]; must be <= 1."""
    n = as_integer(n)
    if n < 0:
        raise InputError("n must be >= 0")
    sets = [frozenset(as_integers(a)) for a in antichain]
    _require_antichain(n, sets)
    total = sum((Fraction(1, math.comb(n, len(a))) for a in sets), Fraction(0))
    return total, total <= 1


def antichain_expectation_check(
    ground_size: int, phi: Mapping[frozenset, Fraction], p
) -> tuple[Fraction, float, bool]:
    """[0,1]-weight supported on an antichain: product-model expectation of
    the induced witness indicator against the pointwise stationary bound
    max_A |A|^|A| / (e^|A| |A|!) * phi(A), plus p.

    The left side is exact; it must be at most the lower end of the right
    side's enclosure (from the upper end of e^|A|'s), returned as a float.
    """
    ground_size = as_integer(ground_size)
    if not 0 <= ground_size <= 20:
        raise InputError("ground_size must be in 0..20")
    p = as_probability(p)
    support = []
    for a, w in phi.items():
        w = as_rational(w)
        if not 0 <= w <= 1:
            raise InputError(f"weight {w} outside [0, 1]")
        if w:
            support.append((frozenset(as_integers(a)), w))
    _require_antichain(ground_size, [a for a, _ in support])
    lhs = sum(
        (w * p ** len(a) * (1 - p) ** (ground_size - len(a)) for a, w in support),
        Fraction(0),
    )
    rhs = p + max((w * poisson_peak_lower(len(a)) for a, w in support), default=0)
    return lhs, float(rhs), lhs <= rhs


def elo_max(coeffs: Sequence) -> tuple[Fraction, Fraction, bool]:
    """Largest point mass of a signed sum of nonzero terms vs the central
    binomial bound C(n, floor(n/2)) / 2^n.

    The subset sums run on integers: scaling every coefficient by the LCM of
    the denominators is a bijection on the sums, so the counts are unchanged.
    """
    values = [as_rational(c) for c in coeffs]
    n = len(values)
    if n < 1:
        raise InputError("need at least one coefficient")
    if n > 20:
        raise InputError("at most 20 coefficients supported")
    if any(v == 0 for v in values):
        raise InputError("coefficients must be nonzero")
    scale = math.lcm(*(v.denominator for v in values))
    sums: dict[int, int] = {0: 1}
    for a in (v.numerator * (scale // v.denominator) for v in values):
        nxt: dict[int, int] = {}
        for s, cnt in sums.items():
            for t in (s + a, s - a):
                nxt[t] = nxt.get(t, 0) + cnt
        sums = nxt
    max_prob = Fraction(max(sums.values()), 2**n)
    bound = Fraction(math.comb(n, n // 2), 2**n)
    return max_prob, bound, max_prob <= bound


def large_linear_part_check(f: MultilinearPoly, m: int, p, ell: int) -> tuple[Fraction, Fraction, bool]:
    """Point mass of a non-negative polynomial with >= m linear terms vs binmax(m, p)."""
    m = as_integer(m)
    if m < 1:
        raise InputError("m must be >= 1")
    if f.num_vars > 20:
        raise InputError("at most 20 variables supported")
    if f.constant < 0 or any(c < 0 for c in f.linear.values()) or any(c < 0 for c in f.quadratic.values()):
        raise InputError("all coefficients must be non-negative")
    if len(f.linear) < m:
        raise InputError(f"need at least m={m} nonzero linear terms, found {len(f.linear)}")
    p = as_probability(p)
    prob = point_probability(f, p, ell)
    bound = binmax(m, p)
    return prob, bound, prob <= bound


# ---------------------------------------------------------------------------
# Seeded property suites (used by the lemmas certificate and the test suite)
# ---------------------------------------------------------------------------


def _random_antichain(rng: random.Random, n: int) -> list[frozenset[int]]:
    sets: list[frozenset[int]] = []
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(0, n)
        cand = frozenset(rng.sample(range(n), size))
        if all(not (cand <= other or other <= cand) for other in sets):
            sets.append(cand)
    return sets or [frozenset()]


def _violations(seed: int, count: int, case: Callable[[random.Random], int]) -> int:
    """Violations of ``count`` cases drawn from one ``Random(seed)`` stream;
    a case returns its own count, a bool counting as 0 or 1."""
    rng = random.Random(seed)
    return sum(case(rng) for _ in range(count))


def _blym_case(rng: random.Random) -> bool:
    n = rng.randint(1, 12)
    return not blym_check(n, _random_antichain(rng, n))[1]


def _antichain_expectation_case(rng: random.Random) -> bool:
    n = rng.randint(1, 12)
    sets = _random_antichain(rng, n)
    phi = {a: Fraction(rng.randint(0, 8), 8) for a in sets}
    p = Fraction(rng.randint(1, 99), 100)
    return not antichain_expectation_check(n, phi, p)[2]


def _elo_case(rng: random.Random) -> bool:
    coeffs = []
    for _ in range(rng.randint(1, 12)):
        num = 0
        while num == 0:
            num = rng.randint(-9, 9)
        coeffs.append(Fraction(num, rng.randint(1, 9)))
    return not elo_max(coeffs)[2]


def suite_poisson_tv(max_n: int = 50, denominators: int = 50, max_j: int = 25) -> int:
    return sum(
        not poisson_tv_check(n, Fraction(j, denominators))[1]
        for n in range(1, max_n + 1)
        for j in range(1, max_j + 1)
    )


def _product_slice_case(rng: random.Random) -> bool:
    n = rng.randint(2, 12)
    k = rng.randint(1, n // 2)
    s = rng.randint(1, min(n, 6))
    f = _random_int_poly(rng, s, -3, 3)
    return not product_slice_tv(f, SliceSpec(n, k))[2]


def _random_int_poly(rng: random.Random, n: int, lo: int, hi: int) -> MultilinearPoly:
    lin = {i: rng.randint(lo, hi) for i in range(n)}
    quad = {(a, b): rng.randint(lo, hi) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
    return MultilinearPoly(n, rng.randint(lo, hi), lin, quad)


def _large_linear_part_case(rng: random.Random) -> bool:
    n = rng.randint(1, 10)
    lin_support = rng.sample(range(n), rng.randint(1, n))
    lin = {i: rng.randint(1, 3) for i in lin_support}
    quad = {(a, b): rng.randint(0, 2) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3}
    f = MultilinearPoly(n, rng.randint(0, 3), lin, quad)
    m = rng.randint(1, len(lin))
    p = Fraction(rng.randint(1, 99), 100)
    ell = rng.choice(sorted(value_weight_counts(f)))
    return not large_linear_part_check(f, m, p, ell)[2]


def _random_unit_form(rng: random.Random) -> MultilinearPoly:
    s = rng.randint(1, 8)
    linear = {i for i in range(s) if rng.random() < 0.5}
    edges = {(a, b) for a in range(s) for b in range(a + 1, s) if rng.random() < 0.35}
    used = set(linear)
    for a, b in edges:
        used.add(a)
        used.add(b)
    linear |= set(range(s)) - used
    return MultilinearPoly(s, 0, dict.fromkeys(linear, 1), dict.fromkeys(edges, 1))


def suite_reduction_spot(seed: int, count: int) -> int:
    """Random members of the unrestricted 0/1 family against reduction bounds;
    a case counts every bound its point mass exceeds."""
    ps = (Fraction(1, 3), Fraction(1, 2))
    bounds = [(p, reduction_bound(family, p, 1).bound) for family in map(enumerate_gm, (2, 3, 4, 5)) for p in ps]

    def case(rng: random.Random) -> int:
        f = _random_unit_form(rng)
        laws = {p: bernoulli_value_dist(f, p) for p in ps}
        positive = [v for v in laws[ps[rng.randint(0, 1)]].support() if v >= 1]
        if not positive:
            return 0
        ell = rng.choice(positive)
        return sum(laws[p].prob(ell) > bound for p, bound in bounds)

    return _violations(seed, count, case)


#: (suite name, callable(seed) -> violations): each binds its case and its acceptance-scale size.
LEMMA_SUITES = {
    "blym": lambda seed: _violations(seed, 1000, _blym_case),
    "antichain_expectation": lambda seed: _violations(seed, 1000, _antichain_expectation_case),
    "elo": lambda seed: _violations(seed, 1000, _elo_case),
    "poisson_tv": lambda seed: suite_poisson_tv(),
    "product_slice_tv": lambda seed: _violations(seed, 1000, _product_slice_case),
    "large_linear_part": lambda seed: _violations(seed, 1000, _large_linear_part_case),
    "reduction_spot": lambda seed: suite_reduction_spot(seed, 250),
}

DEFAULT_SUITE_SEED = 20240801


def verify_lemmas(seed: int = DEFAULT_SUITE_SEED) -> VerificationReport:
    """Seeded randomized batteries for the supporting finite oracles."""
    checks = []
    for name, runner in LEMMA_SUITES.items():
        violations = runner(seed)
        checks.append(check(f"{name}_violations", Fraction(violations), "==", Fraction(0)))
    return VerificationReport(
        name="lemmas",
        inputs={"seed": seed},
        checks=checks,
    )
