"""Certificate computations: reduction bounds, named inequality batteries,
and the supporting finite oracles.

Every verdict is decided in exact rational arithmetic.  The reduction bounds
and :func:`optimize_p` compare family point masses as integer numerators over
a common power of the denominator of p, on value rows pruned once per family.
Floats appear only in decimal annotations and on the 50-digit transcendental
sides of the antichain-expectation and Poisson comparisons, which carry a
one-sided 1e-12 slack.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import le, mul
from typing import Iterable, Mapping, Sequence

import mpmath

from .dist import (
    SliceSpec,
    as_probability,
    bernoulli_value_dist,
    binmax,
    binmaxplus,
    format_rational,
    point_probability,
    poisson_tv_check,
    product_slice_tv,
)
from .errors import InputError
from .gm import GmFamily, enumerate_gm, var_bound
from .poly import (
    CanonicalKey,
    GPolynomial,
    MultilinearPoly,
    canonical_key,
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


def default_grid() -> list[Fraction]:
    """Multiples of 1/300 strictly inside (0, 1)."""
    return [Fraction(i, 300) for i in range(1, 300)]


@dataclass
class ReductionBound:
    """Exact reduction bound together with the attaining family witness."""

    m: int
    p: Fraction
    ell_min: int
    bound: Fraction
    binmax_part: Fraction
    gm_part: Fraction
    witness_key: CanonicalKey | None
    witness_ell: int | None
    witness_poly: GPolynomial | None


#: One family value: (width n, counts by weight 0..n, key, value, member).
ValueRow = tuple[int, tuple[int, ...], CanonicalKey, int, GPolynomial]


def _value_rows(family: GmFamily, ell_min: int) -> list[ValueRow]:
    """Rows of the member values ``>= ell_min`` that can be the family maximum.

    A row's mass at p is sum_w counts[w] p^w (1-p)^(n-w).  Of equal
    ``(n, counts)`` only the smallest ``(key, value)`` is kept.  A row that
    another of the same width dominates componentwise is strictly lighter for
    every p in (0, 1) and is dropped.  Rows are visited by descending total
    count, and domination is transitive, so every dropped row is dominated by
    a row already kept.
    """
    first: dict[tuple[int, tuple[int, ...]], ValueRow] = {}
    for key, g, profile in zip(family.keys, family.members, family.profiles):
        n = g.num_vars
        for value, per_w in sorted(profile.items()):
            if value >= ell_min:
                counts = tuple(per_w.get(w, 0) for w in range(n + 1))
                # keys are sorted, so the first row seen has the smallest (key, value)
                first.setdefault((n, counts), (n, counts, key, value, g))
    kept: dict[int, list[tuple[int, ...]]] = {}
    rows: list[ValueRow] = []
    for row in sorted(first.values(), key=lambda r: -sum(r[1])):
        n, counts = row[0], row[1]
        frontier = kept.setdefault(n, [])
        if not any(all(map(le, counts, other)) for other in frontier):
            frontier.append(counts)
            rows.append(row)
    return rows


def _family_max(
    rows: Sequence[ValueRow], p: Fraction, max_n: int
) -> tuple[Fraction, CanonicalKey | None, int | None, GPolynomial | None]:
    """Largest row mass at p, ties to the smallest ``(key, value)``; mass 0
    and no witness when there are no rows.

    With p = a/b a row's mass times b^max_n is the integer
    sum_w counts[w] a^w (b-a)^(n-w) b^(max_n-n), so rows compare as integers.
    """
    a, b = p.numerator, p.denominator
    scale = [
        [a**w * (b - a) ** (n - w) * b ** (max_n - n) for w in range(n + 1)] for n in range(max_n + 1)
    ]
    best: tuple[int, CanonicalKey, int, GPolynomial] | None = None
    for n, counts, key, value, g in rows:
        num = sum(map(mul, counts, scale[n]))
        if best is None or num > best[0] or (num == best[0] and (key, value) < (best[1], best[2])):
            best = (num, key, value, g)
    if best is None:
        return Fraction(0), None, None, None
    return Fraction(best[0], b**max_n), best[1], best[2], best[3]


def _family_for(m: int, ell_min: int, family: GmFamily | None, workers: int) -> GmFamily:
    if ell_min < 1:
        raise InputError("ell_min must be >= 1")
    if family is None:
        return enumerate_gm(m, workers)
    if family.m != m:
        raise InputError(f"family was enumerated for m={family.m}, not m={m}")
    return family


def reduction_bound(
    m: int, p, ell_min: int, family: GmFamily | None = None, workers: int = 1
) -> ReductionBound:
    """max(binmax(m, p), family point-mass max over values >= ell_min).

    The family part is maximized over every member and every achievable value
    at least ``ell_min``; ties are broken toward the lexicographically
    smallest canonical key, then the smallest value.  The witness is reported
    whenever the family part attains the overall bound.
    """
    p = as_probability(p)
    if not 0 < p < 1:
        raise InputError("p must lie strictly between 0 and 1")
    family = _family_for(m, ell_min, family, workers)
    binmax_part = binmax(m, p)
    gm_part, key, value, g = _family_max(_value_rows(family, ell_min), p, var_bound(m))
    bound = max(binmax_part, gm_part)
    if gm_part < bound:
        key = value = g = None
    return ReductionBound(m, p, ell_min, bound, binmax_part, gm_part, key, value, g)


def optimize_p(
    m: int,
    grid: Sequence[Fraction] | None = None,
    ell_min: int = 2,
    family: GmFamily | None = None,
    workers: int = 1,
) -> tuple[Fraction, Fraction]:
    """Grid point minimizing the reduction bound, with its exact bound.

    Every grid point is evaluated exactly, on the value rows built once for
    the family.  Exact ties are broken toward the larger p (the reference
    table's m=2 row has two exact minima, at 1/3 and 2/3, and is quoted at
    the larger one).
    """
    family = _family_for(m, ell_min, family, workers)
    if grid is None:
        grid = default_grid()
    grid = sorted({as_probability(p) for p in grid})
    if not grid or grid[0] <= 0 or grid[-1] >= 1:
        raise InputError("grid must be non-empty with entries strictly inside (0, 1)")
    rows = _value_rows(family, ell_min)
    max_n = var_bound(m)
    bounds = [(p, max(binmax(m, p), _family_max(rows, p, max_n)[0])) for p in grid]
    return min(bounds, key=lambda pb: (pb[1], -pb[0]))


# ---------------------------------------------------------------------------
# Named certificates
# ---------------------------------------------------------------------------

_WITNESS_POLY_TEXT = "x2+x3+x4+x5+x1*x2+x1*x3+x1*x4+x1*x5"


def verify_prop_033(workers: int = 1) -> VerificationReport:
    """m=5 reduction bound at p=1/3 stays strictly below 0.3293."""
    start = time.perf_counter()
    p = Fraction(1, 3)
    threshold = Fraction(3293, 10000)
    family = enumerate_gm(5, workers)
    rb = reduction_bound(5, p, 2, family)
    expected_key = canonical_key(GPolynomial(parse_poly(_WITNESS_POLY_TEXT)))
    witness = None
    if rb.witness_key is not None:
        witness = {
            "key": rb.witness_key.text,
            "ell": rb.witness_ell,
            "poly": poly_to_json(rb.witness_poly.poly),
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
        wall_time=time.perf_counter() - start,
    )


def verify_counts(workers: int = 1) -> VerificationReport:
    """Family sizes for m = 2..5 against the reference row 4, 16, 99, 1653."""
    start = time.perf_counter()
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
        wall_time=time.perf_counter() - start,
    )


def verify_prop_027() -> VerificationReport:
    """m=8 bound at p=0.426: binomial part, expectation, and Markov step."""
    start = time.perf_counter()
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
        wall_time=time.perf_counter() - start,
    )


def verify_table(workers: int = 1, grid: Sequence[Fraction] | None = None) -> tuple[VerificationReport, list[dict]]:
    """Reproduce the m=2..5 reference table (counts, optimal p, bounds)."""
    start = time.perf_counter()
    checks = []
    exact: dict[str, Fraction] = {}
    rows: list[dict] = []
    for m, (ref_count, ref_p, ref_bound) in TABLE_REFERENCE.items():
        family = enumerate_gm(m, workers)
        p_star, bound = optimize_p(m, grid=grid, ell_min=2, family=family)
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
        wall_time=time.perf_counter() - start,
    )
    return report, rows


def _two_layer_max(s: int, p: Fraction) -> Fraction:
    """max over nonempty pairs {l1, l2} of positive values of P[Bin(s,p) in pair]."""
    pmf = [math.comb(s, k) * p**k * (1 - p) ** (s - k) for k in range(s + 1)]
    best = Fraction(0)
    for l1 in range(1, s + 1):
        for l2 in range(l1, s + 1):
            mass = pmf[l1] + (pmf[l2] if l2 != l1 else 0)
            best = max(best, mass)
    return best


def check_better34_inequalities(p=Fraction(97, 250)) -> VerificationReport:
    """The exact inequality battery behind the 0.725 threshold at p=0.388.

    Three groups: the positive-binomial point-mass bound 19/40 (base cases
    m <= 2 plus identity with the full binomial max, with a belt-and-braces
    scan up to m=64), the two combined 0.725 comparisons, and the two-layer
    0.713 comparisons for the complete-multipartite case.
    """
    start = time.perf_counter()
    p = as_probability(p)
    b = Fraction(19, 40)
    target = Fraction(29, 40)
    two_layer_cap = Fraction(713, 1000)
    bp2 = binmaxplus(2, p)
    belt = max(binmaxplus(mm, p) for mm in range(0, 65))
    combined = (1 - b) * (1 - p) + b * (1 - p * p)
    multipartite = 1 - (1 - b) ** 2
    checks = [
        check("binmaxplus_m0", binmaxplus(0, p), "<", b),
        check("binmaxplus_m1", binmaxplus(1, p), "<", b),
        check("binmaxplus_m2", bp2, "<", b),
        check("binmaxplus_m2_equals_binmax", bp2, "==", binmax(2, p)),
        check("binmaxplus_scan_m_le_64", belt, "<", b),
        check("combined_bound", combined, "<", target),
        check("multipartite_bound", multipartite, "<", target),
        check("two_layer_s1", _two_layer_max(1, p), "<", two_layer_cap),
        check("two_layer_s2", _two_layer_max(2, p), "<", two_layer_cap),
        check("two_layer_s3", _two_layer_max(3, p), "<", two_layer_cap),
        check("two_layer_tail", 2 * binmax(4, p), "<", two_layer_cap),
    ]
    return VerificationReport(
        name="better34",
        inputs={"p": format_rational(p)},
        exact_values={
            "binmax2": binmax(2, p),
            "binmaxplus_scan_max": belt,
            "combined": combined,
            "multipartite": multipartite,
            "two_layer_s3": _two_layer_max(3, p),
            "two_layer_tail": 2 * binmax(4, p),
        },
        threshold=target,
        checks=checks,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Zero-probability search over reduced star-form polynomials
# ---------------------------------------------------------------------------


@dataclass
class StarWitness:
    ell: int
    num_vars: int
    edges: tuple[tuple[int, int], ...]
    prob: Fraction


def star_zero_probability_search(
    max_vars: int = 5,
    ell_values: Iterable[int] = (-2, -1, 1, 2),
    p=Fraction(97, 250),
    cap: int | None = None,
) -> tuple[Fraction, StarWitness]:
    """Exhaustive max of P[f = 0] over f = ell(1 - sum x_i) + edge terms.

    Every graph on up to ``max_vars`` labelled vertices is paired with every
    requested ``ell``; the first maximizer in (ell, size, edge-mask) order is
    the witness.
    """
    if not 1 <= max_vars <= 5:
        raise InputError("max_vars must be in 1..5")
    p = as_probability(p)
    ells = sorted(set(int(e) for e in ell_values))
    if any(e == 0 or abs(e) > 4 for e in ells):
        raise InputError("ell values must be nonzero with |ell| <= 4")
    best: tuple[Fraction, StarWitness] | None = None
    for ell in ells:
        for s in range(1, max_vars + 1):
            pairs = list(combinations(range(s), 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
                f = MultilinearPoly(s, ell, {i: -ell for i in range(s)}, {e: 1 for e in edges})
                pr = point_probability(f, p, 0) if cap is None else point_probability(f, p, 0, cap)
                if best is None or pr > best[0]:
                    best = (pr, StarWitness(ell, s, edges, pr))
    assert best is not None
    return best


def verify_star_search(
    max_vars: int = 5,
    ell_values: Iterable[int] = (-2, -1, 1, 2),
    p=Fraction(97, 250),
    cap: int | None = None,
) -> VerificationReport:
    start = time.perf_counter()
    target = Fraction(29, 40)
    best, witness = star_zero_probability_search(max_vars, ell_values, p, cap)
    return VerificationReport(
        name="star_search",
        inputs={"max_vars": max_vars, "ell_values": sorted(set(int(e) for e in ell_values)), "p": format_rational(as_probability(p))},
        exact_values={"max_zero_probability": best},
        threshold=target,
        witness={
            "ell": witness.ell,
            "num_vars": witness.num_vars,
            "edges": [[a + 1, b + 1] for a, b in witness.edges],
            "prob": format_rational(witness.prob),
        },
        checks=[check("max_zero_probability", best, "<", target)],
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Finite oracles for the supporting lemmas
# ---------------------------------------------------------------------------


def _require_antichain(n: int, sets: Sequence[frozenset[int]]) -> None:
    for a in sets:
        if not a <= set(range(n)):
            raise InputError(f"set {sorted(a)} not inside the ground set of size {n}")
    if len(set(sets)) != len(sets):
        raise InputError("duplicate sets are not allowed in an antichain")
    for a, bset in combinations(sets, 2):
        if a <= bset or bset <= a:
            raise InputError(f"not an antichain: {sorted(a)} and {sorted(bset)} are comparable")


def blym_check(n: int, antichain: Iterable[Iterable[int]]) -> tuple[Fraction, bool]:
    """Layer-weighted sum of an antichain in 2^[n]; must be <= 1."""
    if n < 0:
        raise InputError("n must be >= 0")
    sets = [frozenset(int(v) for v in a) for a in antichain]
    _require_antichain(n, sets)
    total = sum((Fraction(1, math.comb(n, len(a))) for a in sets), Fraction(0))
    return total, total <= 1


def antichain_expectation_check(
    ground_size: int, phi: Mapping[frozenset, Fraction], p
) -> tuple[Fraction, float, bool]:
    """[0,1]-weight supported on an antichain: product-model expectation of
    the induced witness indicator against the pointwise stationary bound
    max_A |A|^|A| / (e^|A| |A|!) * phi(A), plus p.

    The left side is exact; the right side is evaluated at 50 digits and the
    comparison carries the one-sided 1e-12 slack.
    """
    if not 0 <= ground_size <= 20:
        raise InputError("ground_size must be in 0..20")
    p = as_probability(p)
    support = []
    for a, w in phi.items():
        w = Fraction(w)
        if not 0 <= w <= 1:
            raise InputError(f"weight {w} outside [0, 1]")
        if w:
            support.append((frozenset(int(v) for v in a), w))
    _require_antichain(ground_size, [a for a, _ in support])
    lhs = sum(
        (w * p ** len(a) * (1 - p) ** (ground_size - len(a)) for a, w in support),
        Fraction(0),
    )
    with mpmath.workdps(50):
        rhs_core = mpmath.mpf(0)
        for a, w in support:
            m = len(a)
            ratio = mpmath.mpf(m) ** m / (mpmath.e**m * mpmath.factorial(m))
            rhs_core = max(rhs_core, ratio * mpmath.mpf(w.numerator) / w.denominator)
        rhs = rhs_core + mpmath.mpf(p.numerator) / p.denominator
        lhs_f = mpmath.mpf(lhs.numerator) / lhs.denominator
        ok = bool(lhs_f <= rhs + mpmath.mpf("1e-12"))
        return lhs, float(rhs), ok


def elo_max(coeffs: Sequence) -> tuple[Fraction, Fraction, bool]:
    """Largest point mass of a signed sum of nonzero terms vs the central
    binomial bound C(n, floor(n/2)) / 2^n.

    The subset sums run on integers: scaling every coefficient by the LCM of
    the denominators is a bijection on the sums, so the counts are unchanged.
    """
    values = [Fraction(c) for c in coeffs]
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


def suite_blym(seed: int, count: int, max_n: int = 12) -> int:
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        n = rng.randint(1, max_n)
        _, ok = blym_check(n, _random_antichain(rng, n))
        if not ok:
            violations += 1
    return violations


def suite_antichain_expectation(seed: int, count: int, max_n: int = 12) -> int:
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        n = rng.randint(1, max_n)
        sets = _random_antichain(rng, n)
        phi = {a: Fraction(rng.randint(0, 8), 8) for a in sets}
        p = Fraction(rng.randint(1, 99), 100)
        _, _, ok = antichain_expectation_check(n, phi, p)
        if not ok:
            violations += 1
    return violations


def suite_elo(seed: int, count: int, max_n: int = 12) -> int:
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        n = rng.randint(1, max_n)
        coeffs = []
        for _ in range(n):
            num = 0
            while num == 0:
                num = rng.randint(-9, 9)
            coeffs.append(Fraction(num, rng.randint(1, 9)))
        _, _, ok = elo_max(coeffs)
        if not ok:
            violations += 1
    return violations


def suite_poisson_tv(max_n: int = 50, denominators: int = 50, max_j: int = 25) -> int:
    violations = 0
    for n in range(1, max_n + 1):
        for j in range(1, max_j + 1):
            _, ok = poisson_tv_check(n, Fraction(j, denominators))
            if not ok:
                violations += 1
    return violations


def suite_product_slice(seed: int, count: int) -> int:
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        n = rng.randint(2, 12)
        k = rng.randint(1, n // 2)
        s = rng.randint(1, min(n, 6))
        f = _random_int_poly(rng, s, -3, 3)
        _, _, ok = product_slice_tv(f, SliceSpec(n, k))
        if not ok:
            violations += 1
    return violations


def _random_int_poly(rng: random.Random, n: int, lo: int, hi: int) -> MultilinearPoly:
    lin = {i: rng.randint(lo, hi) for i in range(n)}
    quad = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                quad[(a, b)] = rng.randint(lo, hi)
    return MultilinearPoly(n, rng.randint(lo, hi), lin, quad)


def suite_large_linear_part(seed: int, count: int, max_n: int = 10) -> int:
    rng = random.Random(seed)
    violations = 0
    for _ in range(count):
        n = rng.randint(1, max_n)
        lin_support = rng.sample(range(n), rng.randint(1, n))
        lin = {i: rng.randint(1, 3) for i in lin_support}
        quad = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.3:
                    quad[(a, b)] = rng.randint(0, 2)
        f = MultilinearPoly(n, rng.randint(0, 3), lin, quad)
        m = rng.randint(1, len(lin))
        p = Fraction(rng.randint(1, 99), 100)
        values = sorted(value_weight_counts(f))
        ell = rng.choice(values)
        _, _, ok = large_linear_part_check(f, m, p, ell)
        if not ok:
            violations += 1
    return violations


def _random_unit_form(rng: random.Random, max_vars: int = 8) -> GPolynomial:
    s = rng.randint(1, max_vars)
    linear = {i for i in range(s) if rng.random() < 0.5}
    edges = set()
    for a in range(s):
        for b in range(a + 1, s):
            if rng.random() < 0.35:
                edges.add((a, b))
    used = set(linear)
    for a, b in edges:
        used.add(a)
        used.add(b)
    linear |= set(range(s)) - used
    return GPolynomial.from_sets(s, linear, edges)


def suite_reduction_spot(seed: int, count: int, families: Mapping[int, GmFamily] | None = None) -> int:
    """Random members of the unrestricted 0/1 family against reduction bounds."""
    rng = random.Random(seed)
    ms = (2, 3, 4, 5)
    ps = (Fraction(1, 3), Fraction(1, 2))
    bounds = {}
    for m in ms:
        family = families.get(m) if families else None
        for p in ps:
            bounds[(m, p)] = reduction_bound(m, p, 1, family).bound
    violations = 0
    for _ in range(count):
        g = _random_unit_form(rng)
        laws = [bernoulli_value_dist(g.poly, p) for p in ps]
        positive = [v for v in laws[rng.randint(0, 1)].support() if v >= 1]
        if not positive:
            continue
        ell = rng.choice(positive)
        for m in ms:
            for p, law in zip(ps, laws):
                if law.prob(ell) > bounds[(m, p)]:
                    violations += 1
    return violations


#: (suite name, callable(seed) -> violations) with acceptance-scale sizes.
LEMMA_SUITES = {
    "blym": lambda seed: suite_blym(seed, 1000),
    "antichain_expectation": lambda seed: suite_antichain_expectation(seed, 1000),
    "elo": lambda seed: suite_elo(seed, 1000),
    "poisson_tv": lambda seed: suite_poisson_tv(),
    "product_slice_tv": lambda seed: suite_product_slice(seed, 1000),
    "large_linear_part": lambda seed: suite_large_linear_part(seed, 1000),
    "reduction_spot": lambda seed: suite_reduction_spot(seed, 250),
}

DEFAULT_SUITE_SEED = 20240801


def verify_lemmas(seed: int = DEFAULT_SUITE_SEED) -> VerificationReport:
    """Seeded randomized batteries for the supporting finite oracles."""
    start = time.perf_counter()
    checks = []
    for name, runner in LEMMA_SUITES.items():
        violations = runner(seed)
        checks.append(check(f"{name}_violations", Fraction(violations), "==", Fraction(0)))
    return VerificationReport(
        name="lemmas",
        inputs={"seed": seed},
        checks=checks,
        wall_time=time.perf_counter() - start,
    )
