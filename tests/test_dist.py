"""Exact distributions: Bernoulli and slice models, binomial maxima, TV bounds."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import mpmath
import pytest

import edgestat
from edgestat.dist import (
    EXP_BITS,
    SliceSpec,
    ValueDist,
    bernoulli_value_dist,
    binmax,
    binmaxplus,
    binomial_numerators,
    exp_enclosure,
    format_rational,
    point_probability,
    poisson_tv_check,
    product_slice_tv,
    slice_value_dist,
    tv_distance,
)
from edgestat.errors import InputError, ResourceLimitError, as_probability, as_rational
from edgestat.poly import MultilinearPoly, parse_poly
from helpers import (
    bernoulli_value_dist_conditioning,
    binmax_oracle,
    eval_direct,
    permute_variables,
    poisson_tv_check_per_term,
    random_poly,
    tv_distance_oracle,
)


def test_rational_parsing_is_exact():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("0.125") == Fraction(1, 8)
    assert as_rational("2") == 2
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(2)) == "2/1"
    with pytest.raises(InputError):
        as_rational(0.5)  # floats are ambiguous; spell the rational out
    with pytest.raises(InputError):
        as_probability(Fraction(5, 4))


def test_value_dist_validation():
    d = ValueDist({3: 1, 0: 3, 7: 0}, 4)
    assert d.support() == [0, 3]
    assert d.prob(7) == 0 and d.prob(3) == Fraction(1, 4)
    assert d.probs == {0: Fraction(3, 4), 3: Fraction(1, 4)}
    assert d.to_json() == {"support": [[0, "3/4"], [3, "1/4"]]}
    with pytest.raises(InputError):
        ValueDist({}, 0)


def test_value_dist_from_numerators():
    assert ValueDist({3: 1, 0: 3, 7: 0}, 4) == ValueDist({0: 3, 3: 1}, 4)
    assert ValueDist({0: 6, 3: 2}, 8) == ValueDist({0: 3, 3: 1}, 4)
    assert ValueDist({5: 6}, 6).probs == {5: Fraction(1)}
    # the last three, non-integer masses, used to reach math.gcd and raise TypeError
    for numerators, denominator in (({0: -1, 1: 5}, 4), ({0: 1, 1: 2}, 4), ({0: 3, 1: 2}, 4),
                                    ({0: 0.5, 1: 0.5}, 1), ({0: 1}, 1.0), ({0: Fraction(1, 2), 1: 1}, 1)):
        with pytest.raises(InputError):
            ValueDist(numerators, denominator)


def test_tv_distance():
    d1 = ValueDist({0: 1, 1: 1}, 2)
    d2 = ValueDist({1: 1, 2: 1}, 2)
    assert tv_distance(d1, d2) == Fraction(1, 2)
    assert tv_distance(d1, d1) == 0


def test_tv_distance_equals_fraction_sum_oracle():
    rng = random.Random(204)
    for _ in range(40):
        f = random_poly(rng, max_vars=5)
        n = rng.randint(f.num_vars, 9)
        laws = [
            slice_value_dist(f, SliceSpec(n, rng.randint(0, n))),
            bernoulli_value_dist(f, Fraction(rng.randint(1, 9), 10)),
            bernoulli_value_dist(f, Fraction(rng.randint(1, 6), 7)),
        ]
        for d1, d2 in combinations(laws, 2):
            assert tv_distance(d1, d2) == tv_distance(d2, d1) == tv_distance_oracle(d1, d2)


def test_bernoulli_dist_small_cases():
    f = parse_poly("x1")
    assert bernoulli_value_dist(f, Fraction(1, 3)).probs == {0: Fraction(2, 3), 1: Fraction(1, 3)}
    g = parse_poly("x1+x2+x1*x2")
    assert bernoulli_value_dist(g, Fraction(1, 2)).probs == {
        0: Fraction(1, 4),
        1: Fraction(1, 2),
        3: Fraction(1, 4),
    }


def test_bernoulli_dist_matches_assignment_sum():
    rng = random.Random(201)
    for _ in range(30):
        f = random_poly(rng, max_vars=6)
        p = Fraction(rng.randint(1, 9), 10)
        dist = bernoulli_value_dist(f, p)
        table = {}
        for assignment in product((0, 1), repeat=f.num_vars):
            pr = math.prod(p if b else 1 - p for b in assignment)
            v = eval_direct(f, assignment)
            table[v] = table.get(v, Fraction(0)) + pr
        assert dist.probs == {v: pr for v, pr in sorted(table.items()) if pr}


def test_two_routes_agree():
    rng = random.Random(202)
    for _ in range(40):
        f = random_poly(rng, max_vars=7)
        p = Fraction(rng.randint(1, 99), 100)
        assert bernoulli_value_dist(f, p).probs == bernoulli_value_dist_conditioning(f, p)


def test_point_probability_consistent_with_dist():
    f = parse_poly("x2+x3+x4+x5+x1*x2+x1*x3+x1*x4+x1*x5")
    p = Fraction(1, 3)
    dist = bernoulli_value_dist(f, p)
    assert point_probability(f, p, 2) == dist.prob(2) == Fraction(80, 243)
    assert point_probability(f, p, 5) == 0


def test_point_probability_reads_ell_exactly():
    f = parse_poly("x1+x2")
    assert point_probability(f, Fraction(1, 2), "1") == point_probability(f, Fraction(1, 2), 1) == Fraction(1, 2)
    for ell in (1.0, Fraction(3, 2), "x"):
        with pytest.raises(InputError):
            point_probability(f, Fraction(1, 2), ell)


def test_assignment_cap():
    # 2**25 assignments exceed the fixed cap of 2**24.
    f = MultilinearPoly(25, 0, {i: 1 for i in range(25)}, {})
    with pytest.raises(ResourceLimitError):
        bernoulli_value_dist(f, Fraction(1, 2))


def test_binmax_against_scan():
    rng = random.Random(203)
    for _ in range(200):
        m = rng.randint(0, 40)
        p = Fraction(rng.randint(0, 100), 100)
        assert binmax(m, p) == binmax_oracle(m, p)
    # At p = j/(m+1) the mode formula sits on a boundary: for 0 < j <= m the
    # values j-1 and j tie, j = 0 is p = 0 and j = m+1 is p = 1.
    for m in range(41):
        for j in range(m + 2):
            p = Fraction(j, m + 1)
            assert binmax(m, p) == binmax_oracle(m, p), (m, p)


def test_binmax_frozen_values():
    assert binmax(5, Fraction(1, 3)) == Fraction(80, 243)
    assert binmax(2, Fraction(2, 3)) == Fraction(4, 9)
    assert binmax(3, Fraction(1, 2)) == Fraction(3, 8)
    assert binmax(4, Fraction(2, 5)) == Fraction(216, 625)
    assert binmax(0, Fraction(1, 3)) == 1
    assert binmax(7, Fraction(1)) == 1


def test_binmax_monotone_in_m():
    for p in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        values = [binmax(m, p) for m in range(30)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_binomial_integers_read_exactly():
    assert binomial_numerators("2", Fraction(1, 2)) == binomial_numerators(Fraction(2), Fraction(1, 2)) == [1, 2, 1]
    assert binmax("2", "1/2") == binmaxplus("2", "1/2") == Fraction(1, 2)
    assert poisson_tv_check("10", "1/10") == poisson_tv_check(10, Fraction(1, 10))
    for call in (
        lambda: binomial_numerators(2.0, Fraction(1, 2)),
        lambda: binmax(2.0, "1/2"),
        lambda: binmaxplus(Fraction(5, 2), "1/2"),
        lambda: poisson_tv_check(10.0, "1/10"),
    ):
        with pytest.raises(InputError):
            call()


def test_binomial_numerators_reads_p_exactly():
    # A string p used to raise AttributeError here, while binmax read it.
    assert binomial_numerators(2, "1/2") == binomial_numerators(2, Fraction(1, 2)) == [1, 2, 1]
    for p in (0.5, "3/2"):
        with pytest.raises(InputError):
            binomial_numerators(2, p)


def test_binmaxplus():
    p = Fraction(97, 250)
    assert binmaxplus(0, p) == 0
    assert binmaxplus(1, p) == p
    assert binmaxplus(2, p) == binmax(2, p) == 2 * p * (1 - p)
    # below the mode-1 threshold the positive max drops under the full max
    small = Fraction(1, 5)
    assert binmaxplus(2, small) == Fraction(8, 25) < binmax(2, small) == Fraction(16, 25)
    for m in range(1, 20):
        lo = Fraction(1, m + 1)
        assert binmaxplus(m, lo) == binmax(m, lo)


def test_exp_enclosure_brackets_mpmath():
    # Every lambda = n j / 50 of the poisson_tv grid and x = 0..199.  mpmath
    # works 80 digits past the integer part of e^x 2^EXP_BITS (< 10^(x + 49)).
    xs = {Fraction(n * j, 50) for n in range(1, 51) for j in range(1, 26)} | {Fraction(x) for x in range(200)}
    for x in sorted(xs):
        lo, hi = exp_enclosure(x)
        with mpmath.workdps(80 + math.ceil(x) + 49):
            scaled = mpmath.exp(mpmath.mpf(x.numerator) / x.denominator) * 2**EXP_BITS
            assert lo <= scaled <= hi, x
        assert (hi - lo) << 100 <= lo, x
    assert exp_enclosure(0) == (2**EXP_BITS, 2**EXP_BITS)
    with pytest.raises(InputError):
        exp_enclosure(Fraction(-1, 3))


def test_poisson_tv_bound_samples():
    for n, p in ((1, Fraction(1, 2)), (10, Fraction(1, 10)), (30, Fraction(2, 5))):
        tv, ok = poisson_tv_check(n, p)
        assert ok
        assert 0 <= tv <= float(p) + 1e-12


def test_poisson_tv_matches_per_term_oracle():
    # The whole grid of the poisson_tv lemma suite.
    for n in range(1, 51):
        for j in range(1, 26):
            p = Fraction(j, 50)
            tv, ok = poisson_tv_check(n, p)
            want_tv, want_ok = poisson_tv_check_per_term(n, p)
            assert ok == want_ok, (n, p)
            assert abs(tv - want_tv) <= 1e-15, (n, p)


def test_poisson_tv_verdict_survives_optimize_flag():
    # Enclosing e^(np + 10) in place of e^(np) makes every sample fail; the
    # count must not depend on whether asserts are compiled in.
    src = os.path.dirname(os.path.dirname(edgestat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import edgestat.dist as d, edgestat.verify as v\n"
        "real = d.exp_enclosure\n"
        "d.exp_enclosure = lambda x: real(x + 10)\n"
        "print(v.suite_poisson_tv(3, 4, 3))\n"
    )
    for flags in (["-O"], []):
        out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "9"


def test_slice_spec_validation():
    SliceSpec(5, 0)
    SliceSpec(5, 5)
    SliceSpec(0, 0)
    with pytest.raises(InputError):
        SliceSpec(5, 6)
    with pytest.raises(InputError):
        SliceSpec(-1, 0)
    with pytest.raises(InputError):
        SliceSpec(5, -1)
    for n, k in ((12, 4.0), (12.0, 4), (12, "9/2")):
        with pytest.raises(InputError):
            SliceSpec(n, k)
    assert SliceSpec("12", "4") == SliceSpec(12, 4)


def _slice_brute_force(f, n, k):
    table = {}
    for chosen in combinations(range(n), k):
        v = eval_direct(f, [1 if i in chosen else 0 for i in range(n)])
        table[v] = table.get(v, 0) + 1
    return {v: Fraction(c, math.comb(n, k)) for v, c in sorted(table.items())}


def test_slice_dist_matches_brute_force():
    rng = random.Random(204)
    for _ in range(30):
        f = random_poly(rng, max_vars=8)
        n = f.num_vars
        k = rng.randint(0, n)
        assert slice_value_dist(f, SliceSpec(n, k)).probs == _slice_brute_force(f, n, k)
    # One uniform quadratic coefficient gives each slot one (coefficient,
    # neighbour mask) pair; k = 0 and k = n leave a one-weight window.
    rng = random.Random(207)
    for _ in range(40):
        n = rng.randint(0, 8)
        c = rng.choice((1, 2, -3))
        quad = {pair: c for pair in combinations(range(n), 2) if rng.random() < 0.5}
        f = MultilinearPoly(n, rng.randint(-2, 2), {i: rng.randint(-2, 2) for i in range(n)}, quad)
        for k in sorted({0, n, rng.randint(0, n)}):
            assert slice_value_dist(f, SliceSpec(n, k)).probs == _slice_brute_force(f, n, k)


def test_slice_dist_narrow_statistic_equals_padded():
    rng = random.Random(208)
    for _ in range(30):
        f = random_poly(rng, max_vars=6)
        n = f.num_vars + rng.randint(1, 3)
        k = rng.randint(0, n)
        padded = MultilinearPoly(n, f.constant, dict(f.linear), dict(f.quadratic))
        assert slice_value_dist(f, SliceSpec(n, k)) == slice_value_dist(padded, SliceSpec(n, k))
        assert slice_value_dist(f, SliceSpec(n, k)).probs == _slice_brute_force(padded, n, k)
    # More ones than zeros: the window starts above weight 0 once k > n - s.
    rng = random.Random(209)
    for _ in range(20):
        f = random_poly(rng, max_vars=6)
        n = f.num_vars + rng.randint(1, 3)
        k = rng.randint(n // 2 + 1, n)
        padded = MultilinearPoly(n, f.constant, dict(f.linear), dict(f.quadratic))
        assert slice_value_dist(f, SliceSpec(n, k)).probs == _slice_brute_force(padded, n, k)
    with pytest.raises(InputError):
        slice_value_dist(parse_poly("x1*x5"), SliceSpec(3, 2))


def test_slice_dist_permutation_invariant():
    rng = random.Random(205)
    for _ in range(20):
        f = random_poly(rng, max_vars=7)
        n = f.num_vars
        k = rng.randint(0, n)
        perm = list(range(n))
        rng.shuffle(perm)
        g = permute_variables(f, perm)
        assert slice_value_dist(f, SliceSpec(n, k)) == slice_value_dist(g, SliceSpec(n, k))


def test_slice_subset_cap():
    # 30 read slots of 40 hold 10 to 20 ones: the sum of C(30, w) over that
    # window, about 1.0 * 10**9 assignments, exceeds the fixed cap of 2**24.
    f = MultilinearPoly(30, 0, {0: 1}, {})
    with pytest.raises(ResourceLimitError):
        slice_value_dist(f, SliceSpec(40, 20))


def test_product_slice_tv_bound():
    rng = random.Random(206)
    for _ in range(40):
        n = rng.randint(2, 12)
        k = rng.randint(1, n // 2)
        s = rng.randint(1, min(n, 5))
        f = random_poly(rng, max_vars=s) if s > 1 else MultilinearPoly(1, 0, {0: 1}, {})
        f = MultilinearPoly(s, f.constant, dict(f.linear), dict(f.quadratic))
        tv, bound, ok = product_slice_tv(f, SliceSpec(n, k))
        assert ok and tv <= bound
        assert bound == max(Fraction(f.num_vars, n), Fraction(3, k))


def test_product_slice_tv_preconditions():
    f = parse_poly("x1+x2")
    with pytest.raises(InputError):
        product_slice_tv(f, SliceSpec(5, 3))  # 2k > n
    with pytest.raises(InputError):
        product_slice_tv(f, SliceSpec(5, 0))  # k < 1
    with pytest.raises(InputError):
        product_slice_tv(parse_poly("x1+x6"), SliceSpec(5, 2))  # s > n
