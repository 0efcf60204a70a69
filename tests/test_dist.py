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
    SliceSpec,
    ValueDist,
    as_probability,
    as_rational,
    bernoulli_value_dist,
    binmax,
    binmaxplus,
    format_rational,
    parse_rational,
    point_probability,
    poisson_pmf,
    poisson_tv_check,
    product_slice_tv,
    slice_value_dist,
    tv_distance,
)
from edgestat.errors import InputError, ResourceLimitError
from edgestat.poly import MultilinearPoly, parse_poly, permute_variables
from helpers import bernoulli_value_dist_conditioning, binmax_oracle, eval_direct, random_poly


def test_rational_parsing_is_exact():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("0.125") == Fraction(1, 8)
    assert parse_rational("2") == 2
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(2)) == "2/1"
    with pytest.raises(InputError):
        as_rational(0.5)  # floats are ambiguous; spell the rational out
    with pytest.raises(InputError):
        as_probability(Fraction(5, 4))


def test_value_dist_validation():
    d = ValueDist({3: Fraction(1, 4), 0: Fraction(3, 4), 7: Fraction(0)})
    assert d.support() == [0, 3]
    assert d.prob(7) == 0 and d.prob(3) == Fraction(1, 4)
    assert d.max_point_mass() == Fraction(3, 4)
    with pytest.raises(InputError):
        ValueDist({0: Fraction(1, 2)})
    with pytest.raises(InputError):
        ValueDist({0: Fraction(-1, 2), 1: Fraction(3, 2)})
    assert ValueDist.from_json(d.to_json()) == d


def test_tv_distance():
    d1 = ValueDist({0: Fraction(1, 2), 1: Fraction(1, 2)})
    d2 = ValueDist({1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert tv_distance(d1, d2) == Fraction(1, 2)
    assert tv_distance(d1, d1) == 0


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
        assert bernoulli_value_dist(f, p) == bernoulli_value_dist_conditioning(f, p)


def test_point_probability_consistent_with_dist():
    f = parse_poly("x2+x3+x4+x5+x1*x2+x1*x3+x1*x4+x1*x5")
    p = Fraction(1, 3)
    dist = bernoulli_value_dist(f, p)
    assert point_probability(f, p, 2) == dist.prob(2) == Fraction(80, 243)
    assert point_probability(f, p, 5) == 0


def test_assignment_cap():
    f = MultilinearPoly(26, 0, {i: 1 for i in range(26)}, {})
    with pytest.raises(ResourceLimitError):
        bernoulli_value_dist(f, Fraction(1, 2), cap=2**20)


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


def test_poisson_pmf_matches_mpmath():
    with mpmath.workdps(50):
        for lam, m in ((Fraction(1, 2), 0), (Fraction(3, 2), 2), (Fraction(5), 7)):
            want = float(
                mpmath.e ** (-mpmath.mpf(lam.numerator) / lam.denominator)
                * (mpmath.mpf(lam.numerator) / lam.denominator) ** m
                / mpmath.factorial(m)
            )
            assert abs(poisson_pmf(lam, m) - want) < 1e-15


def test_poisson_tv_bound_samples():
    for n, p in ((1, Fraction(1, 2)), (10, Fraction(1, 10)), (30, Fraction(2, 5))):
        tv, ok = poisson_tv_check(n, p)
        assert ok
        assert 0 <= tv <= float(p) + 1e-12


def test_poisson_tv_verdict_survives_optimize_flag():
    # An impossible slack makes every sample fail; the count must not depend
    # on whether asserts are compiled in.
    src = os.path.dirname(os.path.dirname(edgestat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import edgestat.dist as d, edgestat.verify as v\n"
        "d.TRANSCENDENTAL_SLACK = -10\n"
        "print(v.suite_poisson_tv(3, 3, 3))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
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


def test_slice_dist_matches_brute_force():
    rng = random.Random(204)
    for _ in range(30):
        f = random_poly(rng, max_vars=8)
        n = f.num_vars
        k = rng.randint(0, n)
        dist = slice_value_dist(f, SliceSpec(n, k))
        table = {}
        for chosen in combinations(range(n), k):
            assignment = tuple(1 if i in chosen else 0 for i in range(n))
            v = eval_direct(f, assignment)
            table[v] = table.get(v, 0) + 1
        total = math.comb(n, k)
        assert dist.probs == {
            v: Fraction(c, total) for v, c in sorted(table.items())
        }


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
    f = MultilinearPoly(30, 0, {0: 1}, {})
    with pytest.raises(ResourceLimitError):
        slice_value_dist(f, SliceSpec(30, 15), cap=10**4)


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
