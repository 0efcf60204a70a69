"""Exact value distributions and binomial/Poisson helpers.

A law is ``ValueDist(numerators, denominator)``: integer masses over one
integer denominator, whose Fractions appear only through its ``prob`` and
``probs``.  With p = a/b, a product-model mass is an integer numerator
sum_w c_w a^w (b-a)^(n-w) over b^n, and a k-slice mass of s read slots is
sum_w c_w (k)_w (n-k)_(s-w) over the falling factorial (n)_s: both weigh one
table c_w of :func:`edgestat.poly.value_weight_counts`.
The one transcendental, e**x at a rational x >= 0, is enclosed between two
integers over 2**EXP_BITS by :func:`exp_enclosure`; the Poisson comparison
decides on the outer end of that enclosure, so no verdict rests on a float.

Two sampling models are covered:

* the product model: each variable is an independent Bernoulli(p) bit; and
* the uniform slice: a uniformly random k-subset of n slots, encoded by its
  indicator bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import InputError, as_integer, as_probability, as_rational
from .poly import MultilinearPoly, value_weight_counts

#: Fixed-point bits of :func:`exp_enclosure`.
EXP_BITS = 160


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass
class ValueDist:
    """Finite exact law on integers: ``value -> numerators[value] / denominator``.

    The one law check: the numerators and the denominator are ints, and the
    numerators are non-negative and sum to the denominator.
    Zero masses are dropped and the law is reduced by the gcd, so equal laws
    compare equal.
    """

    numerators: dict[int, int]
    denominator: int

    def __post_init__(self) -> None:
        if not all(isinstance(c, int) for c in (self.denominator, *self.numerators.values())):
            raise InputError("numerators and denominator must be integers")
        for v, c in self.numerators.items():
            if c < 0:
                raise InputError(f"negative probability at value {v}")
        if self.denominator < 1 or sum(self.numerators.values()) != self.denominator:
            raise InputError("probabilities must sum to exactly 1")
        g = math.gcd(self.denominator, *self.numerators.values())
        self.numerators = {v: c // g for v, c in sorted(self.numerators.items()) if c}
        self.denominator //= g

    @property
    def probs(self) -> dict[int, Fraction]:
        return {v: Fraction(c, self.denominator) for v, c in self.numerators.items()}

    def support(self) -> list[int]:
        return list(self.numerators)

    def prob(self, value: int) -> Fraction:
        return Fraction(self.numerators.get(value, 0), self.denominator)

    def to_json(self) -> dict:
        return {"support": [[v, format_rational(self.prob(v))] for v in self.numerators]}


def tv_distance(d1: ValueDist, d2: ValueDist) -> Fraction:
    """Half the sum of |d1 - d2|, on numerators cross-multiplied to d1.den * d2.den."""
    a, b = d1.denominator, d2.denominator
    n1, n2 = d1.numerators, d2.numerators
    return Fraction(sum(abs(n1.get(v, 0) * b - n2.get(v, 0) * a) for v in n1.keys() | n2.keys()), 2 * a * b)


# ---------------------------------------------------------------------------
# Product (independent Bernoulli) model
# ---------------------------------------------------------------------------


def weight_scale(p: Fraction, n: int) -> list[int]:
    """``[a^w (b-a)^(n-w) for w = 0..n]`` with p = a/b: the probability of one
    assignment of weight w out of n Bernoulli(p) bits, times b^n."""
    a, c = p.numerator, p.denominator - p.numerator
    return [a**w * c ** (n - w) for w in range(n + 1)]


def _weigh(counts: dict[int, dict[int, int]], scale: Mapping[int, int] | list[int]) -> dict[int, int]:
    """``value -> sum_w count_w scale[w]`` over a value/weight table."""
    return {value: sum(c * scale[w] for w, c in per_weight.items()) for value, per_weight in counts.items()}


def bernoulli_value_dist(f: MultilinearPoly, p) -> ValueDist:
    """Exact law of ``f`` when every variable is an independent Bernoulli(p):
    numerators over b^num_vars with p = a/b."""
    p = as_probability(p)
    counts = value_weight_counts(f)  # checks the assignment cap before any work
    return ValueDist(_weigh(counts, weight_scale(p, f.num_vars)), p.denominator**f.num_vars)


def point_probability(f: MultilinearPoly, p, ell: int) -> Fraction:
    """P[f = ell] under the product model; 0 when ell is not achievable."""
    return bernoulli_value_dist(f, p).prob(as_integer(ell))


# ---------------------------------------------------------------------------
# Binomial point-mass maxima
# ---------------------------------------------------------------------------


def binomial_numerators(m: int, p) -> list[int]:
    """P[Binomial(m, p) = k] times b^m for k = 0..m, with p = a/b."""
    m, p = as_integer(m), as_probability(p)
    if m < 0:
        raise InputError("m must be >= 0")
    return [math.comb(m, k) * s for k, s in enumerate(weight_scale(p, m))]


def binmax(m: int, p) -> Fraction:
    """Largest point mass of Binomial(m, p)."""
    m, p = as_integer(m), as_probability(p)
    return Fraction(max(binomial_numerators(m, p)), p.denominator**m)


def binmaxplus(m: int, p) -> Fraction:
    """Largest point mass of Binomial(m, p) over the strictly positive values."""
    m, p = as_integer(m), as_probability(p)
    return Fraction(max(binomial_numerators(m, p)[1:], default=0), p.denominator**m)


# ---------------------------------------------------------------------------
# Poisson comparison
# ---------------------------------------------------------------------------


def exp_enclosure(x) -> tuple[int, int]:
    """Integers lo <= e**x * 2**EXP_BITS <= hi for a rational x >= 0: Taylor
    terms x^j / j! summed in fixed point, rounded down for lo and up for hi.
    Once x/(j+1) <= 1/2 later terms at most halve, so the tail is <= term j."""
    x = as_rational(x)
    if x < 0:
        raise InputError("x must be >= 0")
    a, b = x.numerator, x.denominator
    lo = hi = term_lo = term_hi = 1 << EXP_BITS
    j = 0
    while term_lo or 2 * a > b * (j + 1):
        j += 1
        term_lo = term_lo * a // (b * j)
        term_hi = -(-term_hi * a // (b * j))
        lo += term_lo
        hi += term_hi
    return lo, hi + term_hi


def poisson_peak_lower(a: int) -> Fraction:
    """a^a / (e^a a!), the Poisson(a) point mass at a, from below: the upper
    end of e^a's enclosure in the denominator."""
    return Fraction(a**a << EXP_BITS, exp_enclosure(a)[1] * math.factorial(a))


def poisson_tv_check(n: int, p) -> tuple[float, bool]:
    """An upper bound on d_TV(Binomial(n, p), Poisson(np)), rounded to float,
    and whether it meets ``tv <= p``.  Masses are integers over
    D = b^n 2^EXP_BITS; the Poisson ones are enclosures stepped by np/(m + 1)
    and rounded outward, and each |binomial - Poisson| takes the farther end.
    """
    n, p = as_integer(n), as_probability(p)
    if n < 1:
        raise InputError("n must be >= 1")
    lam = p * n
    denominator = p.denominator**n << EXP_BITS
    e_lo, e_hi = exp_enclosure(lam)
    poi_lo = (denominator << EXP_BITS) // e_hi
    poi_hi = -(-(denominator << EXP_BITS) // e_lo)
    twice_tv = denominator  # the Poisson tail beyond n is at most D minus the lower partial sum
    for m, numerator in enumerate(binomial_numerators(n, p), 1):
        binom = numerator << EXP_BITS
        twice_tv += max(binom - poi_lo, poi_hi - binom) - poi_lo
        poi_lo = poi_lo * lam.numerator // (lam.denominator * m)
        poi_hi = -(-poi_hi * lam.numerator // (lam.denominator * m))
    return float(Fraction(twice_tv, 2 * denominator)), twice_tv * p.denominator <= 2 * p.numerator * denominator


# ---------------------------------------------------------------------------
# Uniform slice model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceSpec:
    """Uniformly random k-subset of n slots; n and k are read by :func:`as_integer`."""

    n: int
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", as_integer(self.n))
        object.__setattr__(self, "k", as_integer(self.k))
        if self.n < 0 or not 0 <= self.k <= self.n:
            raise InputError(f"need 0 <= k <= n, got n={self.n} k={self.k}")


def slice_value_dist(f: MultilinearPoly, spec: SliceSpec) -> ValueDist:
    """Exact law of ``f`` on the indicator vector of a uniform k-subset.

    ``f`` reads the first s = ``f.num_vars`` of the n slots.  One assignment
    of weight w to them has probability (k)_w (n-k)_(s-w) / (n)_s, with the
    falling factorial (x)_j = ``math.perm(x, j)``; cancelling (n-k)_(s-t) =
    (n-t)_(s-t) for t = min(k, s) keeps every factorial at most t long.
    """
    n, k, s = spec.n, spec.k, f.num_vars
    if s > n:
        raise InputError(f"polynomial uses {s} variables but the slice has n={n}")
    t = min(k, s)
    window = range(max(0, k - (n - s)), t + 1)  # the weights some k-subset gives
    counts = value_weight_counts(f, window)  # checks the assignment cap before any work
    scale = {w: math.perm(k, w) * math.perm(n - k - s + t, t - w) for w in window}
    return ValueDist(_weigh(counts, scale), math.perm(n, t))


def product_slice_tv(f: MultilinearPoly, spec: SliceSpec) -> tuple[Fraction, Fraction, bool]:
    """Compare the slice law with the Bernoulli(k/n) law of the same statistic.

    ``f`` is read as a statistic depending on its own ``num_vars`` leading
    coordinates of an n-slot ground set.  Returns ``(tv, bound, ok)`` where
    ``bound = max(s/n, 3/k)`` and both laws are exact.
    """
    s = f.num_vars
    if spec.k < 1:
        raise InputError("k must be >= 1")
    if 2 * spec.k > spec.n:
        raise InputError(f"need k <= n/2, got n={spec.n} k={spec.k}")
    slice_law = slice_value_dist(f, spec)
    product_law = bernoulli_value_dist(f, Fraction(spec.k, spec.n))
    tv = tv_distance(slice_law, product_law)
    bound = max(Fraction(s, spec.n), Fraction(3, spec.k))
    return tv, bound, tv <= bound
