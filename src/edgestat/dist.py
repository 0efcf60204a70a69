"""Exact value distributions and binomial/Poisson helpers.

Probabilities are `fractions.Fraction` at the API boundary and integers
inside.  With p = a/b, a product-model mass is an integer numerator
sum_w c_w a^w (b-a)^(n-w) over b^n, and a k-slice mass is a subset count over
C(n, k); :meth:`ValueDist.from_numerators` checks such numerators on ints.
The only floating point sits inside the Poisson comparison, where
`e**lambda` is evaluated with mpmath at 50 decimal digits and compared with
a one-sided 1e-12 slack.

Two sampling models are covered:

* the product model: each variable is an independent Bernoulli(p) bit; and
* the uniform slice: a uniformly random k-subset of n slots, encoded by its
  indicator bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping

import mpmath

from .errors import InputError, ResourceLimitError
from .poly import DEFAULT_ASSIGNMENT_CAP, MultilinearPoly, value_weight_counts

#: Hard ceiling on C(n, k) for slice enumeration.
DEFAULT_SUBSET_CAP = 10**7

#: One-sided slack applied when an exact rational meets a 50-digit float.
TRANSCENDENTAL_SLACK = 1e-12


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and exact decimal/ratio strings to Fraction."""
    if isinstance(value, float):
        raise InputError("floats are not accepted where exact rationals are required")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot interpret {value!r} as a rational") from exc


def as_probability(value) -> Fraction:
    p = as_rational(value)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0, 1]")
    return p


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    return as_rational(text)


@dataclass
class ValueDist:
    """Finite exact distribution on integers."""

    probs: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        probs = {int(v): Fraction(pr) for v, pr in self.probs.items()}
        den = math.lcm(*(pr.denominator for pr in probs.values()))
        _check_numerators({v: pr.numerator * (den // pr.denominator) for v, pr in probs.items()}, den)
        self.probs = {v: pr for v, pr in sorted(probs.items()) if pr}

    @classmethod
    def from_numerators(cls, numerators: Mapping[int, int], denominator: int) -> "ValueDist":
        """The law ``value -> numerator / denominator``, checked on ints
        instead of by summing Fractions as the constructor does."""
        _check_numerators(numerators, denominator)
        law = cls.__new__(cls)
        law.probs = {v: Fraction(c, denominator) for v, c in sorted(numerators.items()) if c}
        return law

    def support(self) -> list[int]:
        return list(self.probs)

    def prob(self, value: int) -> Fraction:
        return self.probs.get(value, Fraction(0))

    def max_point_mass(self) -> Fraction:
        return max(self.probs.values())

    def to_json(self) -> dict:
        return {"support": [[v, format_rational(pr)] for v, pr in self.probs.items()]}

    @classmethod
    def from_json(cls, data: Mapping) -> "ValueDist":
        try:
            probs = {int(v): parse_rational(pr) for v, pr in data["support"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed distribution JSON: {exc}") from exc
        return cls(probs)


def _check_numerators(numerators: Mapping[int, int], denominator: int) -> None:
    for v, c in numerators.items():
        if c < 0:
            raise InputError(f"negative probability at value {v}")
    if sum(numerators.values()) != denominator:
        raise InputError("probabilities must sum to exactly 1")


def tv_distance(d1: ValueDist, d2: ValueDist) -> Fraction:
    values = set(d1.probs) | set(d2.probs)
    return sum((abs(d1.prob(v) - d2.prob(v)) for v in values), Fraction(0)) / 2


# ---------------------------------------------------------------------------
# Product (independent Bernoulli) model
# ---------------------------------------------------------------------------


def weight_scale(p: Fraction, n: int) -> list[int]:
    """``[a^w (b-a)^(n-w) for w = 0..n]`` with p = a/b: the probability of one
    assignment of weight w out of n Bernoulli(p) bits, times b^n."""
    a, c = p.numerator, p.denominator - p.numerator
    return [a**w * c ** (n - w) for w in range(n + 1)]


def _product_numerators(f: MultilinearPoly, p: Fraction, cap: int) -> tuple[dict[int, int], int]:
    """Numerators of the product-model law of ``f`` over b^num_vars."""
    scale = weight_scale(p, f.num_vars)
    numerators = {
        value: sum(count * scale[w] for w, count in per_weight.items())
        for value, per_weight in value_weight_counts(f, cap).items()
    }
    return numerators, p.denominator**f.num_vars


def bernoulli_value_dist(
    f: MultilinearPoly, p, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> ValueDist:
    """Exact law of ``f`` when every variable is an independent Bernoulli(p)."""
    return ValueDist.from_numerators(*_product_numerators(f, as_probability(p), cap))


def point_probability(
    f: MultilinearPoly, p, ell: int, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> Fraction:
    """P[f = ell] under the product model; 0 when ell is not achievable."""
    numerators, denominator = _product_numerators(f, as_probability(p), cap)
    _check_numerators(numerators, denominator)
    return Fraction(numerators.get(ell, 0), denominator)


# ---------------------------------------------------------------------------
# Binomial point-mass maxima
# ---------------------------------------------------------------------------


def binomial_numerators(m: int, p: Fraction) -> list[int]:
    """P[Binomial(m, p) = k] times b^m for k = 0..m, with p = a/b."""
    if m < 0:
        raise InputError("m must be >= 0")
    return [math.comb(m, k) * s for k, s in enumerate(weight_scale(p, m))]


def binmax(m: int, p) -> Fraction:
    """Largest point mass of Binomial(m, p), attained at the mode floor((m+1)p)."""
    p = as_probability(p)
    mode = min(math.floor((m + 1) * p), m)
    return Fraction(binomial_numerators(m, p)[mode], p.denominator**m)


def binmaxplus(m: int, p) -> Fraction:
    """Largest point mass of Binomial(m, p) over the strictly positive values."""
    p = as_probability(p)
    return Fraction(max(binomial_numerators(m, p)[1:], default=0), p.denominator**m)


# ---------------------------------------------------------------------------
# Poisson comparison
# ---------------------------------------------------------------------------


def poisson_pmf(lam, m: int) -> float:
    """P[Poisson(lam) = m], evaluated at 50 decimal digits and rounded to float."""
    if m < 0:
        raise InputError("m must be >= 0")
    with mpmath.workdps(50):
        lamf = mpmath.mpf(lam.numerator) / lam.denominator if isinstance(lam, Fraction) else mpmath.mpf(lam)
        if lamf < 0:
            raise InputError("lambda must be >= 0")
        return float(mpmath.exp(-lamf) * lamf**m / mpmath.factorial(m))


def poisson_tv_check(n: int, p) -> tuple[float, bool]:
    """Total-variation distance between Binomial(n, p) and Poisson(np).

    Returns the distance (50-digit evaluation, rounded to float) and whether
    it meets the bound ``tv <= p`` with the one-sided 1e-12 slack.  The
    binomial masses are integer numerators over b^n; the Poisson masses
    start at exp(-np) and step by poi(m + 1) = poi(m) * np / (m + 1).
    """
    if n < 1:
        raise InputError("n must be >= 1")
    p = as_probability(p)
    lam = p * n
    with mpmath.workdps(50):
        lamf = mpmath.mpf(lam.numerator) / lam.denominator
        denominator = mpmath.mpf(p.denominator**n)
        poi = mpmath.exp(-lamf)
        acc = mpmath.mpf(0)
        poi_partial = mpmath.mpf(0)
        for m, numerator in enumerate(binomial_numerators(n, p)):
            poi_partial += poi
            acc += abs(numerator / denominator - poi)
            poi = poi * lamf / (m + 1)
        acc += 1 - poi_partial  # Poisson tail mass beyond n
        tv = float(acc / 2)
    return tv, tv <= float(p) + TRANSCENDENTAL_SLACK


# ---------------------------------------------------------------------------
# Uniform slice model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SliceSpec:
    """Uniformly random k-subset of n slots."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 0 or not 0 <= self.k <= self.n:
            raise InputError(f"need 0 <= k <= n, got n={self.n} k={self.k}")


def slice_value_dist(
    f: MultilinearPoly, spec: SliceSpec, cap: int = DEFAULT_SUBSET_CAP
) -> ValueDist:
    """Exact law of ``f`` on the indicator vector of a uniform k-subset.

    ``f`` reads the first ``f.num_vars`` of the n slots, so it may be
    narrower than the slice.  Each slot keeps one (coefficient, mask of lower
    neighbours) pair per distinct quadratic coefficient, and the value of the
    first k-1 chosen slots is shared by every choice of the last one.
    """
    n, k = spec.n, spec.k
    if f.num_vars > n:
        raise InputError(f"polynomial uses {f.num_vars} variables but the slice has n={n}")
    total = math.comb(n, k)
    if total > cap:
        raise ResourceLimitError(
            f"slice enumeration needs {total} subsets, cap is {cap}",
            needed=total,
            cap=cap,
        )
    if k == 0:
        return ValueDist.from_numerators({f.constant: 1}, 1)
    below: list[dict[int, int]] = [{} for _ in range(n)]
    for (a, b), c in f.quadratic.items():
        below[b][c] = below[b].get(c, 0) | 1 << a
    slots = [(f.linear.get(i, 0), tuple(below[i].items())) for i in range(n)]
    counts: dict[int, int] = {}
    for head in combinations(range(n), k - 1):
        mask = 0
        value = f.constant
        for i in head:
            lin, pairs = slots[i]
            value += lin
            for c, nbrs in pairs:
                value += c * (nbrs & mask).bit_count()
            mask |= 1 << i
        for lin, pairs in slots[head[-1] + 1 if head else 0:]:
            v = value + lin
            for c, nbrs in pairs:
                v += c * (nbrs & mask).bit_count()
            counts[v] = counts.get(v, 0) + 1
    return ValueDist.from_numerators(counts, total)


def product_slice_tv(f: MultilinearPoly, spec: SliceSpec,
                     cap: int = DEFAULT_SUBSET_CAP) -> tuple[Fraction, Fraction, bool]:
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
    slice_law = slice_value_dist(f, spec, cap)
    product_law = bernoulli_value_dist(f, Fraction(spec.k, spec.n))
    tv = tv_distance(slice_law, product_law)
    bound = max(Fraction(s, spec.n), Fraction(3, spec.k))
    return tv, bound, tv <= bound
