"""Exact value distributions and binomial/Poisson helpers.

Probabilities are `fractions.Fraction` throughout (`Rational` below is an
alias).  The only floating point in this module sits inside the Poisson
comparison, where the transcendental `e**lambda` is evaluated with mpmath at
50 decimal digits and compared with a one-sided 1e-12 slack.

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
from typing import Iterable, Mapping

import mpmath

from .errors import InputError, ResourceLimitError
from .poly import DEFAULT_ASSIGNMENT_CAP, MultilinearPoly, value_weight_counts

Rational = Fraction

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
        cleaned: dict[int, Fraction] = {}
        for v, pr in self.probs.items():
            pr = Fraction(pr)
            if pr < 0:
                raise InputError(f"negative probability at value {v}")
            if pr:
                cleaned[int(v)] = pr
        if sum(cleaned.values(), Fraction(0)) != 1:
            raise InputError("probabilities must sum to exactly 1")
        self.probs = dict(sorted(cleaned.items()))

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


def tv_distance(d1: ValueDist, d2: ValueDist) -> Fraction:
    values = set(d1.probs) | set(d2.probs)
    return sum((abs(d1.prob(v) - d2.prob(v)) for v in values), Fraction(0)) / 2


# ---------------------------------------------------------------------------
# Product (independent Bernoulli) model
# ---------------------------------------------------------------------------


def _power_tables(p: Fraction, n: int) -> tuple[list[Fraction], list[Fraction]]:
    q = 1 - p
    p_pows = [Fraction(1)]
    q_pows = [Fraction(1)]
    for _ in range(n):
        p_pows.append(p_pows[-1] * p)
        q_pows.append(q_pows[-1] * q)
    return p_pows, q_pows


def bernoulli_value_dist(
    f: MultilinearPoly, p, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> ValueDist:
    """Exact law of ``f`` when every variable is an independent Bernoulli(p)."""
    p = as_probability(p)
    counts = value_weight_counts(f, cap)
    p_pows, q_pows = _power_tables(p, f.num_vars)
    probs: dict[int, Fraction] = {}
    for value, per_weight in counts.items():
        total = Fraction(0)
        for weight, count in per_weight.items():
            total += count * p_pows[weight] * q_pows[f.num_vars - weight]
        probs[value] = total
    return ValueDist(probs)


def point_probability(
    f: MultilinearPoly, p, ell: int, cap: int = DEFAULT_ASSIGNMENT_CAP
) -> Fraction:
    """P[f = ell] under the product model; 0 when ell is not achievable."""
    return bernoulli_value_dist(f, p, cap).prob(ell)


# ---------------------------------------------------------------------------
# Binomial point-mass maxima
# ---------------------------------------------------------------------------


def _binomial_pmf(m: int, p: Fraction, k: int) -> Fraction:
    return math.comb(m, k) * p**k * (1 - p) ** (m - k)


def binmax(m: int, p) -> Fraction:
    """Largest point mass of Binomial(m, p), attained at the mode floor((m+1)p)."""
    if m < 0:
        raise InputError("m must be >= 0")
    p = as_probability(p)
    return _binomial_pmf(m, p, min(math.floor((m + 1) * p), m))


def binmaxplus(m: int, p) -> Fraction:
    """Largest point mass of Binomial(m, p) over the strictly positive values."""
    if m < 0:
        raise InputError("m must be >= 0")
    p = as_probability(p)
    return max((_binomial_pmf(m, p, k) for k in range(1, m + 1)), default=Fraction(0))


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
    it meets the bound ``tv <= p`` with the one-sided 1e-12 slack.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    p = as_probability(p)
    lam = p * n
    with mpmath.workdps(50):
        lamf = mpmath.mpf(lam.numerator) / lam.denominator
        acc = mpmath.mpf(0)
        poi_partial = mpmath.mpf(0)
        for m in range(n + 1):
            binom = _binomial_pmf(n, p, m)
            poi = mpmath.exp(-lamf) * lamf**m / mpmath.factorial(m)
            poi_partial += poi
            acc += abs(mpmath.mpf(binom.numerator) / binom.denominator - poi)
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
    """Exact law of ``f`` on the indicator vector of a uniform k-subset."""
    if f.num_vars != spec.n:
        raise InputError(f"polynomial has {f.num_vars} variables, slice needs {spec.n}")
    total = math.comb(spec.n, spec.k)
    if total > cap:
        raise ResourceLimitError(
            f"slice enumeration needs {total} subsets, cap is {cap}",
            needed=total,
            cap=cap,
        )
    lin = [f.linear.get(i, 0) for i in range(f.num_vars)]
    quad_coeffs = set(f.quadratic.values())
    counts: dict[int, int] = {}
    if len(quad_coeffs) <= 1:
        # Uniform quadratic coefficient: count co-selected neighbours by popcount.
        c0 = quad_coeffs.pop() if quad_coeffs else 0
        adj = [0] * f.num_vars
        for a, b in f.quadratic:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        for combo in combinations(range(spec.n), spec.k):
            mask = 0
            value = f.constant
            for i in combo:
                value += lin[i] + c0 * (adj[i] & mask).bit_count()
                mask |= 1 << i
            counts[value] = counts.get(value, 0) + 1
    else:
        below: list[list[tuple[int, int]]] = [[] for _ in range(f.num_vars)]
        for (a, b), c in f.quadratic.items():
            below[b].append((a, c))
        for combo in combinations(range(spec.n), spec.k):
            mask = 0
            value = f.constant
            for i in combo:
                value += lin[i]
                for j, c in below[i]:
                    if mask >> j & 1:
                        value += c
                mask |= 1 << i
            counts[value] = counts.get(value, 0) + 1
    return ValueDist({v: Fraction(c, total) for v, c in counts.items()})


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
    if s > spec.n:
        raise InputError(f"statistic uses {s} coordinates but the ground set has {spec.n}")
    embedded = MultilinearPoly(spec.n, f.constant, dict(f.linear), dict(f.quadratic))
    slice_law = slice_value_dist(embedded, spec, cap)
    product_law = bernoulli_value_dist(f, Fraction(spec.k, spec.n))
    tv = tv_distance(slice_law, product_law)
    bound = max(Fraction(s, spec.n), Fraction(3, spec.k))
    return tv, bound, tv <= bound
