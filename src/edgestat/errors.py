"""Shared exception types and the readers of exact numeric input.

Two failure modes are distinguished everywhere in the package: bad input
(caller error, maps to CLI exit code 2) and a blown resource cap (the
computation would be exact but too large; also exit code 2, with the exact
size that tripped the guard in the message).  The readers of exact
numbers live here too, below every other module: they turn a float or a
non-integral value into an :class:`InputError`, not a silent truncation.
"""

from __future__ import annotations

from fractions import Fraction


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when an exact enumeration would exceed one of the package's fixed caps."""


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and exact decimal/ratio strings to Fraction."""
    if isinstance(value, float):
        raise InputError("floats are not accepted where exact rationals are required")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot interpret {value!r} as a rational") from exc


def as_integer(value) -> int:
    """Coerce an integral int, Fraction or exact string to int."""
    if type(value) is int:  # the common case builds no Fraction
        return value
    x = as_rational(value)
    if x.denominator != 1:
        raise InputError(f"{value!r} is not an integer")
    return x.numerator


def as_probability(value) -> Fraction:
    p = as_rational(value)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0, 1]")
    return p
