"""Shared exception types and the readers of exact numeric input.

Two failure modes are distinguished everywhere in the package: bad input
(caller error, maps to CLI exit code 2) and a blown resource cap (the
computation would be exact but too large; also exit code 2, with the exact
size that tripped the guard in the message).  The readers of exact
numbers live here too, below every other module: they turn a float, a bool
or a non-integral value into an :class:`InputError`, not a silent truncation.
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
    if isinstance(value, bool):  # the mirror of as_flag: a flag is not a number
        raise InputError(f"{value!r} is a boolean, not a number")
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


def as_collection(value, what: str):
    """An iterator over the items of a collection; a string, which would
    iterate into characters, and a non-iterable are rejected."""
    if isinstance(value, (str, bytes)):
        raise InputError(f"{value!r} is text, not {what}")
    try:
        return iter(value)
    except TypeError as exc:
        raise InputError(f"{value!r} is not {what}") from exc


def as_integers(value) -> list[int]:
    """Read a collection of integers, each by :func:`as_integer`."""
    return [as_integer(v) for v in as_collection(value, "a collection of integers")]


def as_probability(value) -> Fraction:
    p = as_rational(value)
    if not 0 <= p <= 1:
        raise InputError(f"probability {p} outside [0, 1]")
    return p


def as_pair(value, n: int) -> tuple[int, int]:
    """Read an index pair: two distinct integers in 0..n-1, smaller first."""
    try:
        a, b = () if isinstance(value, str) else value  # a string would unpack into characters
    except (TypeError, ValueError) as exc:
        raise InputError(f"{value!r} is not a pair of indices") from exc
    a, b = as_integer(a), as_integer(b)
    if a == b:  # the pair is not quoted: a caller may count from 1
        raise InputError("a pair needs two distinct indices")
    if not (0 <= a < n and 0 <= b < n):
        raise InputError(f"pair {value!r} outside 0..{n - 1}")
    return (a, b) if a < b else (b, a)


def as_flag(value) -> bool:
    """Read a boolean flag: only True or False, not a string or a number."""
    if not isinstance(value, bool):
        raise InputError(f"{value!r} is not a boolean flag")
    return value
