"""Shared exception types.

Two failure modes are distinguished everywhere in the package: bad input
(caller error, maps to CLI exit code 2) and a blown resource cap (the
computation would be exact but too large; also exit code 2, with the exact
size that tripped the guard in the message).
"""

from __future__ import annotations


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when an exact enumeration would exceed one of the package's fixed caps."""
