"""Self-checking verification reports.

A report is a list of individually re-checkable comparisons plus the exact
values they were made from.  Serialized reports carry rationals as
``"num/den"`` strings, so a loaded report can be re-verified without any
recomputation: parse each check's sides, re-apply its operator, and compare
with the stored verdicts.  ``wall_time`` is informational and excluded from
determinism comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .dist import format_rational
from .errors import InputError, as_rational

#: check operators: exact rational comparisons and string equality.
_OPS = ("<", "<=", "==", "==s")


@dataclass
class CheckRecord:
    name: str
    lhs: str
    op: str
    rhs: str
    ok: bool

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "op": self.op, "rhs": self.rhs, "ok": self.ok}


def _apply_op(lhs: str, op: str, rhs: str) -> bool:
    if op == "==s":
        return lhs == rhs
    a, b = as_rational(lhs), as_rational(rhs)
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == "==":
        return a == b
    raise InputError(f"unknown check operator {op!r}")


def check(name: str, lhs, op: str, rhs) -> CheckRecord:
    """Build a check record, rendering rational sides as ``num/den``."""
    if op not in _OPS:
        raise InputError(f"unknown check operator {op!r}")
    if op == "==s":
        lhs_s, rhs_s = str(lhs), str(rhs)
    else:
        lhs_s, rhs_s = format_rational(as_rational(lhs)), format_rational(as_rational(rhs))
    return CheckRecord(name, lhs_s, op, rhs_s, _apply_op(lhs_s, op, rhs_s))


@dataclass
class VerificationReport:
    """A certificate's checks and exact values.  ``wall_time`` is set by the
    runner, ``cli._run_certificates``; a certificate function leaves it at 0."""

    name: str
    inputs: dict = field(default_factory=dict)
    exact_values: dict = field(default_factory=dict)  # str -> Fraction
    threshold: Fraction | None = None
    witness: dict | None = None
    checks: list[CheckRecord] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "exact_values": {k: format_rational(v) for k, v in self.exact_values.items()},
            "threshold": None if self.threshold is None else format_rational(self.threshold),
            "witness": self.witness,
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
            "wall_time": self.wall_time,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def report_from_json(data: dict) -> VerificationReport:
    try:
        checks = [
            CheckRecord(c["name"], c["lhs"], c["op"], c["rhs"], bool(c["ok"]))
            for c in data["checks"]
        ]
        report = VerificationReport(
            name=data["name"],
            inputs=data.get("inputs", {}),
            exact_values={k: as_rational(v) for k, v in data.get("exact_values", {}).items()},
            threshold=None if data.get("threshold") is None else as_rational(data["threshold"]),
            witness=data.get("witness"),
            checks=checks,
            wall_time=float(data.get("wall_time", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed report JSON: {exc}") from exc
    if bool(data.get("passed")) != report.passed:
        raise InputError("stored verdict does not match stored checks")
    return report


def reverify(data: dict) -> bool:
    """Re-run every stored comparison of a serialized report.

    Returns True iff each check's recomputed verdict matches the stored one.
    A ``passed`` flag that disagrees with the stored verdicts raises
    InputError, as :func:`report_from_json` does.
    """
    return all(_apply_op(c.lhs, c.op, c.rhs) == c.ok for c in report_from_json(data).checks)
