"""Structured pass/fail reports for axiom validation and theorem checks.

Reports are JSON-native: points inside witness and counterexample records are
stored as lists of ints, so ``to_dict``/``from_dict`` round-trip exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def pt(p) -> list[int]:
    """Convert an internal point tuple to its JSON form."""
    return [int(x) for x in p]


@dataclass
class CheckReport:
    check_name: str
    passed: bool
    universe: str
    witnesses: list[dict[str, Any]] = field(default_factory=list)
    counterexamples: list[dict[str, Any]] = field(default_factory=list)
    flags: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        state = "pass" if self.passed else "FAIL"
        line = f"{self.check_name}: {state}"
        if self.counterexamples:
            line += f" (first counterexample: {self.counterexamples[0]})"
        return line

    def to_dict(self) -> dict[str, Any]:
        return {
            "check_name": self.check_name,
            "passed": self.passed,
            "universe": self.universe,
            "witnesses": self.witnesses,
            "counterexamples": self.counterexamples,
            "flags": self.flags,
        }

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "CheckReport":
        return CheckReport(
            check_name=d["check_name"],
            passed=d["passed"],
            universe=d["universe"],
            witnesses=list(d.get("witnesses", [])),
            counterexamples=list(d.get("counterexamples", [])),
            flags=dict(d.get("flags", {})),
        )
