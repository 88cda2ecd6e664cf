"""Claim reports, the unit of output of the verification replay, and their text and JSON forms."""

from __future__ import annotations

from typing import Any

from .errors import Value


class ClaimReport(Value):
    """One verified statement: what was expected and what came out; it passes when they agree."""

    __slots__ = ("id", "description", "paper_ref", "expected", "computed", "known_discrepancy")

    def __init__(self, id: str, description: str, paper_ref: str, expected: Any,
                 computed: Any, known_discrepancy: bool = False):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "paper_ref", paper_ref)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "known_discrepancy", known_discrepancy)

    @property
    def passed(self) -> bool:
        return self.expected == self.computed

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "paper_ref": self.paper_ref,
            "known_discrepancy": self.known_discrepancy,
        }

    def to_json(self) -> str:
        import json  # only --json output needs it

        return json.dumps(self.to_dict(), sort_keys=True)

    def status(self) -> str:
        if self.known_discrepancy:
            return "FLAG"
        return "PASS" if self.passed else "FAIL"


def failures(reports: list[ClaimReport]) -> list[ClaimReport]:
    return [r for r in reports if not r.passed and not r.known_discrepancy]


def render_text(reports: list[ClaimReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"{r.status():4s} {r.id:28s} {r.description}")
        if not r.passed:
            lines.append(f"     expected: {r.expected}")
            lines.append(f"     computed: {r.computed}")
            lines.append(f"     source:   {r.paper_ref}")
    passed = sum(1 for r in reports if r.passed)
    flagged = sum(1 for r in reports if r.known_discrepancy)
    failed = len(failures(reports))
    lines.append(f"{len(reports)} claims: {passed} passed, {failed} failed, "
                 f"{flagged} flagged known-discrepancy")
    return "\n".join(lines)


def render_json_lines(reports: list[ClaimReport]) -> str:
    return "\n".join(r.to_json() for r in reports)
