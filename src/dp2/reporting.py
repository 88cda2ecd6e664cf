"""Claim reports: the unit of output of the verification replay."""

from __future__ import annotations

from typing import Any

from .errors import refuse_mutation


class ClaimReport:
    """One verified statement: what was expected, what came out, and whether they agree."""

    __slots__ = ("id", "description", "expected", "computed", "passed", "paper_ref",
                 "known_discrepancy")
    __setattr__ = __delattr__ = refuse_mutation

    def __init__(self, id: str, description: str, expected: Any, computed: Any, passed: bool,
                 paper_ref: str, known_discrepancy: bool = False):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "paper_ref", paper_ref)
        object.__setattr__(self, "known_discrepancy", known_discrepancy)

    def _fields(self) -> tuple:
        return (self.id, self.description, self.expected, self.computed, self.passed,
                self.paper_ref, self.known_discrepancy)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        return (f"ClaimReport(id={self.id!r}, description={self.description!r}, "
                f"expected={self.expected!r}, computed={self.computed!r}, "
                f"passed={self.passed!r}, paper_ref={self.paper_ref!r}, "
                f"known_discrepancy={self.known_discrepancy!r})")

    def __reduce__(self):
        return ClaimReport, self._fields()

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

        return json.dumps(self.to_dict(), sort_keys=True, default=_jsonable)

    def status(self) -> str:
        if self.known_discrepancy:
            return "FLAG"
        return "PASS" if self.passed else "FAIL"


def _jsonable(value: Any):
    if isinstance(value, tuple):
        return list(value)
    return str(value)


def report(claim_id: str, description: str, paper_ref: str, expected: Any,
           computed: Any, known_discrepancy: bool = False) -> ClaimReport:
    """Build a report, comparing expected and computed for the pass flag."""
    return ClaimReport(
        id=claim_id,
        description=description,
        expected=expected,
        computed=computed,
        passed=expected == computed,
        paper_ref=paper_ref,
        known_discrepancy=known_discrepancy,
    )
