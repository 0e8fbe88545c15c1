"""The diagnostic model shared by every analysis pass.

Codes are grouped by hundreds:

=======  ==============================================================
QA101    unknown label (node label / RDF class / vertex label)
QA102    unknown edge type (relationship type / predicate / edge label)
QA103    unknown property (property key / column)
QA201    type-mismatched predicate (literal type vs. declared type)
QA302    non-sargable filter (expression applied to a column before
         comparison; an index can never serve it)
QA403    undeclared insert-footprint delta (a dialect's insert touches
         concepts beyond the common core without a declared intent)
QA701    dangling edge / foreign-key endpoint
QA702    index entry disagrees with the heap / store row
QA704    WAL / group-commit replay divergence
QA801    static lock-order inversion (per-function acquisition
         sequences composed across the call graph)
QA803    blocking I/O (WAL fsync, Gremlin submit) reachable while a
         lock is held
=======  ==============================================================

QA1xx-QA4xx are *static* passes over the query catalogs
(:mod:`repro.analysis`).  QA7xx are the post-run integrity audits of
:mod:`repro.sanitizer`.  QA8xx are *whole-program* static passes over
the engine source itself (:mod:`repro.analysis.program`).  Each code
kept its place by catching a defect the tier-1 tests miss (DESIGN.md
§14, the mutation census), or by serving as an oracle (QA7xx).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: code -> (short name, default severity)
CODES: dict[str, tuple[str, Severity]] = {
    "QA101": ("unknown-label", Severity.ERROR),
    "QA102": ("unknown-edge-type", Severity.ERROR),
    "QA103": ("unknown-property", Severity.ERROR),
    "QA201": ("type-mismatch", Severity.ERROR),
    "QA302": ("non-sargable-filter", Severity.WARNING),
    "QA403": ("undeclared-insert-footprint-delta", Severity.ERROR),
    "QA701": ("dangling-endpoint", Severity.ERROR),
    "QA702": ("index-store-mismatch", Severity.ERROR),
    "QA704": ("wal-replay-divergence", Severity.ERROR),
    "QA801": ("static-lock-order-inversion", Severity.ERROR),
    "QA803": ("blocking-io-under-lock", Severity.ERROR),
}


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic points: one query of one operation's catalog
    entry (or a file/function for the lock-order pass)."""

    dialect: str  # cypher | sql | sparql | gremlin | python
    operation: str  # connector method name, or file path
    query_index: int = 0

    def __str__(self) -> str:
        return f"{self.dialect}:{self.operation}[{self.query_index}]"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    location: SourceLocation
    severity: Severity = field(default=Severity.ERROR)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code}")

    @property
    def name(self) -> str:
        return CODES[self.code][0]

    def __str__(self) -> str:
        return (
            f"{self.code} {self.severity.value:7s} {self.location}: "
            f"{self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        """The stable JSON shape emitted by ``--format json`` (one
        object per line); pinned by the CLI tests."""
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "dialect": self.location.dialect,
            "operation": self.location.operation,
            "query_index": self.location.query_index,
            "message": self.message,
        }


def make(code: str, message: str, location: SourceLocation) -> Diagnostic:
    """A diagnostic with the code's default severity."""
    return Diagnostic(code, message, location, CODES[code][1])


def errors(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity is Severity.ERROR]


class QueryValidationError(Exception):
    """A query catalog failed validation; carries the diagnostics.

    Raised at connector *construction* time so a bad query is rejected
    before any benchmark run, not mid-run under load.
    """

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        lines = "\n  ".join(str(d) for d in self.diagnostics)
        super().__init__(
            f"{len(self.diagnostics)} query diagnostic(s):\n  {lines}"
        )
