"""The diagnostic model shared by every analysis pass.

Codes are grouped by hundreds:

=======  ==============================================================
QA101    unknown label (node label / RDF class / vertex label)
QA102    unknown edge type (relationship type / predicate / edge label)
QA103    unknown property (property key / column)
QA104    unknown table (SQL)
QA105    query does not parse
QA106    arity mismatch (INSERT value count vs. table width)
QA107    unbound variable
QA201    type-mismatched predicate (literal type vs. declared type)
QA202    edge endpoint mismatch (edge used between wrong entity kinds)
QA301    cartesian product (disconnected, unanchored pattern component)
QA302    non-sargable filter (expression applied to a column before
         comparison; an index can never serve it)
QA303    unanchored scan (traversal / query with no index anchor)
QA401    cross-dialect schema-footprint mismatch for one operation
QA402    operation missing from a dialect's catalog
QA403    undeclared insert-footprint delta (a dialect's insert touches
         concepts beyond the common core without a declared intent)
QA501    lock-order cycle between two overlapping transactions
         (runtime only; its static counterpart is QA801)
QA502    multi-lock acquisition out of sorted resource order (static,
         per function under ``lint --program``; and at runtime)
QA601    unsynchronized shared access (two workers touch one resource
         with disjoint locksets and no happens-before edge; covers
         write/write and unprotected read/write pairs — snapshot-mode
         reads are immune by construction)
QA602    lock held across a commit boundary (or never released)
QA603    lost update (two overlapping committed transactions both
         read-then-write one resource; the second write clobbers the
         first without having observed it)
QA604    non-repeatable read (one transaction reads a resource twice
         without snapshot protection and a foreign committed write
         lands in between)
QA605    write skew (two overlapping committed transactions each read
         what the other writes; serial in neither order)
QA701    dangling edge / foreign-key endpoint
QA702    index entry disagrees with the heap / store row
QA704    WAL / group-commit replay divergence
QA801    static lock-order inversion (per-function acquisition
         sequences composed across the call graph)
QA802    lock/transaction acquired with no dominating release on the
         exception path (try/finally or context manager)
QA803    blocking I/O (WAL fsync, Gremlin submit) reachable while a
         lock is held
QA804    storage-mutation function that emits no sanitizer trace event
         (and is not baselined as a sub-record primitive)
QA805    cache-writing code path with no matching invalidation
         registration anywhere in its class
QA806    snapshot-bypassing raw read on a versioned store (a reader
         touches record containers or probes an unversioned secondary
         index without consulting the MVCC visibility layer /
         ``stale_keys`` index-fixup discipline)
QA807    storage mutation without version stamping: a member of a
         VersionStore-owning class mutates a record container but
         never stamps/records the change for snapshot readers
QA808    cache fill or hit not gated on snapshot staleness
         (``stale_reads``/``stale``): a stale snapshot could read or
         poison entries derived from newer state
QA809    physical reclaim outside the GC-watermark path: record data
         is removed by a function that is neither the ``on_reclaim``
         callback's closure nor a caller consulting
         ``record_delete``/``undelete``
QA810    side effect inside ``repro.exec.*``: compiled batch kernels
         must be read-only (no lock/txn acquisition, trace writes,
         mutation charges, or storage/cache write verbs)
=======  ==============================================================

QA1xx-QA4xx are *static* passes over the query catalogs
(:mod:`repro.analysis`).  QA501 and QA6xx/QA7xx are produced only by
the dynamic sanitizer (:mod:`repro.sanitizer`), which observes real
executions; QA502 is emitted both by it and statically.  QA502 and
QA8xx are *whole-program* static passes over the engine source itself
(:mod:`repro.analysis.program`): they prove on every path what the
sanitizer can only sample on traced histories.
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
    "QA104": ("unknown-table", Severity.ERROR),
    "QA105": ("parse-error", Severity.ERROR),
    "QA106": ("arity-mismatch", Severity.ERROR),
    "QA107": ("unbound-variable", Severity.ERROR),
    "QA201": ("type-mismatch", Severity.ERROR),
    "QA202": ("edge-endpoint-mismatch", Severity.ERROR),
    "QA301": ("cartesian-product", Severity.ERROR),
    "QA302": ("non-sargable-filter", Severity.WARNING),
    "QA303": ("unanchored-scan", Severity.WARNING),
    "QA401": ("cross-dialect-mismatch", Severity.ERROR),
    "QA402": ("missing-operation", Severity.ERROR),
    "QA403": ("undeclared-insert-footprint-delta", Severity.ERROR),
    "QA501": ("lock-order-cycle", Severity.ERROR),
    "QA502": ("unsorted-lock-acquisition", Severity.WARNING),
    "QA601": ("unsynchronized-shared-access", Severity.ERROR),
    "QA602": ("lock-across-commit", Severity.ERROR),
    "QA603": ("lost-update", Severity.ERROR),
    "QA604": ("non-repeatable-read", Severity.ERROR),
    "QA605": ("write-skew", Severity.ERROR),
    "QA701": ("dangling-endpoint", Severity.ERROR),
    "QA702": ("index-store-mismatch", Severity.ERROR),
    "QA704": ("wal-replay-divergence", Severity.ERROR),
    "QA801": ("static-lock-order-inversion", Severity.ERROR),
    "QA802": ("leaked-resource-on-exception", Severity.ERROR),
    "QA803": ("blocking-io-under-lock", Severity.ERROR),
    "QA804": ("untraced-storage-mutation", Severity.ERROR),
    "QA805": ("cache-write-without-invalidation", Severity.ERROR),
    "QA806": ("snapshot-bypassing-raw-read", Severity.ERROR),
    "QA807": ("unversioned-storage-mutation", Severity.ERROR),
    "QA808": ("ungated-cache-under-snapshot", Severity.ERROR),
    "QA809": ("reclaim-outside-watermark", Severity.ERROR),
    "QA810": ("effectful-compiled-closure", Severity.ERROR),
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
