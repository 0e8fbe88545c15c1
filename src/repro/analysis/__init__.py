"""Schema-aware static analysis for the benchmark's query catalogs.

A misspelled label, edge type or property in an *insert* changes what a
system stores without changing any answer the cross-check compares, so
the catalogs are also checked *statically*, before any benchmark run:

* :mod:`repro.analysis.diagnostics` — the ``Diagnostic`` model and the
  ``QAxxx`` error-code taxonomy.
* :mod:`repro.analysis.schema`      — the schema catalog (labels, edge
  types, tables, predicates, property types) derived from
  :mod:`repro.snb.schema`, with per-dialect element mappings.
* :mod:`repro.analysis.cypher`, :mod:`~repro.analysis.sql`,
  :mod:`~repro.analysis.sparql`, :mod:`~repro.analysis.gremlin` — the
  per-dialect walkers.
* :mod:`repro.analysis.consistency` — the cross-dialect pass comparing
  canonical schema footprints per insert operation.
* :mod:`repro.analysis.program`     — the whole-program passes over the
  engine source (``repro lint --program``): lock order and blocking
  I/O under a lock.
* :mod:`repro.analysis.linter`      — orchestration (``repro lint`` and
  the connectors' prepare-time validation).
"""

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    QueryValidationError,
    Severity,
    SourceLocation,
)
from repro.analysis.schema import SchemaCatalog, default_catalog
from repro.analysis.cypher import analyze_cypher
from repro.analysis.sql import analyze_sql
from repro.analysis.sparql import analyze_sparql
from repro.analysis.gremlin import analyze_gremlin
from repro.analysis.consistency import (
    DECLARED_INSERT_DELTAS,
    INSERT_OPERATIONS,
    check_insert_consistency,
)
from repro.analysis.linter import (
    ensure_catalog_valid,
    lint_all,
    validate_catalog,
)

__all__ = [
    "CODES",
    "DECLARED_INSERT_DELTAS",
    "Diagnostic",
    "INSERT_OPERATIONS",
    "QueryValidationError",
    "SchemaCatalog",
    "Severity",
    "SourceLocation",
    "analyze_cypher",
    "analyze_gremlin",
    "analyze_sparql",
    "analyze_sql",
    "check_insert_consistency",
    "default_catalog",
    "ensure_catalog_valid",
    "lint_all",
    "validate_catalog",
]
