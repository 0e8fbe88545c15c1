"""Orchestration: validate query catalogs and run every pass.

Three consumers:

* connectors call :func:`ensure_catalog_valid` at construction, so a
  bad query is rejected with diagnostics before a benchmark starts;
* ``repro lint`` calls :func:`lint_all` and prints the diagnostics;
* tests call :func:`validate_catalog` against mutated catalogs to prove
  the walkers actually detect seeded defects.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.analysis.consistency import (
    check_consistency,
    check_insert_consistency,
)
from repro.analysis.cypher import AnalysisResult, analyze_cypher
from repro.analysis.diagnostics import (
    Diagnostic,
    QueryValidationError,
    errors,
)
from repro.analysis.gremlin import analyze_gremlin
from repro.analysis.schema import SchemaCatalog, default_catalog
from repro.analysis.sparql import analyze_sparql
from repro.analysis.sql import analyze_sql

_ANALYZERS = {
    "cypher": analyze_cypher,
    "sql": analyze_sql,
    "sparql": analyze_sparql,
    "gremlin": analyze_gremlin,
}


def analyze_catalog(
    dialect: str,
    queries: Mapping[str, object],
    catalog: SchemaCatalog | None = None,
) -> dict[str, AnalysisResult]:
    """Walk every operation of one dialect's query catalog."""
    analyze = _ANALYZERS[dialect]
    return {
        operation: analyze(operation, entries, catalog)
        for operation, entries in queries.items()
    }


def validate_catalog(
    dialect: str,
    queries: Mapping[str, object],
    catalog: SchemaCatalog | None = None,
) -> list[Diagnostic]:
    """All diagnostics for one dialect's catalog."""
    return [
        diagnostic
        for result in analyze_catalog(dialect, queries, catalog).values()
        for diagnostic in result.diagnostics
    ]


#: catalogs already validated this process (they are module-level
#: constants, so identity is a stable key)
_VALIDATED: set[tuple[str, int]] = set()


def ensure_catalog_valid(
    dialect: str,
    queries: Mapping[str, object],
    catalog: SchemaCatalog | None = None,
) -> None:
    """Raise :class:`QueryValidationError` on any ERROR diagnostic.

    Connectors call this from ``__init__``; the result is cached per
    catalog object so repeated construction stays cheap.
    """
    key = (dialect, id(queries))
    if key in _VALIDATED:
        return
    bad = errors(validate_catalog(dialect, queries, catalog))
    if bad:
        raise QueryValidationError(bad)
    _VALIDATED.add(key)


def connector_catalogs() -> dict[str, Mapping[str, object]]:
    """The built-in connectors' query catalogs (imported lazily to keep
    ``repro.analysis`` free of connector dependencies)."""
    from repro.core.connectors.cypher import CYPHER_QUERIES
    from repro.core.connectors.gremlin import GREMLIN_TRAVERSALS
    from repro.core.connectors.sparql import SPARQL_QUERIES
    from repro.core.connectors.sql import SQL_QUERIES

    return {
        "cypher": CYPHER_QUERIES,
        "sql": SQL_QUERIES,
        "sparql": SPARQL_QUERIES,
        "gremlin": GREMLIN_TRAVERSALS,
    }


def lint_all(catalog: SchemaCatalog | None = None) -> list[Diagnostic]:
    """Every catalog pass: per-dialect walkers and cross-dialect
    consistency.  Returns diagnostics of all severities.  The checks
    over the engine source itself (lock order among them) are the
    whole-program passes of :mod:`repro.analysis.program`."""
    catalog = catalog or default_catalog()
    diagnostics: list[Diagnostic] = []
    per_dialect: dict[str, dict[str, AnalysisResult]] = {}
    for dialect, queries in connector_catalogs().items():
        results = analyze_catalog(dialect, queries, catalog)
        per_dialect[dialect] = results
        for result in results.values():
            diagnostics.extend(result.diagnostics)
    diagnostics.extend(check_consistency(per_dialect, catalog))
    diagnostics.extend(check_insert_consistency(per_dialect, catalog))
    return diagnostics
