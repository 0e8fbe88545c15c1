"""Cross-dialect consistency of the insert operations (QA403).

The paper's comparison is only fair if every system stores the same
update.  This pass compares the canonical schema footprints the
dialect walkers computed for each insert, after
:meth:`SchemaCatalog.close_footprint` normalisation (dialects encode
endpoints differently — a SQL FK column names no tables, a SPARQL
predicate names no classes — so raw footprints are closed over
relationship endpoints first).

Inserts may diverge, but only *declaredly*: each dialect's extra
footprint beyond the cross-dialect common core must equal its entry in
:data:`DECLARED_INSERT_DELTAS` (the RDF connector intentionally
persists ``studyAt`` / ``workAt`` organisation facts the others drop;
SQL and SPARQL keep comment tags).  Any undeclared surplus — or a
declared delta that stopped materialising — is QA403.  Read operations
need no such pass: ``repro validate`` compares their answers.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.analysis.cypher import AnalysisResult
from repro.analysis.diagnostics import Diagnostic, SourceLocation, make
from repro.analysis.schema import SchemaCatalog, default_catalog

#: the 7 LDBC insert operations (INS1-INS8; both likes share one)
INSERT_OPERATIONS: tuple[str, ...] = (
    "add_person",
    "add_friendship",
    "add_forum",
    "add_forum_membership",
    "add_post",
    "add_comment",
    "add_like",
)

#: (dialect, operation) -> the *intended* closed-footprint surplus over
#: the cross-dialect common core.  Pairs not listed must match the core
#: exactly.  QA403 fires on any disagreement in either direction.
DECLARED_INSERT_DELTAS: dict[tuple[str, str], frozenset[str]] = {
    # the RDF connector persists university/company facts the
    # property-graph and SQL connectors drop on insert
    ("sparql", "add_person"): frozenset(
        {"organisation", "studyAt", "workAt"}
    ),
    # SQL (comment_tag rows) and SPARQL (snb:hasTag triples) keep the
    # comment's tags; Cypher and Gremlin drop them
    ("sql", "add_comment"): frozenset({"hasTag", "tag"}),
    ("sparql", "add_comment"): frozenset({"hasTag", "tag"}),
}


def check_insert_consistency(
    per_dialect: Mapping[str, Mapping[str, AnalysisResult]],
    catalog: SchemaCatalog | None = None,
) -> list[Diagnostic]:
    """QA403: each dialect's insert footprint may only exceed the
    common core by its declared delta."""
    catalog = catalog or default_catalog()
    out: list[Diagnostic] = []
    for operation in INSERT_OPERATIONS:
        location = SourceLocation("cross", operation)
        closed: dict[str, frozenset[str]] = {}
        for dialect, operations in per_dialect.items():
            result = operations.get(operation)
            if result is not None:
                closed[dialect] = catalog.close_footprint(result.footprint)
        if not closed:
            continue
        common = frozenset.intersection(*closed.values())
        for dialect, footprint in sorted(closed.items()):
            declared = DECLARED_INSERT_DELTAS.get(
                (dialect, operation), frozenset()
            )
            actual = footprint - common
            if actual == declared:
                continue
            undeclared = actual - declared
            missing = declared - actual
            parts = []
            if undeclared:
                parts.append(
                    f"undeclared surplus "
                    f"{{{', '.join(sorted(undeclared))}}}"
                )
            if missing:
                parts.append(
                    f"declared delta not present "
                    f"{{{', '.join(sorted(missing))}}}"
                )
            out.append(make(
                "QA403",
                f"{dialect} insert footprint deviates from the "
                f"common core: {'; '.join(parts)}",
                location,
            ))
    return out
