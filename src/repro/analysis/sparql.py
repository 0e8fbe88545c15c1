"""Static analysis of SPARQL queries against the schema catalog.

Entity typing works by *narrowing*: every variable starts as "any
entity" and each pattern it appears in intersects the set — ``rdf:type``
by the class, a relationship predicate by its endpoints, a property
predicate by the entities that own the property.  An empty final set
means the patterns contradict the schema (QA103 when only property
predicates and classes took part).  Narrowing is order-independent, so the
checks run after all patterns have been seen.

Reified-statement predicates (``snb:knowsFrom`` …) only appear in insert
triples, never in catalog queries; they are recognised for footprint
purposes but their subjects are not entity-typed.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.cypher import AnalysisResult
from repro.analysis.diagnostics import SourceLocation, make
from repro.analysis.schema import SchemaCatalog, default_catalog
from repro.rdf.sparql import parser as sp
from repro.rdf.sparql.parser import SparqlParseError, parse


def analyze_sparql(
    operation: str,
    queries: Sequence[str],
    catalog: SchemaCatalog | None = None,
) -> AnalysisResult:
    catalog = catalog or default_catalog()
    result = AnalysisResult()
    for index, text in enumerate(queries):
        location = SourceLocation("sparql", operation, index)
        try:
            query = parse(text)
        except SparqlParseError:
            continue  # the engine's parser rejects it at first execution
        _check_query(query, location, catalog, result)
    return result


def _check_query(
    query: sp.SparqlQuery,
    location: SourceLocation,
    catalog: SchemaCatalog,
    result: AnalysisResult,
) -> None:
    out = result.diagnostics
    all_entities = frozenset(catalog.entities)

    env: dict[str, frozenset[str]] = {}  # entity-typed vars
    rel_constrained: set[str] = set()  # vars narrowed by a relationship
    value_types: dict[str, str] = {}  # value vars from property objects

    def narrow(term: sp.Term, allowed: frozenset[str]) -> None:
        if isinstance(term, sp.Var):
            env[term.name] = env.get(term.name, all_entities) & allowed

    for pattern in query.patterns:
        predicate = pattern.p
        if not isinstance(predicate, sp.Iri):
            continue  # variable predicates are untypable; allow them
        name = predicate.value
        if name == "rdf:type":
            if not isinstance(pattern.o, sp.Iri):
                continue
            entities = catalog.sparql_classes.get(pattern.o.value)
            if entities is None:
                out.append(make(
                    "QA101",
                    f"unknown class {pattern.o.value}",
                    location,
                ))
                continue
            narrow(pattern.s, entities)
        elif name in catalog.sparql_rel_predicates:
            rel = catalog.relationships[catalog.sparql_rel_predicates[name]]
            result.footprint.add(rel.name)
            narrow(pattern.s, rel.src)
            narrow(pattern.o, rel.dst)
            for term in (pattern.s, pattern.o):
                if isinstance(term, sp.Var):
                    rel_constrained.add(term.name)
        elif name in catalog.sparql_prop_predicates:
            owners, prop_type = catalog.sparql_prop_predicates[name]
            narrow(pattern.s, owners)
            if isinstance(pattern.o, sp.Var):
                value_types[pattern.o.name] = prop_type
            elif isinstance(pattern.o, sp.LiteralTerm):
                actual = _literal_type(pattern.o.value)
                if actual != prop_type:
                    out.append(make(
                        "QA201",
                        f"{name} is {prop_type}, given {actual} "
                        f"literal {pattern.o.value!r}",
                        location,
                    ))
        elif name in catalog.sparql_statement_predicates:
            result.footprint.add(catalog.sparql_statement_predicates[name])
        else:
            out.append(make(
                "QA102", f"unknown predicate {name}", location,
            ))

    # contradictions: a variable no entity can satisfy
    for var, entities in env.items():
        if not entities:
            if var not in rel_constrained:
                out.append(make(
                    "QA103",
                    f"no entity satisfies every constraint on ?{var}",
                    location,
                ))
        elif entities != all_entities:
            result.footprint.update(entities)

    for filt in query.filters:
        _check_filter(filt.expr, value_types, location, out)


def _literal_type(value: object) -> str:
    if isinstance(value, bool):
        return "str"
    if isinstance(value, (int, float)):
        return "int"
    return "str"


def _check_filter(
    expr: sp.FilterExpr,
    value_types: dict[str, str],
    location: SourceLocation,
    out: list,
) -> None:
    if isinstance(expr, sp.BoolOp):
        _check_filter(expr.left, value_types, location, out)
        _check_filter(expr.right, value_types, location, out)
    elif isinstance(expr, sp.NotOp):
        _check_filter(expr.operand, value_types, location, out)
    elif isinstance(expr, sp.Comparison):
        _check_terms((expr.left, expr.right), value_types, location, out)
    elif isinstance(expr, sp.InFilter):
        _check_terms(
            (expr.needle, *expr.items), value_types, location, out
        )


def _check_terms(
    terms: tuple[sp.Term, ...],
    value_types: dict[str, str],
    location: SourceLocation,
    out: list,
) -> None:
    declared: str | None = None
    for term in terms:
        if isinstance(term, sp.Var) and declared is None:
            declared = value_types.get(term.name)
    if declared is None:
        return
    for term in terms:
        if isinstance(term, sp.LiteralTerm):
            actual = _literal_type(term.value)
            if actual != declared:
                out.append(make(
                    "QA201",
                    f"variable is {declared}, compared with {actual} "
                    f"literal {term.value!r}",
                    location,
                ))
