"""Static analysis of Cypher query strings against the schema catalog."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, SourceLocation, make
from repro.analysis.schema import SchemaCatalog, default_catalog
from repro.graphdb.cypher import ast
from repro.graphdb.cypher.parser import CypherParseError, parse
from repro.stats import expected_entity_rows, format_rows

_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}


@dataclass
class AnalysisResult:
    """Diagnostics plus the raw canonical-concept footprint."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    footprint: set[str] = field(default_factory=set)


def analyze_cypher(
    operation: str,
    queries: Sequence[str],
    catalog: SchemaCatalog | None = None,
) -> AnalysisResult:
    catalog = catalog or default_catalog()
    result = AnalysisResult()
    for index, text in enumerate(queries):
        location = SourceLocation("cypher", operation, index)
        _analyze_one(text, location, catalog, result)
    return result


def _analyze_one(
    text: str,
    location: SourceLocation,
    catalog: SchemaCatalog,
    result: AnalysisResult,
) -> None:
    try:
        query = parse(text)
    except CypherParseError:
        return  # the engine's parser rejects it at the first execution
    out = result.diagnostics
    #: node variable -> the entities its labels allow
    env: dict[str, frozenset[str]] = {}

    for clause in query.clauses:
        if isinstance(clause, (ast.MatchClause, ast.CreateClause)):
            for pattern in clause.patterns:
                _check_pattern(pattern, env, location, catalog, result)
            if isinstance(clause, ast.MatchClause) and (
                clause.where is not None
            ):
                _check_expr(clause.where, env, location, catalog, out)
        elif isinstance(clause, ast.SetClause):
            for item in clause.items:
                _check_expr(item.target, env, location, catalog, out)
                _check_expr(item.value, env, location, catalog, out)
    if query.returns is not None:
        for item in query.returns.items:
            _check_expr(item.expr, env, location, catalog, out)
        for order in query.returns.order_by:
            _check_expr(order.expr, env, location, catalog, out)


# --- patterns --------------------------------------------------------------------


def _check_pattern(
    pattern: ast.PathPattern,
    env: dict[str, frozenset[str]],
    location: SourceLocation,
    catalog: SchemaCatalog,
    result: AnalysisResult,
) -> None:
    out = result.diagnostics
    for node in pattern.nodes:
        entities = _node_entities(node, location, catalog, out)
        if entities:
            result.footprint |= entities
            if node.var is not None:
                env[node.var] = entities
        for key, expr in node.props:
            _check_prop(entities or None, key, expr, location, catalog, out)
    for rel in pattern.rels:
        for rel_type in rel.types:
            canonical = catalog.cypher_rel_types.get(rel_type)
            if canonical is None:
                out.append(make(
                    "QA102", f"unknown relationship type :{rel_type}",
                    location,
                ))
                continue
            result.footprint.add(canonical)
            relationship = catalog.relationships[canonical]
            for key, expr in rel.props:
                declared = relationship.props.get(key)
                if declared is None:
                    out.append(make(
                        "QA103",
                        f"relationship :{rel_type} has no property "
                        f"{key!r}",
                        location,
                    ))
                elif isinstance(expr, ast.Literal):
                    _check_literal_type(declared, expr.value, key,
                                        location, out)


def _node_entities(
    node: ast.NodePattern,
    location: SourceLocation,
    catalog: SchemaCatalog,
    out: list[Diagnostic],
) -> frozenset[str]:
    entities: frozenset[str] | None = None
    for label in node.labels:
        mapped = catalog.cypher_labels.get(label)
        if mapped is None:
            out.append(make("QA101", f"unknown label :{label}", location))
            continue
        entities = mapped if entities is None else entities & mapped
    return entities if entities is not None else frozenset()


def _check_prop(
    entities: frozenset[str] | None,
    key: str,
    expr: ast.Expr,
    location: SourceLocation,
    catalog: SchemaCatalog,
    out: list[Diagnostic],
) -> None:
    if not entities:
        return
    declared = catalog.entity_prop_type(entities, key)
    if declared is None:
        out.append(make(
            "QA103",
            f"no property {key!r} on {set(entities)}",
            location,
        ))
    elif isinstance(expr, ast.Literal):
        _check_literal_type(declared, expr.value, key, location, out)


def _check_literal_type(
    declared: str,
    value: object,
    key: str,
    location: SourceLocation,
    out: list[Diagnostic],
) -> None:
    if declared == "list":
        return
    actual = "int" if isinstance(value, (int, float)) and not isinstance(
        value, bool
    ) else "str"
    if isinstance(value, bool):
        actual = "bool"
    if value is not None and actual != declared:
        out.append(make(
            "QA201",
            f"property {key!r} is {declared}, compared with "
            f"{actual} literal {value!r}",
            location,
        ))


# --- expressions -----------------------------------------------------------------


def _check_expr(
    expr: ast.Expr,
    env: dict[str, frozenset[str]],
    location: SourceLocation,
    catalog: SchemaCatalog,
    out: list[Diagnostic],
) -> None:
    if isinstance(expr, ast.PropAccess):
        _check_prop(env.get(expr.var), expr.key, ast.Param("_"), location,
                    catalog, out)
    elif isinstance(expr, ast.BinaryOp):
        _check_expr(expr.left, env, location, catalog, out)
        _check_expr(expr.right, env, location, catalog, out)
        if expr.op in _COMPARISONS:
            _check_comparison(expr, env, location, catalog, out)
    elif isinstance(expr, ast.UnaryOp):
        _check_expr(expr.operand, env, location, catalog, out)
    elif isinstance(expr, ast.IsNull):
        _check_expr(expr.operand, env, location, catalog, out)
    elif isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            _check_expr(arg, env, location, catalog, out)


def _check_comparison(
    expr: ast.BinaryOp,
    env: dict[str, frozenset[str]],
    location: SourceLocation,
    catalog: SchemaCatalog,
    out: list[Diagnostic],
) -> None:
    sides = (expr.left, expr.right)
    for prop_side, other in (sides, sides[::-1]):
        if not isinstance(prop_side, ast.PropAccess):
            continue
        bound = env.get(prop_side.var)
        if not bound:
            continue
        declared = catalog.entity_prop_type(bound, prop_side.key)
        if declared is not None and isinstance(other, ast.Literal):
            _check_literal_type(declared, other.value, prop_side.key,
                                location, out)
    for side in sides:
        if _wraps_property(side):
            out.append(make(
                "QA302",
                "comparison applies an expression to a property; "
                "no index can serve it" + _scan_estimate(side, env),
                location,
            ))


def _scan_estimate(
    expr: ast.Expr, env: dict[str, frozenset[str]]
) -> str:
    """Expected per-candidate scan size for the filtered variable."""
    access = _first_prop_access(expr)
    if access is None:
        return ""
    bound = env.get(access.var)
    if not bound:
        return ""
    rows = expected_entity_rows(bound)
    if rows is None:
        return ""
    kinds = "/".join(sorted(bound))
    return (
        f" (filters {format_rows(rows)} {kinds} entities at SF10)"
    )


def _first_prop_access(expr: ast.Expr) -> ast.PropAccess | None:
    if isinstance(expr, ast.PropAccess):
        return expr
    if isinstance(expr, ast.BinaryOp):
        return _first_prop_access(expr.left) or _first_prop_access(
            expr.right
        )
    if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
        return _first_prop_access(expr.operand)
    if isinstance(expr, ast.FuncCall):
        for arg in expr.args:
            found = _first_prop_access(arg)
            if found is not None:
                return found
    return None


def _wraps_property(expr: ast.Expr) -> bool:
    """True when an expression buries a PropAccess under computation."""
    if isinstance(expr, ast.FuncCall):
        return any(_contains_property(arg) for arg in expr.args)
    if isinstance(expr, ast.BinaryOp) and expr.op not in _COMPARISONS and (
        expr.op not in {"AND", "OR"}
    ):
        return _contains_property(expr.left) or _contains_property(
            expr.right
        )
    return False


def _contains_property(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.PropAccess):
        return True
    if isinstance(expr, ast.BinaryOp):
        return _contains_property(expr.left) or _contains_property(
            expr.right
        )
    if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
        return _contains_property(expr.operand)
    if isinstance(expr, ast.FuncCall):
        return any(_contains_property(arg) for arg in expr.args)
    return False
