"""Static analysis of SQL statements against the schema catalog."""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.cypher import AnalysisResult
from repro.analysis.diagnostics import SourceLocation, make
from repro.analysis.schema import SchemaCatalog, SqlTable, default_catalog
from repro.relational.sql import ast
from repro.relational.sql.parser import SqlParseError, parse
from repro.stats import expected_table_rows, format_rows

_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}
_ARITHMETIC = {"+", "-", "*", "/"}


def analyze_sql(
    operation: str,
    queries: Sequence[str],
    catalog: SchemaCatalog | None = None,
) -> AnalysisResult:
    catalog = catalog or default_catalog()
    result = AnalysisResult()
    for index, text in enumerate(queries):
        location = SourceLocation("sql", operation, index)
        try:
            statement = parse(text)
        except SqlParseError:
            continue  # the engine's parser rejects it at first execution
        _Checker(location, catalog, result).statement(statement)
    return result


class _Checker:
    def __init__(
        self,
        location: SourceLocation,
        catalog: SchemaCatalog,
        result: AnalysisResult,
    ) -> None:
        self.location = location
        self.catalog = catalog
        self.result = result
        self.out = result.diagnostics
        #: CTE name -> declared column names (types unknown)
        self.ctes: dict[str, tuple[str, ...]] = {}

    # -- statements ---------------------------------------------------------

    def statement(self, stmt: ast.Statement) -> None:
        if isinstance(stmt, ast.Select):
            self.select(stmt)
        elif isinstance(stmt, ast.RecursiveCTE):
            self.ctes[stmt.name] = stmt.columns
            self.select(stmt.base)
            self.select(stmt.step)
            self.select(stmt.body)
        elif isinstance(stmt, ast.Insert):
            self.insert(stmt)
        elif isinstance(stmt, ast.Update):
            table = self.require_table(stmt.table)
            if table is not None:
                scope = {stmt.table: stmt.table}
                for column, value in stmt.assignments:
                    self.column(ast.ColumnRef(stmt.table, column), scope)
                    self.expr(value, scope)
                if stmt.where is not None:
                    self.expr(stmt.where, scope)
        elif isinstance(stmt, ast.Delete):
            if self.require_table(stmt.table) is not None and (
                stmt.where is not None
            ):
                self.expr(stmt.where, {stmt.table: stmt.table})
        elif isinstance(stmt, ast.CreateTable):
            self.require_table(stmt.name)
        elif isinstance(stmt, ast.CreateIndex):
            if self.require_table(stmt.table) is not None:
                self.column(
                    ast.ColumnRef(stmt.table, stmt.column),
                    {stmt.table: stmt.table},
                )

    def insert(self, stmt: ast.Insert) -> None:
        table = self.require_table(stmt.table)
        if table is None:
            return
        # a full-row insert touches every concept the table encodes
        for column in table.columns.values():
            if column.concept is not None:
                self.result.footprint.add(column.concept)

    # -- SELECT -------------------------------------------------------------

    def select(self, sel: ast.Select) -> None:
        scope: dict[str, str] = {}
        if sel.from_table is not None:
            if self.resolve_source(sel.from_table.name) is not None:
                scope[sel.from_table.binding] = sel.from_table.name
        for join in sel.joins:
            if self.resolve_source(join.table.name) is not None:
                scope[join.table.binding] = join.table.name
            self.expr(join.condition, scope)
        for item in sel.items:
            self.expr(item.expr, scope)
        if sel.where is not None:
            self.expr(sel.where, scope)
        for expr in sel.group_by:
            self.expr(expr, scope)
        for order in sel.order_by:
            self.expr(order.expr, scope)

    # -- sources and columns --------------------------------------------------

    def require_table(self, name: str) -> SqlTable | None:
        """The catalog's table (None when unknown: the engine rejects
        the statement at its first execution)."""
        table = self.catalog.sql_tables.get(name)
        if table is not None:
            self.result.footprint.add(table.concept)
        return table

    def resolve_source(self, name: str) -> tuple[str, ...] | SqlTable | None:
        if name in self.ctes:
            return self.ctes[name]
        return self.require_table(name)

    def column(
        self, ref: ast.ColumnRef, scope: dict[str, str]
    ) -> str | None:
        """Validate a column reference; returns its declared type."""
        candidates: list[tuple[str, str]] = []  # (table name, column)
        if ref.table is not None:
            source = scope.get(ref.table)
            if source is None:
                return None
            candidates.append((source, ref.column))
        else:
            candidates.extend(
                (source, ref.column) for source in scope.values()
            )
        hits: list[str | None] = []
        for source, column in candidates:
            if source in self.ctes:
                if column in self.ctes[source]:
                    hits.append(None)  # CTE column: type unknown
                continue
            table = self.catalog.sql_tables.get(source)
            if table is None:
                continue
            spec = table.columns.get(column)
            if spec is not None:
                if spec.concept is not None:
                    self.result.footprint.add(spec.concept)
                hits.append(spec.type)
        if not hits:
            self.out.append(make(
                "QA103", f"unknown column {ref}", self.location,
            ))
            return None
        return hits[0]

    # -- expressions ----------------------------------------------------------

    def expr(self, expr: ast.Expr, scope: dict[str, str]) -> None:
        if isinstance(expr, ast.ColumnRef):
            self.column(expr, scope)
        elif isinstance(expr, ast.BinaryOp):
            if expr.op in _COMPARISONS:
                self.comparison(expr, scope)
            self.expr(expr.left, scope)
            self.expr(expr.right, scope)
        elif isinstance(expr, ast.UnaryOp):
            self.expr(expr.operand, scope)
        elif isinstance(expr, ast.InList):
            self.expr(expr.needle, scope)
            for item in expr.items:
                self.expr(item, scope)
        elif isinstance(expr, ast.IsNull):
            self.expr(expr.operand, scope)
        elif isinstance(expr, ast.FuncCall):
            if expr.name == "shortest_path_len":
                self.shortest_path_len(expr)
                return
            for arg in expr.args:
                self.expr(arg, scope)

    def comparison(self, expr: ast.BinaryOp, scope: dict[str, str]) -> None:
        sides = (expr.left, expr.right)
        for column_side, other in (sides, sides[::-1]):
            if not isinstance(column_side, ast.ColumnRef):
                continue
            declared = self.peek_column_type(column_side, scope)
            if declared is None or not isinstance(other, ast.Literal):
                continue
            value = other.value
            if value is None:
                continue
            actual = (
                "int"
                if isinstance(value, (int, float))
                and not isinstance(value, bool)
                else "str"
            )
            if actual != declared:
                self.out.append(make(
                    "QA201",
                    f"column {column_side} is {declared}, compared "
                    f"with {actual} literal {value!r}",
                    self.location,
                ))
        for side in sides:
            if self.wraps_column(side):
                self.out.append(make(
                    "QA302",
                    "comparison applies an expression to a column; "
                    "no index can serve it"
                    + self.scan_estimate(side, scope),
                    self.location,
                ))

    def scan_estimate(self, expr: ast.Expr, scope: dict[str, str]) -> str:
        """Expected full-scan size for a non-sargable filter's table."""
        ref = self.first_column(expr)
        if ref is None:
            return ""
        sources = (
            [scope.get(ref.table)] if ref.table is not None
            else list(scope.values())
        )
        for source in sources:
            if source is None or source in self.ctes:
                continue
            table = self.catalog.sql_tables.get(source)
            if table is None or ref.column not in table.columns:
                continue
            rows = expected_table_rows(source)
            if rows is not None:
                return (
                    f" (forces a scan of {source}: {format_rows(rows)} "
                    f"rows at SF10)"
                )
        return ""

    def first_column(self, expr: ast.Expr) -> ast.ColumnRef | None:
        if isinstance(expr, ast.ColumnRef):
            return expr
        if isinstance(expr, ast.BinaryOp):
            return self.first_column(expr.left) or self.first_column(
                expr.right
            )
        if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
            return self.first_column(expr.operand)
        if isinstance(expr, ast.InList):
            return self.first_column(expr.needle)
        if isinstance(expr, ast.FuncCall):
            for arg in expr.args:
                found = self.first_column(arg)
                if found is not None:
                    return found
        return None

    def peek_column_type(
        self, ref: ast.ColumnRef, scope: dict[str, str]
    ) -> str | None:
        """Column type without emitting diagnostics (expr() validates)."""
        sources = (
            [scope.get(ref.table)] if ref.table is not None
            else list(scope.values())
        )
        for source in sources:
            if source is None or source in self.ctes:
                continue
            table = self.catalog.sql_tables.get(source)
            if table is not None and ref.column in table.columns:
                return table.columns[ref.column].type
        return None

    def wraps_column(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.FuncCall):
            if expr.name in {"min", "max", "count", "sum", "avg"}:
                return False  # aggregates are not per-row filters
            return any(self.contains_column(arg) for arg in expr.args)
        if isinstance(expr, ast.BinaryOp) and expr.op in _ARITHMETIC:
            return self.contains_column(expr.left) or self.contains_column(
                expr.right
            )
        return False

    def contains_column(self, expr: ast.Expr) -> bool:
        if isinstance(expr, ast.ColumnRef):
            return True
        if isinstance(expr, ast.BinaryOp):
            return self.contains_column(expr.left) or self.contains_column(
                expr.right
            )
        if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
            return self.contains_column(expr.operand)
        if isinstance(expr, ast.InList):
            return self.contains_column(expr.needle)
        if isinstance(expr, ast.FuncCall):
            return any(self.contains_column(arg) for arg in expr.args)
        return False

    def shortest_path_len(self, expr: ast.FuncCall) -> None:
        """Virtuoso's transitivity operator names a table and two
        columns as string literals; resolve them like identifiers."""
        args = expr.args
        if len(args) < 3 or not all(
            isinstance(a, ast.Literal) and isinstance(a.value, str)
            for a in args[:3]
        ):
            return
        table_name = args[0].value
        table = self.require_table(table_name)
        if table is None:
            return
        for arg in args[1:3]:
            if arg.value not in table.columns:
                self.out.append(make(
                    "QA103",
                    f"unknown column {table_name}.{arg.value}",
                    self.location,
                ))
