"""Recursive-descent parser producing :mod:`repro.relational.sql.ast` nodes.

Statements and clauses live here; expressions are the shared ladder of
:class:`repro.lang.expr.ExpressionParser`.
"""

from __future__ import annotations

from repro.lang.expr import ExpressionParser
from repro.lang.lexing import Token
from repro.relational.sql import ast
from repro.relational.sql.lexer import SqlParseError, tokenize


def parse(text: str) -> ast.Statement:
    """Parse a single SQL statement."""
    parser = _Parser(tokenize(text))
    stmt = parser.statement()
    parser.accept("semicolon")
    parser.expect("eof")
    return stmt


class _Parser(ExpressionParser):
    def __init__(self, tokens: list[Token]) -> None:
        super().__init__(tokens, SqlParseError)
        self._param_count = 0

    def expect_keyword(self, word: str) -> None:
        self.expect("keyword", word)

    # -- statements -------------------------------------------------------------

    def statement(self) -> ast.Statement:
        if self.check("keyword", "select"):
            return self.select()
        if self.check("keyword", "with"):
            return self.recursive_cte()
        if self.keyword("insert"):
            return self.insert()
        if self.keyword("update"):
            return self.update()
        if self.keyword("delete"):
            return self.delete()
        if self.keyword("analyze"):
            table = self.ident() if self.check("ident") else None
            return ast.Analyze(table)
        if self.keyword("create"):
            if self.keyword("table"):
                return self.create_table()
            if self.keyword("index"):
                return self.create_index()
            raise SqlParseError("expected TABLE or INDEX after CREATE")
        raise self.unexpected("cannot parse statement starting with")

    def select(self) -> ast.Select:
        self.expect_keyword("select")
        distinct = self.keyword("distinct")
        items = self.comma_list(self.select_item)

        from_table = None
        joins: list[ast.Join] = []
        if self.keyword("from"):
            from_table = self.table_ref()
            while True:
                if self.check("keyword", "join") or self.check(
                    "keyword", "inner"
                ):
                    self.keyword("inner")
                    self.expect_keyword("join")
                    kind = "inner"
                elif self.check("keyword", "left"):
                    self.advance()
                    self.keyword("outer")
                    self.expect_keyword("join")
                    kind = "left"
                else:
                    break
                table = self.table_ref()
                self.expect_keyword("on")
                condition = self.expression()
                joins.append(ast.Join(table, condition, kind))

        where = self.expression() if self.keyword("where") else None

        group_by: list[ast.Expr] = []
        if self.keyword("group"):
            self.expect_keyword("by")
            group_by = self.comma_list(self.expression)

        order_by: list[ast.OrderItem] = []
        if self.keyword("order"):
            self.expect_keyword("by")
            order_by = self.comma_list(self.order_item)

        limit = None
        if self.keyword("limit"):
            limit = int(self.expect("number").value)

        return ast.Select(
            items=tuple(items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def recursive_cte(self) -> ast.RecursiveCTE:
        self.expect_keyword("with")
        self.expect_keyword("recursive")
        name = self.ident()
        self.expect("lparen")
        columns = self.comma_list(self.ident)
        self.expect("rparen")
        self.expect_keyword("as")
        self.expect("lparen")
        base = self.select()
        self.expect_keyword("union")
        distinct = not self.keyword("all")
        step = self.select()
        self.expect("rparen")
        body = self.select()
        return ast.RecursiveCTE(
            name, tuple(columns), base, step, body, distinct
        )

    def insert(self) -> ast.Insert:
        self.expect_keyword("into")
        table = self.ident()
        self.expect_keyword("values")
        self.expect("lparen")
        values = self.comma_list(self.expression)
        self.expect("rparen")
        return ast.Insert(table, tuple(values))

    def update(self) -> ast.Update:
        table = self.ident()
        self.expect_keyword("set")
        assignments = self.comma_list(self.assignment)
        where = self.expression() if self.keyword("where") else None
        return ast.Update(table, tuple(assignments), where)

    def assignment(self) -> tuple[str, ast.Expr]:
        column = self.ident()
        self.expect("op", "=")
        return column, self.expression()

    def delete(self) -> ast.Delete:
        self.expect_keyword("from")
        table = self.ident()
        where = self.expression() if self.keyword("where") else None
        return ast.Delete(table, where)

    def create_table(self) -> ast.CreateTable:
        name = self.ident()
        self.expect("lparen")
        columns = self.comma_list(self.column_def)
        self.expect("rparen")
        return ast.CreateTable(name, tuple(columns))

    def column_def(self) -> ast.ColumnDef:
        name = self.ident()
        type_name = str(self.expect("ident").value).lower()
        primary = False
        if self.keyword("primary"):
            self.expect_keyword("key")
            primary = True
        return ast.ColumnDef(name, type_name, primary)

    def create_index(self) -> ast.CreateIndex:
        index_name = None
        if self.check("ident"):
            index_name = self.ident()
        self.expect_keyword("on")
        table = self.ident()
        self.expect("lparen")
        column = self.ident()
        self.expect("rparen")
        method = "btree"
        if self.keyword("using"):
            method = self.ident().lower()
            if method not in ("btree", "hash"):
                raise SqlParseError(f"unknown index method {method!r}")
        return ast.CreateIndex(table, column, index_name, method)

    # -- select helpers ---------------------------------------------------------

    def select_item(self) -> ast.SelectItem:
        if self.check("star"):
            self.advance()
            return ast.SelectItem(ast.ColumnRef(None, "*"))
        expr = self.expression()
        alias = None
        if self.keyword("as"):
            alias = self.ident()
        elif self.check("ident"):
            alias = self.ident()
        return ast.SelectItem(expr, alias)

    def table_ref(self) -> ast.TableRef:
        name = self.ident()
        alias = None
        if self.keyword("as"):
            alias = self.ident()
        elif self.check("ident"):
            alias = self.ident()
        return ast.TableRef(name, alias)

    def order_item(self) -> ast.OrderItem:
        expr = self.expression()
        descending = False
        if self.keyword("desc"):
            descending = True
        else:
            self.keyword("asc")
        return ast.OrderItem(expr, descending)

    # -- expression hooks ---------------------------------------------------

    def comparison_tail(self, left: ast.Expr) -> ast.Expr:
        if self.keyword("in"):
            return self.in_list(left, negated=False)
        if self.keyword("not"):
            self.expect_keyword("in")
            return self.in_list(left, negated=True)
        return left

    def in_list(self, needle: ast.Expr, negated: bool) -> ast.InList:
        self.expect("lparen")
        items = self.comma_list(self.expression)
        self.expect("rparen")
        return ast.InList(needle, tuple(items), negated)

    def parameter(self) -> ast.Expr | None:
        if not self.accept("param"):
            return None
        self._param_count += 1
        return ast.Param(self._param_count - 1)

    def name(self, name: str) -> ast.Expr:
        if self.accept("dot"):
            if self.accept("star"):
                return ast.ColumnRef(name, "*")
            return ast.ColumnRef(name, self.ident())
        return ast.ColumnRef(None, name)
