"""Recursive-descent parser for the Cypher subset.

Clauses and patterns live here; expressions are the shared ladder of
:class:`repro.lang.expr.ExpressionParser`.
"""

from __future__ import annotations

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.lexer import CypherParseError, tokenize
from repro.lang.expr import ExpressionParser


def parse(text: str) -> ast.Query:
    parser = _Parser(tokenize(text), CypherParseError)
    query = parser.query()
    parser.expect("eof")
    return query


class _Parser(ExpressionParser):
    # -- query structure ----------------------------------------------------

    def query(self) -> ast.Query:
        clauses: list = []
        returns = None
        while True:
            if self.check("keyword", "optional") or self.check(
                "keyword", "match"
            ):
                optional = self.keyword("optional")
                self.expect("keyword", "match")
                patterns = self.pattern_list()
                where = self.expression() if self.keyword("where") else None
                clauses.append(
                    ast.MatchClause(tuple(patterns), where, optional)
                )
            elif self.keyword("create"):
                clauses.append(ast.CreateClause(tuple(self.pattern_list())))
            elif self.keyword("set"):
                clauses.append(self.set_clause())
            elif self.keyword("return"):
                returns = self.return_clause()
                break
            else:
                break
        if not clauses and returns is None:
            raise CypherParseError("empty query")
        return ast.Query(tuple(clauses), returns)

    def set_clause(self) -> ast.SetClause:
        return ast.SetClause(tuple(self.comma_list(self.set_item)))

    def set_item(self) -> ast.SetItem:
        var = self.ident()
        self.expect("dot")
        key = self.ident()
        self.expect("eq")
        return ast.SetItem(ast.PropAccess(var, key), self.expression())

    def return_clause(self) -> ast.ReturnClause:
        distinct = self.keyword("distinct")
        items = self.comma_list(self.return_item)
        order_by: list[ast.OrderItem] = []
        if self.keyword("order"):
            self.expect("keyword", "by")
            order_by = self.comma_list(self.order_item)
        limit = None
        if self.keyword("limit"):
            limit = int(self.expect("number").value)
        return ast.ReturnClause(
            tuple(items), distinct, tuple(order_by), limit
        )

    def return_item(self) -> ast.ReturnItem:
        expr = self.expression()
        alias = None
        if self.keyword("as"):
            alias = self.ident()
        return ast.ReturnItem(expr, alias)

    def order_item(self) -> ast.OrderItem:
        expr = self.expression()
        descending = False
        if self.keyword("desc"):
            descending = True
        else:
            self.keyword("asc")
        return ast.OrderItem(expr, descending)

    # -- patterns ---------------------------------------------------------------

    def pattern_list(self) -> list[ast.PathPattern]:
        return self.comma_list(self.path_pattern)

    def path_pattern(self) -> ast.PathPattern:
        assign_var = None
        # "p = shortestPath((a)-[...]-(b))" or "p = (a)-[...]-(b)"
        if (
            self.check("ident")
            and self._tokens[self._pos + 1].kind == "eq"
        ):
            assign_var = self.ident()
            self.advance()  # eq
        shortest = False
        if self.check("ident") and str(self.current.value).lower() in (
            "shortestpath",
            "allshortestpaths",
        ):
            self.advance()
            shortest = True
            self.expect("lparen")
            elements = self.chain()
            self.expect("rparen")
        else:
            elements = self.chain()
        return ast.PathPattern(tuple(elements), assign_var, shortest)

    def chain(self) -> list:
        elements: list = [self.node_pattern()]
        while self.check("minus") or self.check("arrow_left"):
            elements.append(self.rel_pattern())
            elements.append(self.node_pattern())
        return elements

    def node_pattern(self) -> ast.NodePattern:
        self.expect("lparen")
        var = None
        if self.check("ident"):
            var = self.ident()
        labels: list[str] = []
        while self.accept("colon"):
            labels.append(self.ident())
        props = self.prop_map() if self.check("lbrace") else ()
        self.expect("rparen")
        return ast.NodePattern(var, tuple(labels), props)

    def rel_pattern(self) -> ast.RelPattern:
        if self.accept("arrow_left"):
            incoming = True
        else:
            self.expect("minus")
            incoming = False
        var = None
        types: list[str] = []
        min_hops, max_hops = 1, 1
        props: tuple = ()
        if self.accept("lbracket"):
            if self.check("ident"):
                var = self.ident()
            while self.accept("colon"):
                types.append(self.ident())
            if self.accept("star"):
                min_hops, max_hops = self._hop_range()
            if self.check("lbrace"):
                props = self.prop_map()
            self.expect("rbracket")
        if self.accept("arrow_right"):
            outgoing = True
        else:
            self.expect("minus")
            outgoing = False
        if incoming and outgoing:
            raise CypherParseError("relationship cannot point both ways")
        direction = "in" if incoming else "out" if outgoing else "both"
        return ast.RelPattern(
            var, tuple(types), direction, min_hops, max_hops, props
        )

    def _hop_range(self) -> tuple[int, int]:
        # after '*': [n][..[m]] ; bare '*' means 1..unbounded
        if self.check("number"):
            lo = int(self.advance().value)
            if self.accept("dotdot"):
                if self.check("number"):
                    return lo, int(self.advance().value)
                return lo, -1
            return lo, lo
        if self.accept("dotdot"):
            if self.check("number"):
                return 1, int(self.advance().value)
            return 1, -1
        return 1, -1

    def prop_map(self) -> tuple[tuple[str, ast.Expr], ...]:
        self.expect("lbrace")
        items = (
            [] if self.check("rbrace") else self.comma_list(self.prop_entry)
        )
        self.expect("rbrace")
        return tuple(items)

    def prop_entry(self) -> tuple[str, ast.Expr]:
        key = self.ident()
        self.expect("colon")
        return key, self.expression()

    # -- expression hooks ---------------------------------------------------

    def comparison_tail(self, left: ast.Expr) -> ast.Expr:
        if self.accept("eq"):
            return ast.BinaryOp("=", left, self.additive())
        return left

    def parameter(self) -> ast.Expr | None:
        if self.accept("dollar"):
            return ast.Param(self.ident())
        return None

    def name(self, name: str) -> ast.Expr:
        if self.accept("dot"):
            return ast.PropAccess(name, self.ident())
        return ast.VarRef(name)
