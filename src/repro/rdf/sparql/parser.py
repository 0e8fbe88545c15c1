"""Lexer + parser for the SPARQL subset.

The scan loop and the token cursor are :mod:`repro.lang.lexing`'s; the
filter AST stays SPARQL's own (terms, not general expressions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.lang.lexing import (
    LexTable,
    ParseError,
    Rule,
    Token,
    TokenCursor,
    number,
    reject,
    scan,
    unterminated,
)

KEYWORDS = {
    "select", "distinct", "where", "filter", "order", "by", "asc", "desc",
    "limit", "as", "count", "in", "and", "or", "not", "true", "false",
}


class SparqlParseError(ParseError):
    pass


# --- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ParamTerm:
    name: str


@dataclass(frozen=True)
class Iri:
    value: str  # prefixed form, e.g. "snb:Person"


@dataclass(frozen=True)
class LiteralTerm:
    value: Any


Term = Var | ParamTerm | Iri | LiteralTerm


@dataclass(frozen=True)
class TriplePattern:
    s: Term
    p: Term
    o: Term


@dataclass(frozen=True)
class Comparison:
    op: str
    left: Term
    right: Term


@dataclass(frozen=True)
class InFilter:
    needle: Term
    items: tuple[Term, ...]
    negated: bool = False


@dataclass(frozen=True)
class BoolOp:
    op: str  # AND | OR
    left: "FilterExpr"
    right: "FilterExpr"


@dataclass(frozen=True)
class NotOp:
    operand: "FilterExpr"


FilterExpr = Comparison | InFilter | BoolOp | NotOp


@dataclass(frozen=True)
class Filter:
    expr: FilterExpr


@dataclass(frozen=True)
class SelectItem:
    var: Var | None  # None => COUNT(*) aggregate
    alias: str | None = None
    count: bool = False
    count_distinct: bool = False


@dataclass(frozen=True)
class OrderItem:
    var: Var
    descending: bool = False


@dataclass(frozen=True)
class SparqlQuery:
    items: tuple[SelectItem, ...]
    star: bool
    patterns: tuple[TriplePattern, ...]
    filters: tuple[Filter, ...]
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None


# --- lexer --------------------------------------------------------------------

_SYMBOLS = {
    "{": "lbrace", "}": "rbrace", "(": "lparen", ")": "rparen",
    ".": "dot", ",": "comma", "*": "star",
    **dict.fromkeys(("=", "!=", "<", "<=", ">", ">="), "op"),
}

_SIGILS = {"?": "var", "$": "param"}
_CONNECTIVES = {"&&": "and", "||": "or", "!": "not"}


_TABLE = LexTable(
    keywords=KEYWORDS,
    symbols=_SYMBOLS,
    comment="#",
    bare_word=reject("bare identifier {!r} (IRIs need a prefix)"),
    rules=(
        Rule(r"[?$]\w+", lambda s: (_SIGILS[s[0]], s[1:])),
        Rule(r"[?$]", reject("dangling {!r}")),
        Rule("'[^']*'|\"[^\"]*\"", lambda s: ("string", s[1:-1])),
        Rule("['\"]", unterminated),
        # a trailing dot is the triple terminator, not a decimal point
        Rule(r"-?\d+(?:\.\d+)?", number),
        Rule(r"[^\W\d]\w*:[\w-]*", lambda s: ("iri", s)),
        Rule(r"&&|\|\||!(?!=)", lambda s: ("keyword", _CONNECTIVES[s])),
    ),
)


def tokenize(text: str) -> list[Token]:
    return scan(text, _TABLE, SparqlParseError)


# --- parser -----------------------------------------------------------------------


def parse(text: str) -> SparqlQuery:
    return _Parser(tokenize(text), SparqlParseError).query()


class _Parser(TokenCursor):
    def query(self) -> SparqlQuery:
        self.expect("keyword", "select")
        distinct = self.keyword("distinct")
        items: list[SelectItem] = []
        star = False
        if self.accept("star"):
            star = True
        else:
            while True:
                if self.check("var"):
                    items.append(SelectItem(Var(self.advance().value)))
                elif self.accept("lparen"):
                    self.expect("keyword", "count")
                    self.expect("lparen")
                    count_distinct = self.keyword("distinct")
                    var = None
                    if self.check("var"):
                        var = Var(self.advance().value)
                    else:
                        self.expect("star")
                    self.expect("rparen")
                    self.expect("keyword", "as")
                    alias = self.expect("var").value
                    self.expect("rparen")
                    items.append(
                        SelectItem(var, alias, True, count_distinct)
                    )
                else:
                    break
        if not star and not items:
            raise SparqlParseError("SELECT needs variables or *")
        self.expect("keyword", "where")
        self.expect("lbrace")
        patterns: list[TriplePattern] = []
        filters: list[Filter] = []
        while not self.check("rbrace"):
            if self.keyword("filter"):
                self.expect("lparen")
                filters.append(Filter(self.filter_expr()))
                self.expect("rparen")
                self.accept("dot")
                continue
            s = self.term()
            p = self.term()
            o = self.term()
            patterns.append(TriplePattern(s, p, o))
            if not self.accept("dot"):
                if not self.check("rbrace") and not self.check(
                    "keyword", "filter"
                ):
                    raise SparqlParseError(
                        f"expected '.' or '}}' at {self.current.pos}"
                    )
        self.expect("rbrace")
        order_by: list[OrderItem] = []
        if self.keyword("order"):
            self.expect("keyword", "by")
            while True:
                if self.keyword("desc"):
                    self.expect("lparen")
                    order_by.append(
                        OrderItem(Var(self.expect("var").value), True)
                    )
                    self.expect("rparen")
                elif self.keyword("asc"):
                    self.expect("lparen")
                    order_by.append(
                        OrderItem(Var(self.expect("var").value), False)
                    )
                    self.expect("rparen")
                elif self.check("var"):
                    order_by.append(OrderItem(Var(self.advance().value)))
                else:
                    break
        limit = None
        if self.keyword("limit"):
            limit = int(self.expect("number").value)
        self.expect("eof")
        return SparqlQuery(
            tuple(items),
            star,
            tuple(patterns),
            tuple(filters),
            distinct,
            tuple(order_by),
            limit,
        )

    def term(self) -> Term:
        if self.check("var"):
            return Var(self.advance().value)
        if self.check("param"):
            return ParamTerm(self.advance().value)
        if self.check("iri"):
            return Iri(self.advance().value)
        if self.check("string") or self.check("number"):
            return LiteralTerm(self.advance().value)
        if self.keyword("true"):
            return LiteralTerm(True)
        if self.keyword("false"):
            return LiteralTerm(False)
        raise self.unexpected("expected a term, got")

    # filter expressions: or < and < not < comparison/in
    def filter_expr(self) -> FilterExpr:
        left = self.filter_and()
        while self.keyword("or"):
            left = BoolOp("OR", left, self.filter_and())
        return left

    def filter_and(self) -> FilterExpr:
        left = self.filter_not()
        while self.keyword("and"):
            left = BoolOp("AND", left, self.filter_not())
        return left

    def filter_not(self) -> FilterExpr:
        if self.keyword("not"):
            return NotOp(self.filter_not())
        if self.accept("lparen"):
            inner = self.filter_expr()
            self.expect("rparen")
            return inner
        return self.filter_comparison()

    def filter_comparison(self) -> FilterExpr:
        left = self.term()
        if self.keyword("in"):
            return InFilter(left, self._in_items())
        if self.keyword("not"):
            self.expect("keyword", "in")
            return InFilter(left, self._in_items(), negated=True)
        op_token = self.expect("op")
        op = "<>" if op_token.value == "!=" else str(op_token.value)
        return Comparison(op, left, self.term())

    def _in_items(self) -> tuple[Term, ...]:
        self.expect("lparen")
        items = self.comma_list(self.term)
        self.expect("rparen")
        return tuple(items)
