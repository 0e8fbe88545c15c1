"""Expression nodes, grammar and aggregate state shared by SQL and Cypher.

The ladder is ``or < and < not < comparison < additive <
multiplicative < unary < primary``.  A dialect's parser subclasses
:class:`ExpressionParser` and overrides up to three hooks:
:meth:`~ExpressionParser.comparison_tail`,
:meth:`~ExpressionParser.parameter` and :meth:`~ExpressionParser.name`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.lang.lexing import TokenCursor


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Literal(Expr):
    """A constant.  Equality is by type *and* value — ``1``, ``1.0`` and
    ``true`` compare equal in Python but are different constants, and
    expression nodes key caches of their evaluators."""

    value: Any

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is Literal
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str  # = <> < <= > >= + - * / AND OR
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # NOT, -
    operand: Expr


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # lower-cased: count, min, max, length, id, ...
    args: tuple[Expr, ...]
    star: bool = False  # COUNT(*)
    distinct: bool = False  # COUNT(DISTINCT x)


class Accumulator:
    """Running state of one ``count/sum/min/max/avg/collect`` call.

    Value-fed: the caller evaluates the argument (``count(*)`` feeds a
    constant).  NULLs are skipped; ``DISTINCT`` drops repeats.
    ``error`` is what :meth:`result` raises for an unknown function.
    """

    __slots__ = (
        "func", "error", "count", "total", "minimum", "maximum", "items",
        "seen",
    )

    def __init__(
        self, func: str, distinct: bool, error: type[Exception]
    ) -> None:
        self.func = func
        self.error = error
        self.count = 0
        self.total: Any = None
        self.minimum: Any = None
        self.maximum: Any = None
        self.items: list | None = [] if func == "collect" else None
        self.seen: set | None = set() if distinct else None

    def feed(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.items is not None:
            self.items.append(value)
        self.total = value if self.total is None else self.total + value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def result(self) -> Any:
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "min":
            return self.minimum
        if self.func == "max":
            return self.maximum
        if self.func == "avg":
            return None if not self.count else self.total / self.count
        if self.items is not None:  # collect
            return tuple(self.items)
        raise self.error(f"unknown aggregate {self.func!r}")


_CONSTANTS = {"null": None, "true": True, "false": False}


class ExpressionParser(TokenCursor):
    # -- dialect hooks --------------------------------------------------------

    def comparison_tail(self, left: Expr) -> Expr:
        """What may follow an operand besides ``op`` and ``IS [NOT] NULL``."""
        return left

    def parameter(self) -> Expr | None:
        """The placeholder starting at the current token, if one does."""
        return None

    def name(self, name: str) -> Expr:
        """The node for a bare ``name``; a ``.`` may follow it."""
        raise NotImplementedError

    # -- the ladder ---------------------------------------------------------

    def expression(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.keyword("or"):
            left = BinaryOp("OR", left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.keyword("and"):
            left = BinaryOp("AND", left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.keyword("not"):
            return UnaryOp("NOT", self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.additive()
        if self.check("op"):
            op = str(self.advance().value)
            return BinaryOp(op, left, self.additive())
        if self.keyword("is"):
            negated = self.keyword("not")
            self.expect("keyword", "null")
            return IsNull(left, negated)
        return self.comparison_tail(left)

    def additive(self) -> Expr:
        left = self.multiplicative()
        while True:
            if self.accept("plus"):
                left = BinaryOp("+", left, self.multiplicative())
            elif self.accept("minus"):
                left = BinaryOp("-", left, self.multiplicative())
            else:
                return left

    def multiplicative(self) -> Expr:
        left = self.unary()
        while True:
            if self.accept("star"):
                left = BinaryOp("*", left, self.unary())
            elif self.accept("slash"):
                left = BinaryOp("/", left, self.unary())
            else:
                return left

    def unary(self) -> Expr:
        if self.accept("minus"):
            return UnaryOp("-", self.unary())
        return self.primary()

    def primary(self) -> Expr:
        token = self.current
        kind = token.kind
        if kind == "number" or kind == "string":
            self.advance()
            return Literal(token.value)
        if kind == "ident":
            self.advance()
            if self.accept("lparen"):
                return self.func_call(token.value)
            return self.name(token.value)
        if kind == "lparen":
            self.advance()
            expr = self.expression()
            self.expect("rparen")
            return expr
        if kind == "keyword" and token.value in _CONSTANTS:
            self.advance()
            return Literal(_CONSTANTS[token.value])
        param = self.parameter()
        if param is None:
            raise self.unexpected("unexpected token")
        return param

    def func_call(self, name: str) -> FuncCall:
        lname = name.lower()
        if self.accept("star"):
            self.expect("rparen")
            return FuncCall(lname, (), star=True)
        if self.accept("rparen"):
            return FuncCall(lname, ())
        distinct = self.keyword("distinct")
        args = self.comma_list(self.expression)
        self.expect("rparen")
        return FuncCall(lname, tuple(args), distinct=distinct)
