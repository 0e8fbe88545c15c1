"""Cypher abstract syntax tree.

The dialect-neutral expression nodes are :mod:`repro.lang.expr`'s,
re-exported so ``ast.BinaryOp`` and friends keep resolving here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.expr import (  # noqa: F401  (re-exported)
    BinaryOp,
    Expr,
    FuncCall,
    IsNull,
    Literal,
    UnaryOp,
)

# --- Cypher's own expressions --------------------------------------------------


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class VarRef(Expr):
    name: str


@dataclass(frozen=True)
class PropAccess(Expr):
    var: str
    key: str


# --- patterns ----------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    var: str | None
    labels: tuple[str, ...] = ()
    props: tuple[tuple[str, Expr], ...] = ()


@dataclass(frozen=True)
class RelPattern:
    """One relationship hop: ``-[r:TYPE*min..max {k: v}]->`` etc."""

    var: str | None
    types: tuple[str, ...] = ()
    direction: str = "both"  # out | in | both
    min_hops: int = 1
    max_hops: int = 1  # -1 = unbounded (shortestPath only)
    props: tuple[tuple[str, Expr], ...] = ()

    @property
    def var_length(self) -> bool:
        return self.min_hops != 1 or self.max_hops != 1


@dataclass(frozen=True)
class PathPattern:
    """A chain node-rel-node-...; optionally named / shortestPath."""

    elements: tuple  # NodePattern, RelPattern, NodePattern, ...
    assign_var: str | None = None
    shortest: bool = False

    @property
    def nodes(self) -> list[NodePattern]:
        return list(self.elements[0::2])

    @property
    def rels(self) -> list[RelPattern]:
        return list(self.elements[1::2])


# --- clauses ------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchClause:
    patterns: tuple[PathPattern, ...]
    where: Expr | None = None
    optional: bool = False


@dataclass(frozen=True)
class CreateClause:
    patterns: tuple[PathPattern, ...]


@dataclass(frozen=True)
class SetItem:
    target: PropAccess
    value: Expr


@dataclass(frozen=True)
class SetClause:
    items: tuple[SetItem, ...]


@dataclass(frozen=True)
class ReturnItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class ReturnClause:
    items: tuple[ReturnItem, ...]
    distinct: bool = False
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None


@dataclass(frozen=True)
class Query:
    clauses: tuple = ()  # MatchClause | CreateClause | SetClause
    returns: ReturnClause | None = None
