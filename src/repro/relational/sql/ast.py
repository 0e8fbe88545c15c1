"""Abstract syntax tree for the supported SQL dialect.

Supported statements::

    CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
    CREATE INDEX [name] ON t (col) [USING HASH|BTREE]
    INSERT INTO t VALUES (expr, ...)
    UPDATE t SET col = expr, ... [WHERE pred]
    DELETE FROM t [WHERE pred]
    SELECT [DISTINCT] exprs FROM t [alias]
        [ [LEFT] JOIN t2 [alias] ON pred ]...
        [WHERE pred] [GROUP BY cols] [ORDER BY expr [ASC|DESC], ...]
        [LIMIT n]
    WITH RECURSIVE name (cols) AS (base UNION ALL step) SELECT ...

Expressions: qualified column refs, literals, parameters (``?``),
comparison / arithmetic / boolean operators, ``IN (list)``, ``IS [NOT]
NULL``, and function calls (aggregates plus engine built-ins such as
``shortest_path_len``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.expr import (  # noqa: F401  (re-exported)
    BinaryOp,
    Expr,
    FuncCall,
    IsNull,
    Literal,
    UnaryOp,
)

# --- SQL's own expressions (the dialect-neutral ones are repro.lang.expr's) ---


@dataclass(frozen=True)
class Param(Expr):
    """A positional ``?`` placeholder."""

    index: int


@dataclass(frozen=True)
class ColumnRef(Expr):
    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class InList(Expr):
    needle: Expr
    items: tuple[Expr, ...]
    negated: bool = False


# --- select machinery ---------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    table: TableRef
    condition: Expr
    kind: str = "inner"  # inner | left


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    from_table: TableRef | None
    joins: tuple[Join, ...] = ()
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    distinct: bool = False


@dataclass(frozen=True)
class RecursiveCTE:
    """``WITH RECURSIVE name (cols) AS (base UNION [ALL] step) body``.

    ``distinct`` is true for plain ``UNION``, which deduplicates rows
    globally — the form that terminates on cyclic graphs (PostgreSQL
    semantics).
    """

    name: str
    columns: tuple[str, ...]
    base: Select
    step: Select
    body: Select
    distinct: bool = False


# --- DML / DDL ------------------------------------------------------------------------


@dataclass(frozen=True)
class Insert:
    table: str
    values: tuple[Expr, ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Expr | None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # INT | BIGINT | FLOAT | TEXT | VARCHAR | BOOL | TIMESTAMP
    primary_key: bool = False


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class CreateIndex:
    table: str
    column: str
    name: str | None = None
    method: str = "btree"  # btree | hash


@dataclass(frozen=True)
class Analyze:
    """``ANALYZE [table]`` — refresh planner statistics."""

    table: str | None = None


Statement = (
    Select
    | RecursiveCTE
    | Insert
    | Update
    | Delete
    | CreateTable
    | CreateIndex
    | Analyze
)
