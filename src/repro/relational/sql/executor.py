"""Physical operators and expression compilation (iterator model).

Rows are plain tuples.  A :class:`Schema` maps ``binding.column`` names to
tuple positions; expressions compile to closures over ``(row, params)``.

NULL semantics are simplified two-valued logic: comparisons involving NULL
are false, arithmetic with NULL yields NULL, ``IS [NOT] NULL`` behaves as
in SQL.  This is documented engine behaviour and consistent across every
connector, so it does not distort cross-system comparisons.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice
from typing import Any

from repro.lang.expr import Accumulator
from repro.simclock.ledger import charge
from repro.relational.sql import ast
from repro.relational.table import Table


class SqlRuntimeError(Exception):
    pass


class ExecContext:
    """Per-execution state: statement parameters."""

    __slots__ = ("params",)

    def __init__(self, params: Sequence[Any] = ()) -> None:
        self.params = tuple(params)


class Schema:
    """Ordered (binding, column) pairs describing operator output rows."""

    def __init__(self, columns: Sequence[tuple[str | None, str]]) -> None:
        self.columns = list(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def resolve(self, table: str | None, column: str) -> int:
        matches = [
            i
            for i, (binding, name) in enumerate(self.columns)
            if name == column and (table is None or binding == table)
        ]
        if not matches:
            target = f"{table}.{column}" if table else column
            raise SqlRuntimeError(f"unknown column {target!r}")
        if len(matches) > 1:
            target = f"{table}.{column}" if table else column
            raise SqlRuntimeError(f"ambiguous column {target!r}")
        return matches[0]

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self.columns + other.columns)

    def names(self) -> list[str]:
        return [name for _, name in self.columns]

    @staticmethod
    def for_table(table: Table, binding: str) -> "Schema":
        return Schema([(binding, c) for c in table.column_names])


ExprFn = Callable[[tuple, tuple], Any]


def compile_expr(
    expr: ast.Expr,
    schema: Schema,
    funcs: dict[str, Callable[..., Any]] | None = None,
) -> ExprFn:
    """Compile an expression into ``fn(row, params) -> value``.

    ``funcs`` maps scalar built-in names (e.g. the Virtuoso-like engine's
    ``shortest_path_len``) to Python callables receiving evaluated
    arguments.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, ast.Param):
        index = expr.index
        return lambda row, params: params[index]
    if isinstance(expr, ast.ColumnRef):
        pos = schema.resolve(expr.table, expr.column)
        return lambda row, params: row[pos]
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, schema, funcs)
        if expr.op == "NOT":
            return lambda row, params: not operand(row, params)
        if expr.op == "-":
            return lambda row, params: _negate(operand(row, params))
        raise SqlRuntimeError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, schema, funcs)
    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, schema, funcs)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    if isinstance(expr, ast.InList):
        needle = compile_expr(expr.needle, schema, funcs)
        items = [compile_expr(e, schema, funcs) for e in expr.items]
        negated = expr.negated

        def run_in(row: tuple, params: tuple) -> bool:
            value = needle(row, params)
            if value is None:
                return False
            found = any(value == item(row, params) for item in items)
            return not found if negated else found

        return run_in
    if isinstance(expr, ast.FuncCall):
        if funcs is not None and expr.name in funcs:
            fn = funcs[expr.name]
            arg_fns = [compile_expr(a, schema, funcs) for a in expr.args]
            return lambda row, params: fn(
                *(arg(row, params) for arg in arg_fns)
            )
        raise SqlRuntimeError(
            f"function {expr.name!r} is not valid in this context"
        )
    raise SqlRuntimeError(f"cannot compile expression {expr!r}")


def _negate(value: Any) -> Any:
    return None if value is None else -value


def _compile_binary(
    expr: ast.BinaryOp,
    schema: Schema,
    funcs: dict[str, Callable[..., Any]] | None = None,
) -> ExprFn:
    left = compile_expr(expr.left, schema, funcs)
    right = compile_expr(expr.right, schema, funcs)
    op = expr.op
    if op == "AND":
        return lambda row, params: bool(left(row, params)) and bool(
            right(row, params)
        )
    if op == "OR":
        return lambda row, params: bool(left(row, params)) or bool(
            right(row, params)
        )

    def compare(fn: Callable[[Any, Any], Any]) -> ExprFn:
        def run(row: tuple, params: tuple) -> Any:
            lv, rv = left(row, params), right(row, params)
            if lv is None or rv is None:
                return False
            return fn(lv, rv)

        return run

    def arith(fn: Callable[[Any, Any], Any]) -> ExprFn:
        def run(row: tuple, params: tuple) -> Any:
            lv, rv = left(row, params), right(row, params)
            if lv is None or rv is None:
                return None
            return fn(lv, rv)

        return run

    table = {
        "=": compare(lambda a, b: a == b),
        "<>": compare(lambda a, b: a != b),
        "<": compare(lambda a, b: a < b),
        "<=": compare(lambda a, b: a <= b),
        ">": compare(lambda a, b: a > b),
        ">=": compare(lambda a, b: a >= b),
        "+": arith(lambda a, b: a + b),
        "-": arith(lambda a, b: a - b),
        "*": arith(lambda a, b: a * b),
        "/": arith(lambda a, b: a / b),
    }
    try:
        return table[op]
    except KeyError:
        raise SqlRuntimeError(f"unknown operator {op!r}") from None


# --- physical operators ---------------------------------------------------------


class PlanNode:
    """Base class: every operator exposes a schema and a row iterator."""

    schema: Schema
    #: estimated output rows, annotated by the planner's cost pass
    est_rows: float | None = None
    #: on a plan's root: each ``(table, len(table))`` the planner fell
    #: back on for want of ANALYZE statistics — the plan (join order,
    #: every ``est_rows``, hence compiled batch sizes) is a function of
    #: these, so a remembered plan equals a fresh one while they hold
    live_rows: tuple[tuple[Any, int], ...] = ()

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        line = "  " * depth + self._describe()
        if self.est_rows is not None:
            line += f"  [est_rows={self.est_rows:.0f}]"
        lines = [line]
        for child in self._children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return type(self).__name__

    def _children(self) -> list["PlanNode"]:
        return []


class SingleRow(PlanNode):
    """FROM-less SELECT: one empty row."""

    def __init__(self) -> None:
        self.schema = Schema([])

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        yield ()


class SeqScan(PlanNode):
    def __init__(self, table: Table, binding: str) -> None:
        self.table = table
        self.binding = binding
        self.schema = Schema.for_table(table, binding)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        for _handle, row in self.table.scan():
            charge("tuple_cpu")
            yield row

    def _describe(self) -> str:
        return f"SeqScan({self.table.name} as {self.binding})"


class IndexEqScan(PlanNode):
    """Index lookup with a key known at runtime (constant or parameter)."""

    def __init__(
        self,
        table: Table,
        binding: str,
        column: str,
        key_fn: ExprFn,
        needed: list[str] | None = None,
    ) -> None:
        self.table = table
        self.binding = binding
        self.column = column
        self.key_fn = key_fn
        self.needed = needed
        self.schema = Schema.for_table(table, binding)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        key = self.key_fn((), ctx.params)
        handles = self.table.lookup(self.column, key)
        for row in self.table.fetch_batch(handles, self.needed):
            charge("tuple_cpu")
            yield row

    def _describe(self) -> str:
        return (
            f"IndexEqScan({self.table.name} as {self.binding} "
            f"on {self.column})"
        )


class Filter(PlanNode):
    #: planner-estimated fraction of child rows surviving the predicate
    #: (None -> the System R range default during annotation)
    selectivity: float | None = None

    def __init__(self, child: PlanNode, predicate: ExprFn) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        predicate = self.predicate
        for row in self.child.rows(ctx):
            charge("tuple_cpu")
            if predicate(row, ctx.params):
                yield row

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Project(PlanNode):
    def __init__(
        self, child: PlanNode, exprs: list[ExprFn], names: list[str]
    ) -> None:
        self.child = child
        self.exprs = exprs
        self.schema = Schema([(None, n) for n in names])

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        params = ctx.params
        for row in self.child.rows(ctx):
            charge("tuple_cpu")
            yield tuple(fn(row, params) for fn in self.exprs)

    def _children(self) -> list[PlanNode]:
        return [self.child]


class IndexNLJoin(PlanNode):
    """For each outer row, probe the inner table's index (``needed``:
    the inner columns a batch fetch reads, None for all)."""

    def __init__(
        self,
        outer: PlanNode,
        table: Table,
        binding: str,
        inner_column: str,
        outer_key_fn: ExprFn,
        kind: str = "inner",
        residual: ExprFn | None = None,
        needed: list[str] | None = None,
    ) -> None:
        self.outer = outer
        self.table = table
        self.binding = binding
        self.inner_column = inner_column
        self.outer_key_fn = outer_key_fn
        self.kind = kind
        self.residual = residual
        self.needed = needed
        self.schema = outer.schema.concat(Schema.for_table(table, binding))
        self.null_row = (None,) * len(table.column_names)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        params = ctx.params
        for outer_row in self.outer.rows(ctx):
            yield from stitch(
                outer_row,
                self._fetched(self.outer_key_fn(outer_row, params)),
                self.residual,
                self.kind,
                self.null_row,
                params,
            )

    def _fetched(self, key: Any) -> Iterator[tuple]:
        """The inner rows under ``key``, each fetched and charged only
        when the join pulls it (a LIMIT above stops the fetches)."""
        if key is not None:
            for handle in self.table.lookup(self.inner_column, key):
                charge("tuple_cpu")
                yield self.table.fetch(handle)

    def _describe(self) -> str:
        return (
            f"{type(self).__name__}[{self.kind}]({self.table.name} as "
            f"{self.binding} on {self.inner_column})"
        )

    def _children(self) -> list[PlanNode]:
        return [self.outer]


class VectorizedIndexNLJoin(IndexNLJoin):
    """Index nested-loop join with vectorized inner fetches.

    Used when the inner table is columnar (the Virtuoso engine): the outer
    input is drained, all matching inner handles are collected, and the
    needed columns are fetched in one batch per column — amortizing
    positional access, at the price of a per-batch setup cost.
    """

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        params = ctx.params
        outer_rows = list(self.outer.rows(ctx))
        per_outer: list[list] = []
        all_handles: list = []
        for outer_row in outer_rows:
            key = self.outer_key_fn(outer_row, params)
            handles = (
                self.table.lookup(self.inner_column, key)
                if key is not None
                else []
            )
            per_outer.append(handles)
            all_handles.extend(handles)
        fetched = self.table.fetch_batch(all_handles, self.needed)
        charge("tuple_vec", len(fetched))
        inner = iter(fetched)
        for outer_row, handles in zip(outer_rows, per_outer):
            yield from stitch(
                outer_row,
                islice(inner, len(handles)),
                self.residual,
                self.kind,
                self.null_row,
                params,
            )


class HashJoin(PlanNode):
    """Build on the right input, probe from the left."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        left_key_fn: ExprFn,
        right_key_fn: ExprFn,
        kind: str = "inner",
        residual: ExprFn | None = None,
    ) -> None:
        self.left = left
        self.right = right
        self.left_key_fn = left_key_fn
        self.right_key_fn = right_key_fn
        self.kind = kind
        self.residual = residual
        self.schema = left.schema.concat(right.schema)
        self.null_row = (None,) * len(right.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        params = ctx.params
        build = hash_build(
            _charged(self.right.rows(ctx)), self.right_key_fn, params
        )
        for left_row in self.left.rows(ctx):
            charge("hash_probe")
            key = self.left_key_fn(left_row, params)
            yield from stitch(
                left_row,
                _charged(build.get(key, ())),
                self.residual,
                self.kind,
                self.null_row,
                params,
            )

    def _children(self) -> list[PlanNode]:
        return [self.left, self.right]


class NLJoin(PlanNode):
    """Nested-loop fallback for non-equality conditions."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        predicate: ExprFn | None,
        kind: str = "inner",
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.predicate = predicate
        self.kind = kind
        self.schema = outer.schema.concat(inner.schema)
        self.null_row = (None,) * len(inner.schema)

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        params = ctx.params
        inner_rows = list(self.inner.rows(ctx))
        for outer_row in self.outer.rows(ctx):
            yield from stitch(
                outer_row,
                _charged(inner_rows),
                self.predicate,
                self.kind,
                self.null_row,
                params,
            )

    def _children(self) -> list[PlanNode]:
        return [self.outer, self.inner]


class Aggregate(PlanNode):
    """Hash aggregation.

    ``group_fns`` compute the grouping key; ``agg_specs`` are
    ``(func_name, arg_fn or None, distinct)`` tuples.  Output rows are
    group values followed by aggregate values.
    """

    def __init__(
        self,
        child: PlanNode,
        group_fns: list[ExprFn],
        agg_specs: list[tuple[str, ExprFn | None, bool]],
        out_names: list[str],
    ) -> None:
        self.child = child
        self.group_fns = group_fns
        self.agg_specs = agg_specs
        self.schema = Schema([(None, n) for n in out_names])

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        yield from aggregate(
            _charged(self.child.rows(ctx)),
            self.group_fns,
            self.agg_specs,
            ctx.params,
        )

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Sort(PlanNode):
    def __init__(
        self,
        child: PlanNode,
        key_fns: list[ExprFn],
        descending: list[bool],
    ) -> None:
        self.child = child
        self.key_fns = key_fns
        self.descending = descending
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        params = ctx.params
        materialized = list(self.child.rows(ctx))
        charge("tuple_cpu", len(materialized))
        multi_key_sort(materialized, self.key_fns, self.descending, params)
        yield from materialized

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Limit(PlanNode):
    def __init__(self, child: PlanNode, limit: int) -> None:
        self.child = child
        self.limit = limit
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        if self.limit <= 0:
            return
        emitted = 0
        for row in self.child.rows(ctx):
            yield row
            emitted += 1
            if emitted >= self.limit:
                return

    def _children(self) -> list[PlanNode]:
        return [self.child]


class Distinct(PlanNode):
    def __init__(self, child: PlanNode) -> None:
        self.child = child
        self.schema = child.schema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in self.child.rows(ctx):
            charge("hash_probe")
            if row not in seen:
                seen.add(row)
                yield row

    def _children(self) -> list[PlanNode]:
        return [self.child]


class RowsHolder:
    """A mutable container of rows shared by materialized scans."""

    __slots__ = ("rows",)

    def __init__(self) -> None:
        self.rows: list[tuple] = []


class MaterializedScan(PlanNode):
    """Scan over a shared in-memory row list (recursive CTE tables)."""

    def __init__(
        self, holder: RowsHolder, binding: str, columns: Sequence[str]
    ) -> None:
        self.holder = holder
        self.binding = binding
        self.schema = Schema([(binding, c) for c in columns])

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        for row in self.holder.rows:
            charge("tuple_cpu")
            yield row

    def _describe(self) -> str:
        return f"MaterializedScan({self.binding})"


# --- charge-free operator definitions, shared with exec/kernels.py ----------
#
# Each physical operator means the same under both execution modes; only
# the price differs.  The interpreted operators above and the vectorized
# kernels wrap these definitions in their own charges: per candidate /
# per row (``tuple_cpu``) here, per batch (``vector_setup`` +
# ``tuple_vec``) there.


def stitch(
    row: tuple,
    candidates: Iterable[tuple],
    residual: ExprFn | None,
    kind: str,
    null_row: tuple,
    params: tuple,
) -> Iterator[tuple]:
    """Join one outer ``row`` with its candidate inner rows.

    Yields ``row`` extended by each candidate that passes ``residual``
    (every one when it is None) and, for a ``"left"`` join where none
    does, ``row`` padded with ``null_row``.  Lazy: candidates are pulled
    one at a time, so a generator of them can charge and fetch per
    candidate and stop when the consumer does.
    """
    matched = False
    for candidate in candidates:
        combined = row + candidate
        if residual is None or residual(combined, params):
            matched = True
            yield combined
    if not matched and kind == "left":
        yield row + null_row


def hash_build(
    rows: Iterable[tuple], key_fn: ExprFn, params: tuple
) -> dict[Any, list[tuple]]:
    """A hash join's build side: rows by key, NULL keys dropped."""
    build: dict[Any, list[tuple]] = {}
    for row in rows:
        key = key_fn(row, params)
        if key is not None:
            build.setdefault(key, []).append(row)
    return build


def aggregate(
    rows: Iterable[tuple],
    group_fns: Sequence[ExprFn],
    agg_specs: Sequence[tuple[str, ExprFn | None, bool]],
    params: tuple,
) -> list[tuple]:
    """Hash aggregation: one row per group in first-seen order, group
    values then aggregate values.  A global aggregate (no group keys)
    over no rows still yields one row."""
    groups: dict[tuple, list[Accumulator]] = {}
    for row in rows:
        key = tuple(fn(row, params) for fn in group_fns)
        states = groups.get(key)
        if states is None:
            states = groups[key] = _accumulators(agg_specs)
        for state, (_, arg_fn, _) in zip(states, agg_specs):
            state.feed(arg_fn(row, params) if arg_fn is not None else 1)
    if not groups and not group_fns:
        groups[()] = _accumulators(agg_specs)
    return [
        key + tuple(state.result() for state in states)
        for key, states in groups.items()
    ]


def _accumulators(
    agg_specs: Sequence[tuple[str, ExprFn | None, bool]],
) -> list[Accumulator]:
    return [
        Accumulator(name, distinct, SqlRuntimeError)
        for name, _, distinct in agg_specs
    ]


def multi_key_sort(
    rows: list[tuple],
    key_fns: Sequence[ExprFn],
    descending: Sequence[bool],
    params: tuple,
) -> None:
    """Stable multi-key sort in place: one pass per key, right to left,
    NULLs first."""
    for key_fn, desc in reversed(list(zip(key_fns, descending))):
        rows.sort(
            key=lambda row: _null_first(key_fn(row, params)), reverse=desc
        )


def _null_first(value: Any) -> tuple:
    # bool < int comparisons are fine; strings never mix with numbers in a
    # single column, so tagging by NULL-ness suffices
    return (value is not None, value)


def _charged(rows: Iterable[tuple]) -> Iterator[tuple]:
    """``rows``, charging the interpreter's ``tuple_cpu`` as each is
    pulled."""
    for row in rows:
        charge("tuple_cpu")
        yield row
