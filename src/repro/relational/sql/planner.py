"""Rule-based planner: AST -> physical plan.

Access-path rules (deliberately simple, in the spirit of the paper's
"indexes only on vertex IDs" setup):

* equality predicate on an indexed column of the base table -> IndexEqScan
* join with an equality onto an indexed inner column -> IndexNLJoin
* other equality joins -> HashJoin; anything else -> NLJoin
* single-binding WHERE conjuncts are pushed below joins

Join order: when statistics are available (``ANALYZE``) and every join is
an inner equi-join over base tables, the planner reorders greedily —
start from the relation with the smallest estimated filtered
cardinality, then repeatedly attach the relation whose System R join
estimate is smallest.  Ties (and statistics-free planning) preserve the
textual order of the FROM clause, so plans stay deterministic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import replace
from typing import Any

from repro.relational.catalog import Catalog
from repro.relational.sql import ast
from repro.relational.sql.executor import (
    Aggregate,
    Distinct,
    ExecContext,
    ExprFn,
    Filter,
    HashJoin,
    IndexEqScan,
    IndexNLJoin,
    Limit,
    MaterializedScan,
    NLJoin,
    PlanNode,
    VectorizedIndexNLJoin,
    Project,
    RowsHolder,
    Schema,
    SeqScan,
    SingleRow,
    Sort,
    SqlRuntimeError,
    compile_expr,
)
from repro.simclock.ledger import charge
from repro.stats import ColumnStats, Selectivity, SqlStatistics
from repro.stats.selectivity import DEFAULT_ROWS, RANGE_SELECTIVITY

AGGREGATE_FUNCS = {"count", "sum", "min", "max", "avg"}

_RANGE_OPS = {"<", "<=", ">", ">="}

MAX_RECURSION_ITERATIONS = 256
MAX_RECURSION_ROWS = 2_000_000


class PlanError(Exception):
    pass


def _conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _column_refs(expr: ast.Expr) -> list[ast.ColumnRef]:
    refs: list[ast.ColumnRef] = []

    def walk(node: ast.Expr) -> None:
        if isinstance(node, ast.ColumnRef):
            refs.append(node)
        elif isinstance(node, ast.BinaryOp):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.IsNull):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            walk(node.needle)
            for item in node.items:
                walk(item)
        elif isinstance(node, ast.FuncCall):
            for arg in node.args:
                walk(arg)

    walk(expr)
    return refs


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FuncCall):
        if expr.name in AGGREGATE_FUNCS:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.InList):
        return _contains_aggregate(expr.needle) or any(
            _contains_aggregate(i) for i in expr.items
        )
    return False


def _resolvable(expr: ast.Expr, schema: Schema) -> bool:
    try:
        for ref in _column_refs(expr):
            schema.resolve(ref.table, ref.column)
        return True
    except SqlRuntimeError:
        return False


def _is_constant(expr: ast.Expr) -> bool:
    """True when the expression references no columns."""
    return not _column_refs(expr)


def _select_exprs(select: ast.Select) -> Iterator[ast.Expr]:
    for item in select.items:
        yield item.expr
    if select.where is not None:
        yield select.where
    for join in select.joins:
        yield join.condition
    for expr in select.group_by:
        yield expr
    for order in select.order_by:
        yield order.expr


def _needed_columns(select: ast.Select, binding: str, table: Any) -> list[str]:
    """Columns of ``binding`` the query references (projection pushdown).

    ``*`` (bare or qualified to this binding) means every column.
    """
    needed: set[str] = set()
    for expr in _select_exprs(select):
        for ref in _column_refs(expr):
            if ref.column == "*":
                if ref.table in (None, binding):
                    return list(table.column_names)
                continue
            if ref.table == binding or (
                ref.table is None and ref.column in table.column_names
            ):
                needed.add(ref.column)
    return [c for c in table.column_names if c in needed]


class _CTEBinding:
    """A named transient relation available during CTE planning."""

    def __init__(self, columns: tuple[str, ...], holder: RowsHolder) -> None:
        self.columns = columns
        self.holder = holder


class Planner:
    def __init__(
        self,
        catalog: Catalog,
        funcs: dict[str, Callable[..., Any]] | None = None,
        stats: SqlStatistics | None = None,
    ) -> None:
        self.catalog = catalog
        self.funcs = funcs or {}
        self.stats = stats
        self.reorder_enabled = True
        #: table -> live ``len(table)`` consulted by the plan in progress
        self._live_rows: dict[Any, int] = {}

    # -- entry points --------------------------------------------------------

    def plan(self, stmt: ast.Select | ast.RecursiveCTE) -> PlanNode:
        charge("sql_plan")
        self._live_rows = {}
        if isinstance(stmt, ast.Select):
            plan = self.plan_select(stmt)
        elif isinstance(stmt, ast.RecursiveCTE):
            plan = self.plan_recursive(stmt)
        else:
            raise PlanError(f"cannot plan {type(stmt).__name__}")
        self._annotate(plan)
        plan.live_rows = tuple(self._live_rows.items())
        return plan

    # -- scans -----------------------------------------------------------------

    def _base_plan(
        self,
        ref: ast.TableRef,
        pending: list[ast.Expr],
        ctes: dict[str, _CTEBinding],
        select: ast.Select,
    ) -> PlanNode:
        binding = ref.binding
        if ref.name in ctes:
            cte = ctes[ref.name]
            return MaterializedScan(cte.holder, binding, cte.columns)
        table = self.catalog.table(ref.name)
        needed = (
            _needed_columns(select, binding, table)
            if table.storage == "column"
            else None
        )
        # look for an index-usable equality conjunct on this binding
        for i, conjunct in enumerate(pending):
            candidate = self._index_eq_candidate(conjunct, binding, table)
            if candidate is not None:
                column, key_expr = candidate
                key_fn = compile_expr(key_expr, Schema([]), self.funcs)
                pending.pop(i)
                return IndexEqScan(table, binding, column, key_fn, needed)
        return SeqScan(table, binding)

    def _index_eq_candidate(
        self, conjunct: ast.Expr, binding: str, table: Any
    ) -> tuple[str, ast.Expr] | None:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        for col_side, key_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(col_side, ast.ColumnRef)
                and (col_side.table in (None, binding))
                and col_side.column in table.column_names
                and table.has_index(col_side.column)
                and _is_constant(key_side)
            ):
                return col_side.column, key_side
        return None

    # -- select ------------------------------------------------------------------

    def plan_select(
        self,
        select: ast.Select,
        ctes: dict[str, _CTEBinding] | None = None,
    ) -> PlanNode:
        ctes = ctes or {}
        select = self._maybe_reorder(select, ctes)
        pending = _conjuncts(select.where)

        if select.from_table is None:
            plan: PlanNode = SingleRow()
        else:
            plan = self._base_plan(select.from_table, pending, ctes, select)

        plan = self._apply_resolvable(plan, pending)

        for join in select.joins:
            plan = self._plan_join(plan, join, pending, ctes, select)
            plan = self._apply_resolvable(plan, pending)

        if pending:
            raise PlanError(
                f"unresolvable WHERE predicates: {pending!r}"
            )

        has_aggregates = any(
            _contains_aggregate(item.expr) for item in select.items
        )
        if has_aggregates or select.group_by:
            plan, out_schema = self._plan_aggregate(plan, select)
            plan = self._finish(plan, select, projected=True)
            return plan

        # plain projection
        exprs: list[ExprFn] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, ast.ColumnRef) and item.expr.column == "*":
                star_binding = item.expr.table
                for pos, (binding, column) in enumerate(plan.schema.columns):
                    if star_binding is None or binding == star_binding:
                        exprs.append(
                            (lambda p: lambda row, params: row[p])(pos)
                        )
                        names.append(column)
                continue
            exprs.append(compile_expr(item.expr, plan.schema, self.funcs))
            names.append(item.alias or _default_name(item.expr, len(names)))

        # ORDER BY may reference pre-projection columns; prefer that schema
        pre_sort = None
        if select.order_by and all(
            _resolvable(o.expr, plan.schema) for o in select.order_by
        ):
            pre_sort = Sort(
                plan,
                [
                    compile_expr(o.expr, plan.schema, self.funcs)
                    for o in select.order_by
                ],
                [o.descending for o in select.order_by],
            )
            plan = pre_sort

        plan = Project(plan, exprs, names)

        if select.distinct:
            plan = Distinct(plan)

        if select.order_by and pre_sort is None:
            plan = Sort(
                plan,
                [
                    compile_expr(o.expr, plan.schema, self.funcs)
                    for o in select.order_by
                ],
                [o.descending for o in select.order_by],
            )

        if select.limit is not None:
            plan = Limit(plan, select.limit)
        return plan

    def _apply_resolvable(
        self, plan: PlanNode, pending: list[ast.Expr]
    ) -> PlanNode:
        applicable = [c for c in pending if _resolvable(c, plan.schema)]
        for conjunct in applicable:
            pending.remove(conjunct)
        if applicable:
            predicate = _and_all(applicable, plan.schema, self.funcs)
            filtered = Filter(plan, predicate)
            if isinstance(plan, (SeqScan, IndexEqScan)):
                selectivity = 1.0
                for conjunct in applicable:
                    selectivity *= self._conjunct_selectivity(
                        conjunct, plan.table
                    )
                filtered.selectivity = min(max(selectivity, 1e-6), 1.0)
            return filtered
        return plan

    def _plan_join(
        self,
        outer: PlanNode,
        join: ast.Join,
        pending: list[ast.Expr],
        ctes: dict[str, _CTEBinding],
        select: ast.Select,
    ) -> PlanNode:
        binding = join.table.binding
        condition_conjuncts = _conjuncts(join.condition)
        is_cte = join.table.name in ctes
        table = None if is_cte else self.catalog.table(join.table.name)

        # try index nested-loop: equality with inner indexed column
        if table is not None:
            for i, conjunct in enumerate(condition_conjuncts):
                pick = self._join_eq_pick(conjunct, outer.schema, binding, table)
                if pick is None:
                    continue
                inner_column, outer_key_expr = pick
                if not table.has_index(inner_column):
                    continue
                outer_key_fn = compile_expr(
                    outer_key_expr, outer.schema, self.funcs
                )
                residual_conjuncts = (
                    condition_conjuncts[:i] + condition_conjuncts[i + 1 :]
                )
                joined_schema = outer.schema.concat(
                    Schema.for_table(table, binding)
                )
                residual = (
                    _and_all(residual_conjuncts, joined_schema, self.funcs)
                    if residual_conjuncts
                    else None
                )
                if table.storage == "column":
                    return VectorizedIndexNLJoin(
                        outer,
                        table,
                        binding,
                        inner_column,
                        outer_key_fn,
                        join.kind,
                        residual,
                        _needed_columns(select, binding, table),
                    )
                return IndexNLJoin(
                    outer,
                    table,
                    binding,
                    inner_column,
                    outer_key_fn,
                    join.kind,
                    residual,
                )

        # inner plan: scan (table or CTE)
        if is_cte:
            cte = ctes[join.table.name]
            inner: PlanNode = MaterializedScan(cte.holder, binding, cte.columns)
        else:
            inner = SeqScan(table, binding)  # type: ignore[arg-type]

        # hash join on any equality with one side per input
        for i, conjunct in enumerate(condition_conjuncts):
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            for left_expr, right_expr in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if _resolvable(left_expr, outer.schema) and _resolvable(
                    right_expr, inner.schema
                ):
                    residual_conjuncts = (
                        condition_conjuncts[:i] + condition_conjuncts[i + 1 :]
                    )
                    joined_schema = outer.schema.concat(inner.schema)
                    residual = (
                        _and_all(residual_conjuncts, joined_schema, self.funcs)
                        if residual_conjuncts
                        else None
                    )
                    return HashJoin(
                        outer,
                        inner,
                        compile_expr(left_expr, outer.schema, self.funcs),
                        compile_expr(right_expr, inner.schema, self.funcs),
                        join.kind,
                        residual,
                    )

        joined_schema = outer.schema.concat(inner.schema)
        predicate = _and_all(condition_conjuncts, joined_schema, self.funcs)
        return NLJoin(outer, inner, predicate, join.kind)

    def _join_eq_pick(
        self,
        conjunct: ast.Expr,
        outer_schema: Schema,
        inner_binding: str,
        table: Any,
    ) -> tuple[str, ast.Expr] | None:
        """Match ``outer_expr = inner_binding.col`` (either side)."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        for col_side, key_side in (
            (conjunct.right, conjunct.left),
            (conjunct.left, conjunct.right),
        ):
            if (
                isinstance(col_side, ast.ColumnRef)
                and col_side.table == inner_binding
                and col_side.column in table.column_names
                and _resolvable(key_side, outer_schema)
            ):
                return col_side.column, key_side
        return None

    # -- cost-based join reordering ----------------------------------------------

    def _maybe_reorder(
        self, select: ast.Select, ctes: dict[str, _CTEBinding]
    ) -> ast.Select:
        """Greedy smallest-intermediate-first reordering of inner joins.

        Bails out (returning the select unchanged, i.e. textual order)
        whenever reordering could change semantics or column order: outer
        joins, CTE sources, bare ``SELECT *``, duplicate bindings, or
        unqualified column references that do not resolve uniquely.
        """
        if not self.reorder_enabled or not select.joins:
            return select
        if select.from_table is None:
            return select
        if any(join.kind != "inner" for join in select.joins):
            return select
        refs = [select.from_table] + [join.table for join in select.joins]
        if any(ref.name in ctes for ref in refs):
            return select
        for item in select.items:
            # a bare `*` takes its column order from the relation order
            if (
                isinstance(item.expr, ast.ColumnRef)
                and item.expr.column == "*"
                and item.expr.table is None
            ):
                return select
        bindings = [ref.binding for ref in refs]
        if len(set(bindings)) != len(bindings):
            return select
        try:
            tables = {
                ref.binding: self.catalog.table(ref.name) for ref in refs
            }
        except Exception:
            return select

        # pool: WHERE conjuncts + every join condition's conjuncts
        pool = _conjuncts(select.where)
        for join in select.joins:
            pool.extend(_conjuncts(join.condition))

        # which bindings does each conjunct touch?  None -> bail out.
        conjunct_bindings: list[frozenset[str] | None] = []
        for conjunct in pool:
            touched: set[str] = set()
            ok = True
            for ref in _column_refs(conjunct):
                if ref.column == "*":
                    ok = False
                    break
                if ref.table is not None:
                    if ref.table not in tables:
                        ok = False
                        break
                    touched.add(ref.table)
                    continue
                owners = [
                    b
                    for b in bindings
                    if ref.column in tables[b].column_names
                ]
                if len(owners) != 1:
                    ok = False
                    break
                touched.add(owners[0])
            if not ok:
                return select
            conjunct_bindings.append(frozenset(touched))

        singles: list[ast.Expr] = []
        multis: list[tuple[ast.Expr, frozenset[str]]] = []
        single_by_binding: dict[str, list[ast.Expr]] = {b: [] for b in bindings}
        for conjunct, touched in zip(pool, conjunct_bindings):
            if len(touched) <= 1:
                singles.append(conjunct)
                if touched:
                    single_by_binding[next(iter(touched))].append(conjunct)
            else:
                multis.append((conjunct, touched))

        base_rows = {
            b: self._filtered_rows(tables[b], b, single_by_binding[b])
            for b in bindings
        }

        # start with the smallest filtered relation; strict < keeps ties
        # in textual order (and makes stats-free planning a no-op)
        start = bindings[0]
        for b in bindings[1:]:
            if base_rows[b] < base_rows[start]:
                start = b

        placed = {start}
        order = [start]
        cur_rows = base_rows[start]
        attached: dict[str, list[ast.Expr]] = {b: [] for b in bindings}
        unused = list(multis)
        remaining = [b for b in bindings if b != start]
        while remaining:
            best: str | None = None
            best_rows = 0.0
            best_connected = False
            for b in remaining:
                usable = [
                    c
                    for c, touched in unused
                    if b in touched and touched <= placed | {b}
                ]
                rows = self._join_step_estimate(
                    cur_rows, base_rows[b], tables, usable
                )
                connected = bool(usable)
                # connected candidates always beat cross products
                if best is None or (connected, -rows) > (
                    best_connected,
                    -best_rows,
                ):
                    best, best_rows, best_connected = b, rows, connected
            assert best is not None
            placed.add(best)
            order.append(best)
            cur_rows = best_rows
            still_unused = []
            for c, touched in unused:
                if touched <= placed:
                    attached[best].append(c)
                else:
                    still_unused.append((c, touched))
            unused = still_unused
            remaining.remove(best)

        if order == bindings:
            return select

        ref_by_binding = {ref.binding: ref for ref in refs}
        new_joins = []
        for b in order[1:]:
            condition = _and_expr(attached[b])
            new_joins.append(ast.Join(ref_by_binding[b], condition, "inner"))
        return replace(
            select,
            from_table=ref_by_binding[order[0]],
            joins=tuple(new_joins),
            where=_and_expr(singles) if singles else None,
        )

    # -- cardinality estimation ---------------------------------------------------

    def _table_rows(self, table: Any) -> float:
        if self.stats is not None:
            table_stats = self.stats.table(table.name)
            if table_stats is not None:
                return float(max(table_stats.row_count, 1))
        live = self._live_rows[table] = len(table)
        return float(live) if live else DEFAULT_ROWS

    def _distinct(self, table: Any, column: str) -> int | None:
        if self.stats is not None:
            table_stats = self.stats.table(table.name)
            if table_stats is not None:
                distinct = table_stats.distinct(column)
                if distinct:
                    return distinct
        if table.has_index(column):
            # indexed columns are keys or near-keys in this schema
            return max(int(self._table_rows(table)) // 2, 1)
        return None

    def _filtered_rows(
        self, table: Any, binding: str, conjuncts: list[ast.Expr]
    ) -> float:
        rows = self._table_rows(table)
        for conjunct in conjuncts:
            rows *= self._conjunct_selectivity(conjunct, table)
        return max(rows, 1.0)

    def _conjunct_selectivity(self, conjunct: ast.Expr, table: Any) -> float:
        if isinstance(conjunct, ast.InList):
            if isinstance(conjunct.needle, ast.ColumnRef):
                eq = Selectivity.equality(
                    self._distinct(table, conjunct.needle.column)
                )
                return min(len(conjunct.items) * eq, 1.0)
            return 0.5
        if not isinstance(conjunct, ast.BinaryOp):
            return 1.0
        for col_side, key_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(col_side, ast.ColumnRef)
                and col_side.column in table.column_names
                and _is_constant(key_side)
            ):
                distinct = self._distinct(table, col_side.column)
                if conjunct.op == "=":
                    return Selectivity.equality(distinct)
                if conjunct.op in ("<>", "!="):
                    return Selectivity.inequality(distinct)
                if conjunct.op in _RANGE_OPS:
                    value = (
                        key_side.value
                        if isinstance(key_side, ast.Literal)
                        else None  # Param: value unknown at plan time
                    )
                    return Selectivity.range(
                        self._column_stats(table, col_side.column),
                        conjunct.op,
                        value,
                    )
        return 1.0

    def _column_stats(
        self, table: Any, column: str
    ) -> ColumnStats | None:
        if self.stats is None:
            return None
        table_stats = self.stats.table(table.name)
        if table_stats is None:
            return None
        return table_stats.columns.get(column)

    def _join_step_estimate(
        self,
        cur_rows: float,
        next_rows: float,
        tables: dict[str, Any],
        conjuncts: list[ast.Expr],
    ) -> float:
        if not conjuncts:
            return max(cur_rows * next_rows, 1.0)
        rows = cur_rows * next_rows
        for conjunct in conjuncts:
            rows *= self._join_conjunct_selectivity(conjunct, tables)
        return max(rows, 1.0)

    def _join_conjunct_selectivity(
        self, conjunct: ast.Expr, tables: dict[str, Any]
    ) -> float:
        if not isinstance(conjunct, ast.BinaryOp):
            return 1.0
        if conjunct.op == "=":
            distincts = []
            rows = []
            for side in (conjunct.left, conjunct.right):
                if not isinstance(side, ast.ColumnRef):
                    continue
                table = tables.get(side.table) if side.table else None
                if table is None:
                    continue
                rows.append(self._table_rows(table))
                d = self._distinct(table, side.column)
                if d:
                    distincts.append(d)
            if distincts:
                return 1.0 / max(distincts)
            if rows:
                # FK-join assumption: key side is unique
                return 1.0 / max(max(rows), 1.0)
            return 0.1
        if conjunct.op in _RANGE_OPS:
            return RANGE_SELECTIVITY
        return 1.0

    # -- plan annotation ----------------------------------------------------------

    def _annotate(self, node: PlanNode) -> None:
        """Attach ``est_rows`` to every plan node, children first."""
        for child in node._children():
            self._annotate(child)
        node.est_rows = self._node_estimate(node)

    def _node_estimate(self, node: PlanNode) -> float:
        if isinstance(node, SingleRow):
            return 1.0
        if isinstance(node, SeqScan):
            return self._table_rows(node.table)
        if isinstance(node, IndexEqScan):
            return max(
                self._table_rows(node.table)
                * Selectivity.equality(
                    self._distinct(node.table, node.column)
                ),
                1.0,
            )
        if isinstance(node, MaterializedScan):
            return 64.0  # CTE working set: unknowable statically
        if isinstance(node, IndexNLJoin):  # vectorized ones included
            outer = node.outer.est_rows or 1.0
            per_probe = self._table_rows(node.table) * Selectivity.equality(
                self._distinct(node.table, node.inner_column)
            )
            est = max(outer * per_probe, 1.0)
            return max(est, outer) if node.kind == "left" else est
        if isinstance(node, HashJoin):
            left = node.left.est_rows or 1.0
            right = node.right.est_rows or 1.0
            est = max(left, right)  # FK-join assumption
            return max(est, left) if node.kind == "left" else est
        if isinstance(node, NLJoin):
            outer = node.outer.est_rows or 1.0
            inner = node.inner.est_rows or 1.0
            factor = RANGE_SELECTIVITY if node.predicate is not None else 1.0
            est = max(outer * inner * factor, 1.0)
            return max(est, outer) if node.kind == "left" else est
        if isinstance(node, Filter):
            factor = (
                node.selectivity
                if node.selectivity is not None
                else RANGE_SELECTIVITY
            )
            return max((node.child.est_rows or 1.0) * factor, 1.0)
        if isinstance(node, Aggregate):
            if not node.group_fns:
                return 1.0
            return max((node.child.est_rows or 1.0) ** 0.5, 1.0)
        if isinstance(node, Limit):
            return max(min(node.child.est_rows or 1.0, node.limit), 0.0)
        if isinstance(node, RecursiveCTEPlan):
            return node.body.est_rows or DEFAULT_ROWS
        children = node._children()
        if children:
            return children[0].est_rows or 1.0
        return DEFAULT_ROWS

    # -- aggregation -----------------------------------------------------------------

    def _plan_aggregate(
        self, plan: PlanNode, select: ast.Select
    ) -> tuple[PlanNode, Schema]:
        group_exprs = list(select.group_by)
        group_fns = [
            compile_expr(e, plan.schema, self.funcs) for e in group_exprs
        ]
        agg_specs: list[tuple[str, ExprFn | None, bool]] = []
        out_names: list[str] = []
        item_positions: list[int] = []

        # group columns occupy positions 0..len(group)-1 in aggregate output
        for item in select.items:
            if item.expr in group_exprs:
                pos = group_exprs.index(item.expr)
                item_positions.append(pos)
                out_names_candidate = item.alias or _default_name(
                    item.expr, len(out_names)
                )
                out_names.append(out_names_candidate)
            elif isinstance(item.expr, ast.FuncCall) and (
                item.expr.name in AGGREGATE_FUNCS
            ):
                func = item.expr
                arg_fn = None
                if not func.star:
                    if len(func.args) != 1:
                        raise PlanError(
                            f"aggregate {func.name} takes one argument"
                        )
                    arg_fn = compile_expr(
                        func.args[0], plan.schema, self.funcs
                    )
                pos = len(group_exprs) + len(agg_specs)
                agg_specs.append((func.name, arg_fn, func.distinct))
                item_positions.append(pos)
                out_names.append(item.alias or func.name)
            else:
                raise PlanError(
                    f"select item {item.expr!r} must be an aggregate or "
                    f"appear in GROUP BY"
                )

        group_names = [
            _default_name(e, i) for i, e in enumerate(group_exprs)
        ]
        agg_names = [spec[0] for spec in agg_specs]
        aggregate = Aggregate(
            plan, group_fns, agg_specs, group_names + agg_names
        )

        # project aggregate output into select-item order
        exprs = [
            (lambda p: lambda row, params: row[p])(pos)
            for pos in item_positions
        ]
        projected = Project(aggregate, exprs, out_names)
        return projected, projected.schema

    def _finish(
        self, plan: PlanNode, select: ast.Select, projected: bool
    ) -> PlanNode:
        if select.distinct:
            plan = Distinct(plan)
        if select.order_by:
            plan = Sort(
                plan,
                [
                    compile_expr(o.expr, plan.schema, self.funcs)
                    for o in select.order_by
                ],
                [o.descending for o in select.order_by],
            )
        if select.limit is not None:
            plan = Limit(plan, select.limit)
        return plan

    # -- recursive CTE ------------------------------------------------------------

    def plan_recursive(self, cte: ast.RecursiveCTE) -> PlanNode:
        working = RowsHolder()
        result = RowsHolder()
        bindings_step = {cte.name: _CTEBinding(cte.columns, working)}
        bindings_body = {cte.name: _CTEBinding(cte.columns, result)}
        base_plan = self.plan_select(cte.base)
        step_plan = self.plan_select(cte.step, bindings_step)
        body_plan = self.plan_select(cte.body, bindings_body)
        if len(base_plan.schema) != len(cte.columns):
            raise PlanError(
                f"CTE {cte.name!r} declares {len(cte.columns)} columns but "
                f"its base query produces {len(base_plan.schema)}"
            )
        return RecursiveCTEPlan(
            cte.name,
            base_plan,
            step_plan,
            body_plan,
            working,
            result,
            distinct=cte.distinct,
        )


class RecursiveCTEPlan(PlanNode):
    """Semi-naive evaluation of ``WITH RECURSIVE`` (PostgreSQL semantics).

    The step query sees only the previous iteration's *delta*; with
    ``UNION`` (distinct) rows are deduplicated globally, which guarantees
    termination on cyclic data.
    """

    def __init__(
        self,
        name: str,
        base: PlanNode,
        step: PlanNode,
        body: PlanNode,
        working: RowsHolder,
        result: RowsHolder,
        distinct: bool,
    ) -> None:
        self.name = name
        self.base = base
        self.step = step
        self.body = body
        self.working = working
        self.result = result
        self.distinct = distinct
        self.schema = body.schema

    def rows(self, ctx: ExecContext) -> Iterator[tuple]:
        self.fixpoint(
            lambda: list(self.base.rows(ctx)),
            lambda: list(self.step.rows(ctx)),
        )
        yield from self.body.rows(ctx)

    def fixpoint(
        self,
        run_base: Callable[[], list[tuple]],
        run_step: Callable[[], list[tuple]],
    ) -> None:
        """Evaluate the CTE into ``result``: the semi-naive loop.

        ``run_base()`` and ``run_step()`` run the two sub-plans the
        caller's way (interpreted iterators or compiled kernels); the
        step reads the previous iteration's delta through ``working``.
        """
        seen: set[tuple] = set()
        all_rows: list[tuple] = []

        def absorb(rows: list[tuple]) -> list[tuple]:
            if not self.distinct:
                all_rows.extend(rows)
                return rows
            fresh = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    fresh.append(row)
            all_rows.extend(fresh)
            return fresh

        delta = absorb(run_base())
        iterations = 0
        while delta:
            iterations += 1
            if iterations > MAX_RECURSION_ITERATIONS:
                raise SqlRuntimeError(
                    f"recursive CTE {self.name!r} exceeded "
                    f"{MAX_RECURSION_ITERATIONS} iterations"
                )
            if len(all_rows) > MAX_RECURSION_ROWS:
                raise SqlRuntimeError(
                    f"recursive CTE {self.name!r} exceeded "
                    f"{MAX_RECURSION_ROWS} rows"
                )
            self.working.rows = delta
            delta = absorb(run_step())
        self.result.rows = all_rows

    def _children(self) -> list[PlanNode]:
        return [self.base, self.step, self.body]


def _default_name(expr: ast.Expr, position: int) -> str:
    if isinstance(expr, ast.ColumnRef):
        return expr.column
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return f"col{position}"


def _and_expr(conjuncts: list[ast.Expr]) -> ast.Expr:
    """Rebuild an AND tree (``TRUE`` for an empty conjunction)."""
    if not conjuncts:
        return ast.Literal(True)
    expr = conjuncts[0]
    for conjunct in conjuncts[1:]:
        expr = ast.BinaryOp("AND", expr, conjunct)
    return expr


def _and_all(
    conjuncts: list[ast.Expr],
    schema: Schema,
    funcs: dict[str, Callable[..., Any]],
) -> ExprFn:
    fns = [compile_expr(c, schema, funcs) for c in conjuncts]
    if len(fns) == 1:
        return fns[0]

    def run(row: tuple, params: tuple) -> bool:
        return all(fn(row, params) for fn in fns)

    return run
