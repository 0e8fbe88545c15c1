"""What Cypher expressions and the RETURN clause *mean*.

Everything here neither prices nor batches, so it exists once and both
execution modes drive it: the interpreter
(:mod:`repro.graphdb.cypher.executor`) and the compiled closures
(:mod:`repro.exec.cypherc`) build the same closures and differ only in
how they produce the rows fed to them (MATCH) and in the row charge
they hand to :func:`compile_return`.

Expressions become ``fn(row, params)`` closures binding the expression
and the store only — no statistics, no indexes — so a closure stays
valid for the life of its store.  Nothing in this module may test
which execution mode is running.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.graphdb.cypher import ast
from repro.graphdb.store import GraphStore
from repro.lang.expr import Accumulator

AGGREGATE_FUNCS = {"count", "min", "max", "sum", "avg", "collect"}

Row = dict[str, Any]
ValueFn = Callable[[Row, dict], Any]
#: a compiled RETURN clause: MATCH output rows + params -> result rows
ReturnFn = Callable[[list[Row], dict], list[tuple]]
#: what ``n`` (> 0) rows entering RETURN cost under the caller's mode
RowCharge = Callable[[int], None]


class CypherRuntimeError(Exception):
    pass


@dataclass(frozen=True)
class NodeRef:
    id: int


@dataclass(frozen=True)
class RelRef:
    id: int


@dataclass(frozen=True)
class PathRef:
    nodes: tuple[int, ...]
    length: int


# --- expressions ------------------------------------------------------------

_CMP = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def compile_expr(expr: ast.Expr, store: GraphStore) -> ValueFn:
    """Pre-bind an expression to ``fn(row, params)``.

    Building never fails: an unknown node, operator or function and an
    aggregate outside RETURN become closures that raise
    :class:`CypherRuntimeError` when (and only when) they are evaluated.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, ast.Param):
        name = expr.name

        def read_param(row: Row, params: dict) -> Any:
            try:
                return params[name]
            except KeyError:
                raise CypherRuntimeError(
                    f"missing parameter ${name}"
                ) from None

        return read_param
    if isinstance(expr, ast.VarRef):
        var = expr.name

        def read_var(row: Row, params: dict) -> Any:
            try:
                return row[var]
            except KeyError:
                raise CypherRuntimeError(
                    f"unbound variable {var!r}"
                ) from None

        return read_var
    if isinstance(expr, ast.PropAccess):
        var, key = expr.var, expr.key

        def read_prop(row: Row, params: dict) -> Any:
            target = row.get(var)
            if isinstance(target, NodeRef):
                return store.node_prop(target.id, key)
            if isinstance(target, RelRef):
                return store.rel_props(target.id).get(key)
            if target is None:
                return None
            raise CypherRuntimeError(
                f"{var!r} is not a node or relationship"
            )

        return read_prop
    if isinstance(expr, ast.UnaryOp):
        operand = compile_expr(expr.operand, store)
        if expr.op == "NOT":
            return lambda row, params: not operand(row, params)

        def negate(row: Row, params: dict) -> Any:
            value = operand(row, params)
            return None if value is None else -value

        return negate
    if isinstance(expr, ast.IsNull):
        operand = compile_expr(expr.operand, store)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, store)
    if isinstance(expr, ast.FuncCall):
        return _compile_scalar_func(expr, store)

    def cannot_evaluate(row: Row, params: dict) -> Any:
        raise CypherRuntimeError(f"cannot evaluate {expr!r}")

    return cannot_evaluate


def _compile_binary(expr: ast.BinaryOp, store: GraphStore) -> ValueFn:
    op = expr.op
    left = compile_expr(expr.left, store)
    right = compile_expr(expr.right, store)
    if op == "AND":
        return lambda row, params: bool(left(row, params)) and bool(
            right(row, params)
        )
    if op == "OR":
        return lambda row, params: bool(left(row, params)) or bool(
            right(row, params)
        )
    if op in _CMP:
        compare = _CMP[op]

        def run_compare(row: Row, params: dict) -> Any:
            lv, rv = left(row, params), right(row, params)
            if lv is None or rv is None:
                return False
            if isinstance(lv, NodeRef) or isinstance(rv, NodeRef):
                same = (
                    isinstance(lv, NodeRef)
                    and isinstance(rv, NodeRef)
                    and lv.id == rv.id
                )
                if op == "=":
                    return same
                if op == "<>":
                    return not same
                raise CypherRuntimeError("nodes are not ordered")
            return compare(lv, rv)

        return run_compare
    apply = _ARITH.get(op)

    def run_arith(row: Row, params: dict) -> Any:
        lv, rv = left(row, params), right(row, params)
        if lv is None or rv is None:
            return None
        if apply is None:
            raise CypherRuntimeError(f"unknown operator {op!r}")
        return apply(lv, rv)

    return run_arith


def _length(store: GraphStore, path: Any) -> Any:
    if not isinstance(path, PathRef):
        raise CypherRuntimeError("length() expects a path")
    return path.length


def _id(store: GraphStore, ref: Any) -> Any:
    if isinstance(ref, (NodeRef, RelRef)):
        return ref.id
    raise CypherRuntimeError("id() expects a node or relationship")


def _labels(store: GraphStore, ref: Any) -> Any:
    if isinstance(ref, NodeRef):
        return list(store.node_labels(ref.id))
    raise CypherRuntimeError("labels() expects a node")


_SCALAR_FUNCS = {"length": _length, "id": _id, "labels": _labels}


def _compile_scalar_func(expr: ast.FuncCall, store: GraphStore) -> ValueFn:
    name = expr.name
    if name in AGGREGATE_FUNCS:

        def misuse(row: Row, params: dict) -> Any:
            raise CypherRuntimeError(f"aggregate {name}() outside RETURN")

        return misuse
    arg_fns = [compile_expr(arg, store) for arg in expr.args]
    func = _SCALAR_FUNCS.get(name)

    def call(row: Row, params: dict) -> Any:
        args = [fn(row, params) for fn in arg_fns]
        if func is None:
            raise CypherRuntimeError(f"unknown function {name}()")
        (arg,) = args
        return func(store, arg)

    return call


def materialize(store: GraphStore, value: Any) -> Any:
    """Nodes returned whole become property maps (as drivers do)."""
    if isinstance(value, NodeRef):
        return tuple(sorted(store.node_props(value.id).items()))
    if isinstance(value, RelRef):
        return tuple(sorted(store.rel_props(value.id).items()))
    if isinstance(value, PathRef):
        return value
    if isinstance(value, list):
        return tuple(value)
    return value


# --- RETURN -----------------------------------------------------------------


def compile_return(
    returns: ast.ReturnClause, store: GraphStore, charge_rows: RowCharge
) -> ReturnFn:
    """The RETURN tail: project or group/aggregate, then DISTINCT,
    ORDER BY, LIMIT.

    ``charge_rows(n)`` is the caller's price for ``n`` rows entering
    the clause; it is the only thing the two execution modes do
    differently here, and it is not called for zero rows.  A clause
    that can never run — ORDER BY on something not returned, an
    aggregate nested in an expression — raises
    :class:`CypherRuntimeError` at build time.
    """
    if any(contains_aggregate(item.expr) for item in returns.items):
        project = _compile_aggregate(returns, store)
    else:
        value_fns = [
            compile_expr(item.expr, store) for item in returns.items
        ]

        def project(rows: list[Row], params: dict) -> list[tuple]:
            return [
                tuple(materialize(store, fn(row, params)) for fn in value_fns)
                for row in rows
            ]

    aliases = [item.alias or expr_name(item.expr) for item in returns.items]
    order_keys = [
        (_order_index(item.expr, aliases), item.descending)
        for item in returns.order_by
    ]
    distinct = returns.distinct
    limit = returns.limit

    def run(rows: list[Row], params: dict) -> list[tuple]:
        if rows:
            charge_rows(len(rows))
        projected = project(rows, params)
        if distinct:
            projected = list(dict.fromkeys(projected))
        for index, descending in reversed(order_keys):
            projected.sort(
                key=lambda row, i=index: _null_safe(row[i]),
                reverse=descending,
            )
        if limit is not None:
            projected = projected[:limit]
        return projected

    return run


def _compile_aggregate(
    returns: ast.ReturnClause, store: GraphStore
) -> ReturnFn:
    """Cypher's implicit grouping: plain items key, aggregates fold."""
    key_items: list[tuple[int, ValueFn]] = []
    agg_items: list[tuple[int, ast.FuncCall, ValueFn | None]] = []
    for index, item in enumerate(returns.items):
        expr = item.expr
        if not contains_aggregate(expr):
            key_items.append((index, compile_expr(expr, store)))
            continue
        if not isinstance(expr, ast.FuncCall):
            raise CypherRuntimeError(
                "aggregates cannot be nested in expressions"
            )
        if not expr.star and len(expr.args) != 1:
            raise CypherRuntimeError(
                f"aggregate {expr.name}() takes exactly one argument"
            )
        arg_fn = None if expr.star else compile_expr(expr.args[0], store)
        agg_items.append((index, expr, arg_fn))
    width = len(returns.items)

    def new_states() -> list[Accumulator]:
        return [
            Accumulator(call.name, call.distinct, CypherRuntimeError)
            for _, call, _ in agg_items
        ]

    def project(rows: list[Row], params: dict) -> list[tuple]:
        groups: dict[tuple, list[Accumulator]] = {}
        for row in rows:
            key = tuple(
                materialize(store, fn(row, params)) for _, fn in key_items
            )
            states = groups.get(key)
            if states is None:
                states = groups[key] = new_states()
            for state, (_, _, arg_fn) in zip(states, agg_items):
                if arg_fn is None:  # count(*)
                    state.feed(1)
                else:
                    state.feed(materialize(store, arg_fn(row, params)))
        if not groups and not key_items:
            groups[()] = new_states()
        out = []
        for key, states in groups.items():
            values: list[Any] = [None] * width
            for (index, _), value in zip(key_items, key):
                values[index] = value
            for (index, _, _), state in zip(agg_items, states):
                values[index] = state.result()
            out.append(tuple(values))
        return out

    return project


def _order_index(expr: ast.Expr, aliases: list[str]) -> int:
    if isinstance(expr, (ast.VarRef, ast.PropAccess)):
        name = expr_name(expr)
        if name in aliases:
            return aliases.index(name)
    raise CypherRuntimeError(
        "ORDER BY must reference a returned column or its alias"
    )


def _null_safe(value: Any) -> tuple:
    return (value is not None, value)


def contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FuncCall):
        if expr.name in AGGREGATE_FUNCS:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(
            expr.right
        )
    if isinstance(expr, (ast.UnaryOp, ast.IsNull)):
        return contains_aggregate(expr.operand)
    return False


def expr_name(expr: ast.Expr) -> str:
    """The column name an unaliased RETURN item gets."""
    if isinstance(expr, ast.PropAccess):
        return f"{expr.var}.{expr.key}"
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return f"{expr.name}(...)"
    return "expr"
