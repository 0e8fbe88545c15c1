"""Cypher plan-to-closure compiler (read-only statements).

Compiles a parsed+planned query — the object the engine's epoch-keyed
statement cache stores — into one closure per clause: anchor selection
and pattern ordering are decided **at compile time** using the same
statistics code the interpreter consults per row, expressions become
pre-bound value closures, and pattern expansion runs level-synchronous
over row batches, fetching adjacency and node records through the
store's deduplicating batch APIs.

Level-synchronous expansion enumerates candidate rows in exactly the
interpreter's depth-first order (lexicographic in per-hop adjacency
order), so compiled output is identical row for row — the differential
suite asserts this for every catalog query.

Statements the kernel set cannot express without changing semantics
raise :class:`~repro.exec.errors.CompileError` and the engine falls
back to the interpreter: writes (CREATE / SET), ``shortestPath()``,
variable-length patterns, and MATCH clauses that re-match variables
bound by an earlier OPTIONAL MATCH (their boundness varies per row, so
anchor selection stops being a compile-time decision).
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from typing import Any

from repro.exec.batch import batched, charge_batch
from repro.exec.errors import CompileError
from repro.exec.kernels import expand_frontier
from repro.graphdb.cypher import ast
from repro.graphdb.cypher.executor import (
    _FLIP,
    _TO_DIRECTION,
    AGGREGATE_FUNCS,
    CypherExecutor,
    CypherRuntimeError,
    NodeRef,
    PathRef,
    RelRef,
    WriteSummary,
    _contains_aggregate,
    _expr_name,
    _null_safe,
    _pattern_variables,
)
from repro.graphdb.store import GraphStore
from repro.lang.expr import Accumulator
from repro.simclock.ledger import charge
from repro.stats import GraphStatistics, choose_batch_size

Row = dict[str, Any]
ValueFn = Callable[[Row, dict], Any]
#: (origin row index, bindings, cursor node, anchor node, used rel ids)
_State = tuple[int, Row, int, int, frozenset]
CompiledCypher = Callable[
    [dict[str, Any] | None], tuple[list[tuple], WriteSummary]
]

_FAKE_BINDING = {
    "node": NodeRef(0),
    "rel": RelRef(0),
    "path": PathRef((), 0),
}


def compile_query(
    query: ast.Query,
    store: GraphStore,
    stats: GraphStatistics | None,
) -> CompiledCypher:
    """Specialize a read-only query into a parameter-ready closure.

    ``stats`` must be the statistics the engine's executor would use;
    compile-time anchor/order decisions bake them in, and the engine's
    epoch bump on ANALYZE / CREATE INDEX evicts the stale closure.
    """
    helper = CypherExecutor(store)
    helper.stats = stats

    bound_kinds: dict[str, str] = {}
    fragile: set[str] = set()
    clause_fns = []
    for clause in query.clauses:
        if not isinstance(clause, ast.MatchClause):
            raise CompileError(
                f"{type(clause).__name__} requires the interpreter"
            )
        for pattern in clause.patterns:
            if pattern.shortest:
                raise CompileError(
                    "shortestPath() requires the interpreter"
                )
            for rel in pattern.rels:
                if rel.var_length:
                    raise CompileError(
                        "variable-length patterns require the interpreter"
                    )
            for node in pattern.nodes:
                if node.var and node.var in fragile:
                    raise CompileError(
                        "re-matching OPTIONAL MATCH bindings requires "
                        "the interpreter"
                    )
        clause_fns.append(
            _compile_match(clause, dict(bound_kinds), store, helper)
        )
        fresh: list[str] = []
        for pattern in clause.patterns:
            for node in pattern.nodes:
                if node.var and node.var not in bound_kinds:
                    bound_kinds[node.var] = "node"
                    fresh.append(node.var)
            for rel in pattern.rels:
                if rel.var and rel.var not in bound_kinds:
                    bound_kinds[rel.var] = "rel"
                    fresh.append(rel.var)
            if pattern.assign_var and pattern.assign_var not in bound_kinds:
                bound_kinds[pattern.assign_var] = "path"
                fresh.append(pattern.assign_var)
        if clause.optional:
            fragile.update(fresh)

    if query.returns is None:
        raise CompileError("statements without RETURN require the interpreter")
    project = _compile_return(query.returns, store)

    def run(params: dict[str, Any] | None) -> tuple[list[tuple], WriteSummary]:
        bound_params = params or {}
        rows: list[Row] = [{}]
        for clause_fn in clause_fns:
            rows = clause_fn(rows, bound_params)
        return project(rows, bound_params), WriteSummary()

    return run


# --- MATCH -----------------------------------------------------------------


def _compile_match(
    clause: ast.MatchClause,
    bound_kinds: dict[str, str],
    store: GraphStore,
    helper: CypherExecutor,
) -> Callable[[list[Row], dict], list[Row]]:
    ordered = helper._order_patterns(
        list(clause.patterns), set(bound_kinds)
    )
    kinds = dict(bound_kinds)
    pattern_fns = []
    for pattern in ordered:
        nodes, rels = pattern.nodes, pattern.rels
        fake_row = {
            name: _FAKE_BINDING[kind] for name, kind in kinds.items()
        }
        anchor = helper._pick_anchor(fake_row, nodes, rels)
        est = (
            helper._chain_cost(nodes, rels, anchor, set(kinds))
            if helper.stats is not None
            else None
        )
        pattern_fns.append(
            _compile_pattern(
                pattern, anchor, kinds, store, choose_batch_size(est)
            )
        )
        for node in nodes:
            if node.var:
                kinds.setdefault(node.var, "node")
        for rel in rels:
            if rel.var:
                kinds.setdefault(rel.var, "rel")
        if pattern.assign_var:
            kinds.setdefault(pattern.assign_var, "path")

    where_fn = (
        _compile_expr(clause.where, store)
        if clause.where is not None
        else None
    )
    pattern_vars = _pattern_variables(clause.patterns)
    optional = clause.optional

    def run(rows: list[Row], params: dict) -> list[Row]:
        items = list(enumerate(rows))
        for pattern_fn in pattern_fns:
            items = pattern_fn(items, params)
        if where_fn is not None:
            items = [
                (origin, row)
                for origin, row in items
                if where_fn(row, params)
            ]
        if where_fn is not None or optional:
            # the filter / left-outer merge is the only per-item work at
            # this level; a plain MATCH is pass-through and dispatches
            # nothing
            for chunk in batched(items, 1024):
                charge_batch(len(chunk))
        if not optional:
            return [row for _, row in items]
        out: list[Row] = []
        cursor, total = 0, len(items)
        for origin, row in enumerate(rows):
            had_match = False
            while cursor < total and items[cursor][0] == origin:
                out.append(items[cursor][1])
                cursor += 1
                had_match = True
            if not had_match:
                padded = dict(row)
                for var in pattern_vars:
                    padded.setdefault(var, None)
                out.append(padded)
        return out

    return run


def _compile_pattern(
    pattern: ast.PathPattern,
    anchor: int,
    kinds: dict[str, str],
    store: GraphStore,
    batch_size: int,
) -> Callable[[list[tuple[int, Row]], dict], list[tuple[int, Row]]]:
    nodes, rels = pattern.nodes, pattern.rels
    anchor_node = nodes[anchor]
    source, subsumed = _compile_anchor_source(anchor_node, kinds, store)
    # predicate subsumption: when the anchor source already proves every
    # label/property the pattern states (an index lookup on exactly that
    # label+key), re-verifying the candidates is compile-time-provably
    # redundant and the check is elided outright
    anchor_check = None if subsumed else _compile_node_check(
        anchor_node, store
    )
    anchor_var = anchor_node.var
    right_steps = [
        _compile_step(
            rels[pos], nodes[pos + 1], rels[pos].direction, store, batch_size
        )
        for pos in range(anchor, len(rels))
    ]
    left_steps = [
        _compile_step(
            rels[pos - 1],
            nodes[pos - 1],
            _FLIP[rels[pos - 1].direction],
            store,
            batch_size,
        )
        for pos in range(anchor, 0, -1)
    ]

    def run(
        items: list[tuple[int, Row]], params: dict
    ) -> list[tuple[int, Row]]:
        states: list[_State] = []
        for chunk in batched(items, batch_size):
            per_item = [source(row, params) for _, row in chunk]
            if anchor_check is not None:
                entries = [
                    (row, nid)
                    for (_, row), cands in zip(chunk, per_item)
                    for nid in cands
                ]
                keep = anchor_check(entries, params)
            else:
                keep = None
            pos, emitted = 0, 0
            for (origin, row), cands in zip(chunk, per_item):
                for nid in cands:
                    if keep is None or keep[pos]:
                        bound = (
                            {**row, anchor_var: NodeRef(nid)}
                            if anchor_var
                            else row
                        )
                        states.append(
                            (origin, bound, nid, nid, frozenset())
                        )
                        emitted += 1
                    pos += 1
            charge("vector_setup")
            if emitted:
                charge("tuple_vec", emitted)
        for step in right_steps:
            states = step(states, params)
        if left_steps:
            states = [
                (origin, row, anchor_id, anchor_id, used)
                for origin, row, _cur, anchor_id, used in states
            ]
            for step in left_steps:
                states = step(states, params)
        return [(origin, row) for origin, row, _c, _a, _u in states]

    return run


def _compile_anchor_source(
    node: ast.NodePattern, kinds: dict[str, str], store: GraphStore
) -> tuple[Callable[[Row, dict], list[int]], bool]:
    """Candidate source for the anchor node, plus a subsumption flag.

    The flag is True when the source *proves* every predicate the node
    pattern states — an index lookup on the pattern's only label and
    only property, a label scan for its only label, or a bound variable
    with nothing left to restate — so the anchor re-check can be elided
    at compile time.  The interpreter re-verifies per candidate; the
    answers are identical because the source guarantees the predicate.
    """
    if node.var and kinds.get(node.var) == "node":
        var = node.var
        return (
            lambda row, params: [row[var].id],
            not node.labels and not node.props,
        )
    for label in node.labels:
        for key, expr in node.props:
            if store.has_index(label, key):
                value_fn = _compile_expr(expr, store)
                return (
                    lambda row, params, label=label, key=key: store.lookup(
                        label, key, value_fn(row, params)
                    ),
                    node.labels == [label] and len(node.props) == 1,
                )
    if node.labels:
        label0 = node.labels[0]
        return (
            lambda row, params: list(store.nodes_with_label(label0)),
            len(node.labels) == 1 and not node.props,
        )
    return lambda row, params: list(store.all_nodes()), not node.props


def _compile_node_check(
    node: ast.NodePattern, store: GraphStore, fused: bool = False
) -> Callable[[list[tuple[Row, int]], dict], list[bool]]:
    """Batched mirror of ``CypherExecutor._node_matches``.

    Label and property records are gathered once per unique node id in
    the batch; the interpreter pays per candidate occurrence.  With
    ``fused`` the check runs inside an enclosing kernel's loop (operator
    fusion) and rides that kernel's per-chunk dispatch instead of
    charging its own.
    """
    var = node.var
    labels = node.labels
    prop_fns = [
        (key, _compile_expr(expr, store)) for key, expr in node.props
    ]

    def check(entries: list[tuple[Row, int]], params: dict) -> list[bool]:
        keep = [True] * len(entries)
        if var:
            for i, (row, nid) in enumerate(entries):
                bound = row.get(var)
                if isinstance(bound, NodeRef) and bound.id != nid:
                    keep[i] = False
        if labels:
            ids = [nid for i, (_, nid) in enumerate(entries) if keep[i]]
            if ids:
                if not fused:
                    charge("vector_setup")
                found = store.node_labels_batch(ids)
                for i, (_, nid) in enumerate(entries):
                    if keep[i] and not all(
                        label in found[nid] for label in labels
                    ):
                        keep[i] = False
        if prop_fns:
            ids = [nid for i, (_, nid) in enumerate(entries) if keep[i]]
            if ids:
                if not fused:
                    charge("vector_setup")
                found_props = store.node_props_batch(ids)
                for i, (row, nid) in enumerate(entries):
                    if not keep[i]:
                        continue
                    props = found_props[nid]
                    for key, value_fn in prop_fns:
                        if props.get(key) != value_fn(row, params):
                            keep[i] = False
                            break
        return keep

    return check


def _compile_step(
    rel: ast.RelPattern,
    target: ast.NodePattern,
    direction: str,
    store: GraphStore,
    batch_size: int,
) -> Callable[[list[_State], dict], list[_State]]:
    """One fixed-length hop as a frontier-at-a-time expand kernel."""
    rel_type = rel.types[0] if rel.types else None
    store_dir = _TO_DIRECTION[direction]
    rel_prop_fns = [
        (key, _compile_expr(expr, store)) for key, expr in rel.props
    ]
    node_check = _compile_node_check(target, store, fused=True)
    rel_var, target_var = rel.var, target.var

    def run(states: list[_State], params: dict) -> list[_State]:
        out: list[_State] = []
        for chunk in batched(states, batch_size):
            adjacency = expand_frontier(
                store, [state[2] for state in chunk], rel_type, store_dir
            )
            candidates: list[tuple[int, int, int]] = []
            for index, state in enumerate(chunk):
                used = state[4]
                for rel_id, other in adjacency.get(state[2], ()):
                    if rel_id not in used:
                        candidates.append((index, rel_id, other))
            if rel_prop_fns and candidates:
                # fused into this kernel's per-chunk dispatch
                rel_props = store.rel_props_batch(
                    [rel_id for _, rel_id, _ in candidates]
                )
                candidates = [
                    (index, rel_id, other)
                    for index, rel_id, other in candidates
                    if all(
                        rel_props[rel_id].get(key)
                        == value_fn(chunk[index][1], params)
                        for key, value_fn in rel_prop_fns
                    )
                ]
            entries = [
                (chunk[index][1], other) for index, _, other in candidates
            ]
            keep = node_check(entries, params)
            emitted = 0
            for (index, rel_id, other), ok in zip(candidates, keep):
                if not ok:
                    continue
                origin, row, _cur, anchor_id, used = chunk[index]
                if rel_var or target_var:
                    row = dict(row)
                    if rel_var:
                        row[rel_var] = RelRef(rel_id)
                    if target_var:
                        row[target_var] = NodeRef(other)
                out.append((origin, row, other, anchor_id, used | {rel_id}))
                emitted += 1
            # expand + rel filter + node check + bind are one fused
            # kernel; expand_frontier charged its dispatch already
            if emitted:
                charge("tuple_vec", emitted)
        return out

    return run


# --- RETURN ------------------------------------------------------------------


def _compile_return(
    returns: ast.ReturnClause, store: GraphStore
) -> Callable[[list[Row], dict], list[tuple]]:
    aliases = [
        item.alias or _expr_name(item.expr) for item in returns.items
    ]
    if any(_contains_aggregate(item.expr) for item in returns.items):
        project = _compile_aggregate(returns, store)
    else:
        value_fns = [
            _compile_expr(item.expr, store) for item in returns.items
        ]

        def project(rows: list[Row], params: dict) -> list[tuple]:
            out = []
            for chunk in batched(rows, 1024):
                charge_batch(len(chunk))
                for row in chunk:
                    out.append(
                        tuple(
                            _materialize(store, fn(row, params))
                            for fn in value_fns
                        )
                    )
            return out

    order_keys: list[tuple[int, bool]] | None = None
    if returns.order_by:
        order_keys = [
            (_order_index(item.expr, aliases), item.descending)
            for item in returns.order_by
        ]
    distinct = returns.distinct
    limit = returns.limit

    def run(rows: list[Row], params: dict) -> list[tuple]:
        projected = project(rows, params)
        if distinct:
            seen: set[tuple] = set()
            unique = []
            for row in projected:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            projected = unique
        if order_keys is not None:
            for index, descending in reversed(order_keys):
                projected.sort(
                    key=lambda row, i=index: _null_safe(row[i]),
                    reverse=descending,
                )
        if limit is not None:
            projected = projected[:limit]
        return projected

    return run


def _order_index(expr: ast.Expr, aliases: list[str]) -> int:
    if isinstance(expr, ast.VarRef) and expr.name in aliases:
        return aliases.index(expr.name)
    if isinstance(expr, ast.PropAccess):
        name = f"{expr.var}.{expr.key}"
        if name in aliases:
            return aliases.index(name)
    raise CompileError("ORDER BY must reference a returned column")


def _compile_aggregate(
    returns: ast.ReturnClause, store: GraphStore
) -> Callable[[list[Row], dict], list[tuple]]:
    key_items: list[tuple[int, ValueFn]] = []
    agg_items: list[tuple[int, str, bool, bool, ValueFn | None]] = []
    for index, item in enumerate(returns.items):
        if not _contains_aggregate(item.expr):
            key_items.append((index, _compile_expr(item.expr, store)))
            continue
        expr = item.expr
        if not isinstance(expr, ast.FuncCall):
            raise CompileError(
                "aggregates nested in expressions require the interpreter"
            )
        arg_fn = None if expr.star else _compile_expr(expr.args[0], store)
        agg_items.append(
            (index, expr.name, expr.star, expr.distinct, arg_fn)
        )
    width = len(returns.items)

    def new_states() -> list[Accumulator]:
        return [
            Accumulator(name, distinct, CypherRuntimeError)
            for _, name, _, distinct, _ in agg_items
        ]

    def project(rows: list[Row], params: dict) -> list[tuple]:
        groups: dict[tuple, list[Accumulator]] = {}
        for chunk in batched(rows, 1024):
            charge_batch(len(chunk))
            for row in chunk:
                key = tuple(
                    _materialize(store, fn(row, params))
                    for _, fn in key_items
                )
                states = groups.get(key)
                if states is None:
                    states = new_states()
                    groups[key] = states
                for state, (_, _, star, _, arg_fn) in zip(
                    states, agg_items
                ):
                    if star:
                        state.feed(1)
                    else:
                        assert arg_fn is not None
                        state.feed(
                            _materialize(store, arg_fn(row, params))
                        )
        if not groups and not key_items:
            groups[()] = new_states()
        out = []
        for key, states in groups.items():
            values: list[Any] = [None] * width
            for (index, _), value in zip(key_items, key):
                values[index] = value
            for (index, _, _, _, _), state in zip(agg_items, states):
                values[index] = state.result()
            out.append(tuple(values))
        return out

    return project


# --- expressions ----------------------------------------------------------------


def _materialize(store: GraphStore, value: Any) -> Any:
    if isinstance(value, NodeRef):
        return tuple(sorted(store.node_props(value.id).items()))
    if isinstance(value, RelRef):
        return tuple(sorted(store.rel_props(value.id).items()))
    if isinstance(value, PathRef):
        return value
    if isinstance(value, list):
        return tuple(value)
    return value


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


def _compile_expr(expr: ast.Expr, store: GraphStore) -> ValueFn:
    """Pre-bind an expression to ``fn(row, params)``.

    Runtime behaviour (NULL logic, error messages) mirrors
    ``CypherExecutor._eval`` exactly.
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
        operand = _compile_expr(expr.operand, store)
        if expr.op == "NOT":
            return lambda row, params: not operand(row, params)

        def negate(row: Row, params: dict) -> Any:
            value = operand(row, params)
            return None if value is None else -value

        return negate
    if isinstance(expr, ast.IsNull):
        operand = _compile_expr(expr.operand, store)
        if expr.negated:
            return lambda row, params: operand(row, params) is not None
        return lambda row, params: operand(row, params) is None
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, store)
    if isinstance(expr, ast.FuncCall):
        return _compile_scalar_func(expr, store)
    raise CompileError(f"cannot compile expression {expr!r}")


def _compile_binary(expr: ast.BinaryOp, store: GraphStore) -> ValueFn:
    op = expr.op
    left = _compile_expr(expr.left, store)
    right = _compile_expr(expr.right, store)
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
    if op in _ARITH:
        apply = _ARITH[op]

        def run_arith(row: Row, params: dict) -> Any:
            lv, rv = left(row, params), right(row, params)
            if lv is None or rv is None:
                return None
            return apply(lv, rv)

        return run_arith
    raise CompileError(f"cannot compile operator {op!r}")


def _compile_scalar_func(expr: ast.FuncCall, store: GraphStore) -> ValueFn:
    if expr.name in AGGREGATE_FUNCS:
        name = expr.name

        def misuse(row: Row, params: dict) -> Any:
            raise CypherRuntimeError(f"aggregate {name}() outside RETURN")

        return misuse
    arg_fns = [_compile_expr(arg, store) for arg in expr.args]
    if expr.name == "length":

        def run_length(row: Row, params: dict) -> Any:
            (path,) = [fn(row, params) for fn in arg_fns]
            if not isinstance(path, PathRef):
                raise CypherRuntimeError("length() expects a path")
            return path.length

        return run_length
    if expr.name == "id":

        def run_id(row: Row, params: dict) -> Any:
            (ref,) = [fn(row, params) for fn in arg_fns]
            if isinstance(ref, (NodeRef, RelRef)):
                return ref.id
            raise CypherRuntimeError("id() expects a node or relationship")

        return run_id
    if expr.name == "labels":

        def run_labels(row: Row, params: dict) -> Any:
            (ref,) = [fn(row, params) for fn in arg_fns]
            if isinstance(ref, NodeRef):
                return list(store.node_labels(ref.id))
            raise CypherRuntimeError("labels() expects a node")

        return run_labels
    raise CompileError(f"cannot compile function {expr.name}()")
