"""Cypher plan-to-closure compiler (read-only statements): MATCH.

Compiles a parsed+planned query — the object the engine's epoch-keyed
statement cache stores — into one closure per clause: anchor selection
and pattern ordering are decided **at compile time** using the same
statistics code the interpreter consults per row, and pattern expansion
runs level-synchronous over row batches, fetching adjacency and node
records through the store's deduplicating batch APIs.  That is a
different algorithm from the interpreter's depth-first matching, with
different storage charges, and the only Cypher code of this module;
expression closures and the RETURN tail are the interpreter's own
(:mod:`repro.graphdb.cypher.evaluator`), handed the vectorized row
charge.

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

from collections.abc import Callable
from typing import Any

from repro.exec.batch import batched
from repro.exec.errors import CompileError
from repro.exec.kernels import expand_frontier
from repro.graphdb.cypher import ast
from repro.graphdb.cypher.evaluator import (
    CypherRuntimeError,
    NodeRef,
    PathRef,
    RelRef,
    Row,
    compile_expr,
    compile_return,
)
from repro.graphdb.cypher.executor import (
    FLIP,
    TO_DIRECTION,
    CypherExecutor,
    WriteSummary,
    pattern_variables,
)
from repro.graphdb.store import GraphStore
from repro.simclock.ledger import charge
from repro.stats import GraphStatistics, choose_batch_size

#: (origin row index, bindings, cursor node, anchor node, used rel ids)
_State = tuple[int, Row, int, int, frozenset]
CompiledCypher = Callable[
    [dict[str, Any] | None], tuple[list[tuple], WriteSummary]
]

#: rows per dispatched batch at the MATCH-filter and RETURN levels
_CHUNK = 1024

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
    try:
        project = compile_return(query.returns, store, _charge_chunks)
    except CypherRuntimeError as error:
        # the interpreter reports it when the statement runs
        raise CompileError(str(error)) from None

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
        compile_expr(clause.where, store)
        if clause.where is not None
        else None
    )
    pattern_vars = pattern_variables(clause.patterns)
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
        if (where_fn is not None or optional) and items:
            # the filter / left-outer merge is the only per-item work at
            # this level; a plain MATCH is pass-through and dispatches
            # nothing
            _charge_chunks(len(items))
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
            FLIP[rels[pos - 1].direction],
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
                value_fn = compile_expr(expr, store)
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
        (key, compile_expr(expr, store)) for key, expr in node.props
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
    store_dir = TO_DIRECTION[direction]
    rel_prop_fns = [
        (key, compile_expr(expr, store)) for key, expr in rel.props
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


def _charge_chunks(count: int) -> None:
    """The vectorized price of ``count`` (> 0) rows: one dispatch per
    chunk, ``tuple_vec`` per row."""
    charge("vector_setup", -(-count // _CHUNK))
    charge("tuple_vec", count)
