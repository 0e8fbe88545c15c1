"""Cypher execution: pattern matching, writes, and projection.

Rows are ``dict[var, value]`` where values are :class:`NodeRef`,
:class:`RelRef`, :class:`PathRef`, or scalars.  Matching anchors each chain
at the cheapest node pattern (bound variable > schema index > label scan >
all-nodes scan) and expands outward through the relationship chains of the
record store.

Relationship uniqueness is enforced per path pattern (no relationship is
used twice in one chain), matching Cypher's semantics for the queries in
scope.  Every intermediate row charges ``cypher_row`` — the interpreted
runtime overhead of the Neo4j-2.3-era Cypher engine, visible in the
paper's point-lookup latencies.

What expressions and RETURN *mean* is defined once, in
:mod:`repro.graphdb.cypher.evaluator`; this module is the row-at-a-time
driver around it (depth-first MATCH, CREATE, SET, ``cypher_row``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.graphdb.cypher import ast
from repro.graphdb.cypher.evaluator import (
    CypherRuntimeError,
    NodeRef,
    PathRef,
    RelRef,
    ValueFn,
    compile_expr,
    compile_return,
)
from repro.graphdb.store import Direction, GraphStore
from repro.simclock.ledger import charge
from repro.stats import GraphStatistics

FLIP = {"out": "in", "in": "out", "both": "both"}
TO_DIRECTION = {
    "out": Direction.OUT,
    "in": Direction.IN,
    "both": Direction.BOTH,
}

#: closures kept per executor before the table starts over (the
#: engine's statement cache holds as many statements)
_MAX_CLOSURES = 4096


@dataclass
class WriteSummary:
    nodes_created: int = 0
    relationships_created: int = 0
    properties_set: int = 0


class CypherExecutor:
    def __init__(self, store: GraphStore) -> None:
        self.store = store
        self.stats: GraphStatistics | None = None
        #: frozen AST node -> its evaluator closure; the closures bind
        #: the node and the store only, so no epoch can stale them
        self._closures: dict[Any, Callable] = {}

    # -- entry point ------------------------------------------------------------

    def run(
        self, query: ast.Query, params: dict[str, Any] | None = None
    ) -> tuple[list[tuple], WriteSummary]:
        params = params or {}
        summary = WriteSummary()
        rows: list[dict[str, Any]] = [{}]
        for clause in query.clauses:
            if isinstance(clause, ast.MatchClause):
                rows = self._match(rows, clause, params)
            elif isinstance(clause, ast.CreateClause):
                rows = self._create(rows, clause, params, summary)
            elif isinstance(clause, ast.SetClause):
                rows = self._set(rows, clause, params, summary)
            else:
                raise CypherRuntimeError(
                    f"unsupported clause {type(clause).__name__}"
                )
        if query.returns is None:
            return [], summary
        project = self._closure(query.returns, compile_return, _charge_rows)
        return project(rows, params), summary

    # -- evaluator closures --------------------------------------------------------

    def _closure(self, node: Any, build: Callable, *extra: Any) -> Callable:
        """``build(node, store, *extra)``, at most once per cached statement."""
        fn = self._closures.get(node)
        if fn is None:
            if len(self._closures) >= _MAX_CLOSURES:
                self._closures.clear()
            fn = self._closures[node] = build(node, self.store, *extra)
        return fn

    def _fn(self, expr: ast.Expr) -> ValueFn:
        return self._closure(expr, compile_expr)

    # -- MATCH ----------------------------------------------------------------------

    def _match(
        self, rows: list[dict], clause: ast.MatchClause, params: dict
    ) -> list[dict]:
        out: list[dict] = []
        pattern_vars = pattern_variables(clause.patterns)
        patterns = self._order_patterns(
            list(clause.patterns), set(rows[0]) if rows else set()
        )
        where = None if clause.where is None else self._fn(clause.where)
        for row in rows:
            matched = False
            for candidate in self._match_patterns(row, patterns, params):
                if where is not None and not where(candidate, params):
                    continue
                charge("cypher_row")
                matched = True
                out.append(candidate)
            if not matched and clause.optional:
                padded = dict(row)
                for var in pattern_vars:
                    padded.setdefault(var, None)
                out.append(padded)
        return out

    def _match_patterns(
        self, row: dict, patterns: list[ast.PathPattern], params: dict
    ) -> Iterator[dict]:
        if not patterns:
            yield row
            return
        head, rest = patterns[0], patterns[1:]
        for bound in self._match_one(row, head, params):
            yield from self._match_patterns(bound, rest, params)

    def _match_one(
        self, row: dict, pattern: ast.PathPattern, params: dict
    ) -> Iterator[dict]:
        if pattern.shortest:
            yield from self._match_shortest(row, pattern, params)
            return
        nodes = pattern.nodes
        rels = pattern.rels
        anchor = self._pick_anchor(row, nodes, rels)
        for anchor_id in self._node_candidates(row, nodes[anchor], params):
            base = dict(row)
            if nodes[anchor].var:
                base[nodes[anchor].var] = NodeRef(anchor_id)
            yield from self._expand(
                base, nodes, rels, anchor, anchor_id, frozenset(), params
            )

    def _expand(
        self,
        row: dict,
        nodes: list[ast.NodePattern],
        rels: list[ast.RelPattern],
        anchor: int,
        anchor_id: int,
        used: frozenset,
        params: dict,
    ) -> Iterator[dict]:
        """Expand right of the anchor, then left, backtracking-style."""

        def go_right(
            row: dict, pos: int, node_id: int, used: frozenset
        ) -> Iterator[dict]:
            if pos == len(rels):
                yield from go_left(row, anchor, anchor_node_of(row), used)
                return
            rel = rels[pos]
            target = nodes[pos + 1]
            for new_row, new_used, next_id in self._step(
                row, node_id, rel, target, rel.direction, used, params
            ):
                yield from go_right(new_row, pos + 1, next_id, new_used)

        def anchor_node_of(row: dict) -> int:
            return anchor_id

        def go_left(
            row: dict, pos: int, node_id: int, used: frozenset
        ) -> Iterator[dict]:
            if pos == 0:
                yield row
                return
            rel = rels[pos - 1]
            target = nodes[pos - 1]
            for new_row, new_used, next_id in self._step(
                row, node_id, rel, target, FLIP[rel.direction], used, params
            ):
                yield from go_left(new_row, pos - 1, next_id, new_used)

        yield from go_right(row, anchor, anchor_id, used)

    def _step(
        self,
        row: dict,
        node_id: int,
        rel: ast.RelPattern,
        target: ast.NodePattern,
        direction: str,
        used: frozenset,
        params: dict,
    ) -> Iterator[tuple[dict, frozenset, int]]:
        """One hop (or var-length expansion) from ``node_id``."""
        rel_type = rel.types[0] if rel.types else None
        store_dir = TO_DIRECTION[direction]
        if not rel.var_length:
            for rel_id, other in self.store.relationships(
                node_id, rel_type, store_dir
            ):
                if rel_id in used:
                    continue
                if rel.props and not self._props_match(
                    self.store.rel_props(rel_id), rel.props, row, params
                ):
                    continue
                if not self._node_matches(other, target, row, params):
                    continue
                new_row = dict(row)
                if rel.var:
                    new_row[rel.var] = RelRef(rel_id)
                if target.var:
                    new_row[target.var] = NodeRef(other)
                yield new_row, used | {rel_id}, other
            return
        if rel.max_hops < 0:
            raise CypherRuntimeError(
                "unbounded variable-length patterns require shortestPath()"
            )
        if rel.var:
            raise CypherRuntimeError(
                "binding a variable-length relationship is not supported"
            )
        # DFS over simple paths of allowed depth
        stack = [(node_id, 0, used, frozenset({node_id}))]
        while stack:
            current, depth, path_used, visited = stack.pop()
            if depth >= rel.max_hops:
                continue
            for rel_id, other in self.store.relationships(
                current, rel_type, store_dir
            ):
                if rel_id in path_used or other in visited:
                    continue
                next_used = path_used | {rel_id}
                if depth + 1 >= rel.min_hops and self._node_matches(
                    other, target, row, params
                ):
                    new_row = dict(row)
                    if target.var:
                        new_row[target.var] = NodeRef(other)
                    yield new_row, next_used, other
                stack.append(
                    (other, depth + 1, next_used, visited | {other})
                )

    # -- shortestPath ----------------------------------------------------------------

    def _match_shortest(
        self, row: dict, pattern: ast.PathPattern, params: dict
    ) -> Iterator[dict]:
        nodes = pattern.nodes
        rels = pattern.rels
        if len(nodes) != 2 or len(rels) != 1:
            raise CypherRuntimeError(
                "shortestPath() expects a single relationship pattern"
            )
        rel = rels[0]
        sources = self._node_candidates(row, nodes[0], params)
        targets = self._node_candidates(row, nodes[1], params)
        if not sources or not targets:
            return
        if len(sources) > 1 or len(targets) > 1:
            raise CypherRuntimeError(
                "shortestPath() endpoints must be uniquely identified"
            )
        source, target = sources[0], targets[0]
        path = self._bfs_shortest(source, target, rel)
        if path is None:
            return
        new_row = dict(row)
        if nodes[0].var:
            new_row[nodes[0].var] = NodeRef(source)
        if nodes[1].var:
            new_row[nodes[1].var] = NodeRef(target)
        if pattern.assign_var:
            new_row[pattern.assign_var] = PathRef(path, len(path) - 1)
        yield new_row

    def _bfs_shortest(
        self, source: int, target: int, rel: ast.RelPattern
    ) -> tuple[int, ...] | None:
        """Bidirectional BFS over the relationship chains (index-free)."""
        if source == target:
            return (source,)
        rel_type = rel.types[0] if rel.types else None
        max_hops = rel.max_hops if rel.max_hops > 0 else 128
        fwd_dir = TO_DIRECTION[rel.direction]
        bwd_dir = TO_DIRECTION[FLIP[rel.direction]]
        parent_f: dict[int, int | None] = {source: None}
        parent_b: dict[int, int | None] = {target: None}
        frontier_f, frontier_b = [source], [target]
        hops = 0
        while frontier_f and frontier_b and hops < max_hops:
            hops += 1
            if len(frontier_f) <= len(frontier_b):
                frontier, parents, others, direction, forward = (
                    frontier_f, parent_f, parent_b, fwd_dir, True,
                )
            else:
                frontier, parents, others, direction, forward = (
                    frontier_b, parent_b, parent_f, bwd_dir, False,
                )
            next_frontier: list[int] = []
            meet: int | None = None
            for node in frontier:
                for _rel_id, other in self.store.relationships(
                    node, rel_type, direction
                ):
                    if other not in parents:
                        parents[other] = node
                        next_frontier.append(other)
                    if other in others and meet is None:
                        meet = other
            if meet is not None:
                return self._stitch(meet, parent_f, parent_b)
            if forward:
                frontier_f = next_frontier
            else:
                frontier_b = next_frontier
        return None

    @staticmethod
    def _stitch(
        meet: int,
        parent_f: dict[int, int | None],
        parent_b: dict[int, int | None],
    ) -> tuple[int, ...]:
        left: list[int] = []
        node: int | None = meet
        while node is not None:
            left.append(node)
            node = parent_f[node]
        left.reverse()
        node = parent_b[meet]
        while node is not None:
            left.append(node)
            node = parent_b[node]
        return tuple(left)

    # -- candidates / filters ------------------------------------------------------------

    def _pick_anchor(
        self,
        row: dict,
        nodes: list[ast.NodePattern],
        rels: list[ast.RelPattern],
    ) -> int:
        if self.stats is not None:
            bound = {
                node.var
                for node in nodes
                if node.var and isinstance(row.get(node.var), NodeRef)
            }
            best, best_cost = 0, self._chain_cost(nodes, rels, 0, bound)
            for i in range(1, len(nodes)):
                cost = self._chain_cost(nodes, rels, i, bound)
                if cost < best_cost:
                    best, best_cost = i, cost
            return best
        # stats-free heuristic: bound > indexed > labelled > first
        for i, node in enumerate(nodes):  # already-bound variable
            if node.var and isinstance(row.get(node.var), NodeRef):
                return i
        for i, node in enumerate(nodes):  # indexed label+prop equality
            for label in node.labels:
                for key, _ in node.props:
                    if self.store.has_index(label, key):
                        return i
        for i, node in enumerate(nodes):  # any label to scan
            if node.labels:
                return i
        return 0

    # -- cost estimation (requires ANALYZE) -----------------------------------

    def _order_patterns(
        self, patterns: list[ast.PathPattern], bound: set[str]
    ) -> list[ast.PathPattern]:
        """Cheapest-first ordering of a MATCH clause's path patterns.

        Patterns in one MATCH are an inner join, so order cannot change
        the result set — only how many partial rows get enumerated.
        Greedy: pick the pattern with the smallest estimated row count,
        treating variables bound by already-picked patterns as bound.
        """
        if self.stats is None or len(patterns) < 2:
            return patterns
        bound = set(bound)
        ordered: list[ast.PathPattern] = []
        remaining = list(patterns)
        while remaining:
            best = remaining[0]
            best_cost = self._pattern_cost(best, bound)
            for pattern in remaining[1:]:
                cost = self._pattern_cost(pattern, bound)
                if cost < best_cost:
                    best, best_cost = pattern, cost
            ordered.append(best)
            remaining.remove(best)
            for element in best.elements:
                var = getattr(element, "var", None)
                if var:
                    bound.add(var)
            if best.assign_var:
                bound.add(best.assign_var)
        return ordered

    def _pattern_cost(
        self, pattern: ast.PathPattern, bound: set[str]
    ) -> float:
        if pattern.shortest:
            return 1.0  # endpoints must be uniquely identified anyway
        nodes = list(pattern.nodes)
        rels = list(pattern.rels)
        return min(
            self._chain_cost(nodes, rels, i, bound)
            for i in range(len(nodes))
        )

    def _chain_cost(
        self,
        nodes: list[ast.NodePattern],
        rels: list[ast.RelPattern],
        anchor: int,
        bound: set[str],
    ) -> float:
        """Estimated rows from anchoring at ``nodes[anchor]``.

        Anchor candidate count times the average fan-out of every hop in
        the direction it is traversed (right of the anchor as written,
        left of it flipped).
        """
        assert self.stats is not None
        cost = self._anchor_estimate(nodes[anchor], bound)
        for pos in range(anchor, len(rels)):  # expanding right
            cost *= self._hop_degree(rels[pos], flipped=False)
        for pos in range(anchor - 1, -1, -1):  # expanding left
            cost *= self._hop_degree(rels[pos], flipped=True)
        return cost

    def _anchor_estimate(
        self, node: ast.NodePattern, bound: set[str]
    ) -> float:
        assert self.stats is not None
        if node.var and node.var in bound:
            return 0.5  # a bound ref beats even a unique index lookup
        for label in node.labels:
            label_count = self.stats.label_count(label)
            if label_count is None:
                label_count = self.store.label_count(label)
            for key, _ in node.props:
                if self.store.has_index(label, key):
                    distinct = self.stats.prop_distinct.get((label, key))
                    return max(
                        label_count / max(distinct or label_count, 1), 1.0
                    )
        if node.labels:
            label_count = self.stats.label_count(node.labels[0])
            if label_count is None:
                label_count = self.store.label_count(node.labels[0])
            return float(max(label_count, 1))
        return float(max(self.stats.node_count, 1))

    def _hop_degree(self, rel: ast.RelPattern, flipped: bool) -> float:
        assert self.stats is not None
        rel_type = rel.types[0] if rel.types else None
        direction = FLIP[rel.direction] if flipped else rel.direction
        degree = max(self.stats.avg_degree(rel_type, direction), 0.1)
        if rel.var_length and rel.max_hops > 1:
            degree = degree ** min(rel.max_hops, 4)
        return degree

    def _node_candidates(
        self, row: dict, node: ast.NodePattern, params: dict
    ) -> list[int]:
        if node.var and isinstance(row.get(node.var), NodeRef):
            candidate = row[node.var].id
            return (
                [candidate]
                if self._node_matches(candidate, node, row, params)
                else []
            )
        for label in node.labels:
            for key, expr in node.props:
                if self.store.has_index(label, key):
                    value = self._fn(expr)(row, params)
                    return [
                        nid
                        for nid in self.store.lookup(label, key, value)
                        if self._node_matches(nid, node, row, params)
                    ]
        # the scan and _node_matches' checks as one store loop; the
        # property expressions still run per candidate ({id: a.id}
        # charges a node_prop each time)
        wanted = [(key, self._fn(expr)) for key, expr in node.props]

        def match(props: dict) -> bool:
            for key, value in wanted:
                if props.get(key) != value(row, params):
                    return False
            return True

        return self.store.match_nodes(node.labels, match if wanted else None)

    def _node_matches(
        self, node_id: int, pattern: ast.NodePattern, row: dict, params: dict
    ) -> bool:
        if pattern.var:
            bound = row.get(pattern.var)
            if isinstance(bound, NodeRef) and bound.id != node_id:
                return False
        if pattern.labels:
            labels = self.store.node_labels(node_id)
            if not all(label in labels for label in pattern.labels):
                return False
        if pattern.props:
            props = self.store.node_props(node_id)
            if not self._props_match(props, pattern.props, row, params):
                return False
        return True

    def _props_match(
        self,
        props: dict,
        wanted: tuple[tuple[str, ast.Expr], ...],
        row: dict,
        params: dict,
    ) -> bool:
        return all(
            props.get(key) == self._fn(expr)(row, params)
            for key, expr in wanted
        )

    # -- CREATE / SET --------------------------------------------------------------------

    def _create(
        self,
        rows: list[dict],
        clause: ast.CreateClause,
        params: dict,
        summary: WriteSummary,
    ) -> list[dict]:
        out = []
        for row in rows:
            new_row = dict(row)
            for pattern in clause.patterns:
                if pattern.shortest:
                    raise CypherRuntimeError("cannot CREATE a shortestPath")
                nodes = pattern.nodes
                rels = pattern.rels
                node_ids: list[int] = []
                for node in nodes:
                    bound = new_row.get(node.var) if node.var else None
                    if isinstance(bound, NodeRef):
                        node_ids.append(bound.id)
                        continue
                    props = {
                        key: self._fn(expr)(new_row, params)
                        for key, expr in node.props
                    }
                    node_id = self.store.create_node(node.labels, props)
                    summary.nodes_created += 1
                    if node.var:
                        new_row[node.var] = NodeRef(node_id)
                    node_ids.append(node_id)
                for i, rel in enumerate(rels):
                    if rel.direction == "both":
                        raise CypherRuntimeError(
                            "CREATE requires a directed relationship"
                        )
                    if len(rel.types) != 1:
                        raise CypherRuntimeError(
                            "CREATE requires exactly one relationship type"
                        )
                    props = {
                        key: self._fn(expr)(new_row, params)
                        for key, expr in rel.props
                    }
                    start, end = node_ids[i], node_ids[i + 1]
                    if rel.direction == "in":
                        start, end = end, start
                    rel_id = self.store.create_rel(
                        rel.types[0], start, end, props
                    )
                    summary.relationships_created += 1
                    if rel.var:
                        new_row[rel.var] = RelRef(rel_id)
            charge("cypher_row")
            out.append(new_row)
        return out

    def _set(
        self,
        rows: list[dict],
        clause: ast.SetClause,
        params: dict,
        summary: WriteSummary,
    ) -> list[dict]:
        for row in rows:
            for item in clause.items:
                target = row.get(item.target.var)
                if not isinstance(target, NodeRef):
                    raise CypherRuntimeError(
                        f"SET target {item.target.var!r} is not a node"
                    )
                value = self._fn(item.value)(row, params)
                self.store.set_node_prop(target.id, item.target.key, value)
                summary.properties_set += 1
        return rows


def _charge_rows(count: int) -> None:
    """The interpreted runtime's price for rows entering RETURN."""
    charge("cypher_row", count)


def pattern_variables(patterns: tuple[ast.PathPattern, ...]) -> list[str]:
    out = []
    for pattern in patterns:
        if pattern.assign_var:
            out.append(pattern.assign_var)
        for element in pattern.elements:
            if getattr(element, "var", None):
                out.append(element.var)
    return out
