"""BGP evaluation over the triple store.

Translation (charged as ``sparql_translate`` once per query text by the
engine) greedily orders triple patterns, then evaluates them as index
nested-loop joins over the SPO/POS/OSP indexes — the classic triple-table
plan shape SPARQL engines compile to SQL.

Pattern order (``order_mode``):

* ``"stats"`` (after ``ANALYZE``) — smallest estimated matching-triple
  count first, from per-predicate counts and distinct subject/object
  cardinalities;
* ``"boundness"`` (default) — most-bound-first heuristic;
* ``"textual"`` — as written (the strawman the benchmark compares
  against).
"""

from __future__ import annotations

from typing import Any

from repro.cache import LRUCache
from repro.rdf.sparql import parser as ast
from repro.rdf.triples import TripleStore
from repro.simclock.ledger import charge
from repro.stats import TripleStatistics


class SparqlRuntimeError(Exception):
    pass


Row = dict[str, Any]


class SparqlExecutor:
    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self._stats: TripleStatistics | None = None
        #: (s_bound, predicate, o_bound) -> estimated matches; derived
        #: from the stats snapshot, so installing new stats clears it
        self._estimate_memo = LRUCache(1024, name="sparql-estimates")
        self.order_mode = "boundness"

    @property
    def stats(self) -> TripleStatistics | None:
        return self._stats

    @stats.setter
    def stats(self, value: TripleStatistics | None) -> None:
        self._stats = value
        self._estimate_memo.invalidate_all()

    @property
    def estimate_cache(self) -> LRUCache:
        return self._estimate_memo

    def run(
        self, query: ast.SparqlQuery, params: dict[str, Any] | None = None
    ) -> list[tuple]:
        params = params or {}
        rows: list[Row] = [{}]
        patterns = list(query.patterns)
        pending_filters = list(query.filters)
        use_stats = self.order_mode == "stats" and self.stats is not None
        while patterns:
            # greedy join order, recomputed as variables bind; sorts are
            # stable, so ties fall back to textual order
            bound_vars = set(rows[0]) if rows else set()
            if self.order_mode != "textual":
                if use_stats:
                    patterns.sort(
                        key=lambda tp: self._estimated_matches(
                            tp, bound_vars, params
                        )
                    )
                else:
                    patterns.sort(
                        key=lambda tp: -self._boundness(tp, bound_vars)
                    )
            pattern = patterns.pop(0)
            rows = self._join(rows, pattern, params)
            if not rows:
                break
            bound_now = set(rows[0])
            still_pending = []
            for flt in pending_filters:
                if filter_vars(flt.expr) <= bound_now:
                    rows = [
                        row
                        for row in rows
                        if self._eval_filter(flt.expr, row, params)
                    ]
                else:
                    still_pending.append(flt)
            pending_filters = still_pending
        for flt in pending_filters:
            rows = [
                row for row in rows if self._eval_filter(flt.expr, row, params)
            ]
        return self._project(rows, query)

    # -- joins ------------------------------------------------------------------

    def _boundness(self, pattern: ast.TriplePattern, bound: set[str]) -> int:
        score = 0
        for term, weight in ((pattern.s, 4), (pattern.p, 1), (pattern.o, 2)):
            if isinstance(term, ast.Var):
                if term.name in bound:
                    score += weight
            else:
                score += weight
        return score

    def _estimated_matches(
        self,
        pattern: ast.TriplePattern,
        bound: set[str],
        params: dict,
    ) -> float:
        """Estimated matching triples per candidate row (stats order)."""
        assert self.stats is not None
        s_bound = self._is_bound(pattern.s, bound)
        o_bound = self._is_bound(pattern.o, bound)
        predicate = None
        if not isinstance(pattern.p, ast.Var):
            if isinstance(pattern.p, ast.ParamTerm):
                predicate = params.get(pattern.p.name)
            else:
                predicate = pattern.p.value
        key = (s_bound, predicate, o_bound)
        estimate = self._estimate_memo.get(key)
        if estimate is None:
            estimate = self.stats.pattern_count(s_bound, predicate, o_bound)
            self._estimate_memo.put(key, estimate)
        return estimate  # type: ignore[no-any-return]

    @staticmethod
    def _is_bound(term: ast.Term, bound: set[str]) -> bool:
        if isinstance(term, ast.Var):
            return term.name in bound
        return True

    def _join(
        self, rows: list[Row], pattern: ast.TriplePattern, params: dict
    ) -> list[Row]:
        out: list[Row] = []
        for row in rows:
            spo = [
                self._resolve(term, row, params)
                for term in (pattern.s, pattern.p, pattern.o)
            ]
            lookup = []
            missing_term = False
            for bound, value in spo:
                if not bound:
                    lookup.append(None)
                    continue
                term_id = self.store.lookup_term(value)
                if term_id is None:
                    missing_term = True
                    break
                lookup.append(term_id)
            if missing_term:
                continue
            for s_id, p_id, o_id in self.store.match_ids(*lookup):
                charge("tuple_cpu")
                new_row = dict(row)
                ok = True
                for term, term_id in zip(
                    (pattern.s, pattern.p, pattern.o), (s_id, p_id, o_id)
                ):
                    if isinstance(term, ast.Var):
                        value = self.store.term(term_id)
                        if term.name in new_row:
                            if new_row[term.name] != value:
                                ok = False
                                break
                        else:
                            new_row[term.name] = value
                if ok:
                    out.append(new_row)
        return out

    def _resolve(
        self, term: ast.Term, row: Row, params: dict
    ) -> tuple[bool, Any]:
        """(is_bound, value) for a term in the current row context."""
        if isinstance(term, ast.Var):
            if term.name in row:
                return True, row[term.name]
            return False, None
        if isinstance(term, ast.ParamTerm):
            try:
                return True, params[term.name]
            except KeyError:
                raise SparqlRuntimeError(
                    f"missing parameter ${term.name}"
                ) from None
        if isinstance(term, ast.Iri):
            return True, term.value
        return True, term.value  # LiteralTerm

    # -- filters -----------------------------------------------------------------

    def _eval_filter(
        self, expr: ast.FilterExpr, row: Row, params: dict
    ) -> bool:
        charge("value_cpu")
        if isinstance(expr, ast.BoolOp):
            left = self._eval_filter(expr.left, row, params)
            if expr.op == "AND":
                return left and self._eval_filter(expr.right, row, params)
            return left or self._eval_filter(expr.right, row, params)
        if isinstance(expr, ast.NotOp):
            return not self._eval_filter(expr.operand, row, params)
        if isinstance(expr, ast.Comparison):
            _, left = self._resolve(expr.left, row, params)
            _, right = self._resolve(expr.right, row, params)
            if left is None or right is None:
                return False
            return {
                "=": left == right,
                "<>": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[expr.op]
        if isinstance(expr, ast.InFilter):
            _, needle = self._resolve(expr.needle, row, params)
            values = [
                self._resolve(item, row, params)[1] for item in expr.items
            ]
            found = needle in values
            return not found if expr.negated else found
        raise SparqlRuntimeError(f"unknown filter {expr!r}")

    # -- projection ----------------------------------------------------------------

    def _project(self, rows: list[Row], query: ast.SparqlQuery) -> list[tuple]:
        if query.star:
            if not rows:
                return []
            names = sorted(rows[0])
            projected = [tuple(row.get(n) for n in names) for row in rows]
        elif any(item.count for item in query.items):
            projected = [count_row(rows, query)]
        else:
            names = [item.var.name for item in query.items]  # type: ignore[union-attr]
            projected = [
                tuple(row.get(n) for n in names) for row in rows
            ]
        charge("value_cpu", sum(len(r) for r in projected))
        return select_tail(projected, query, order_columns(query))


# -- charge-free pieces shared with the compiled path (exec/sparqlc.py) --------


def filter_vars(expr: ast.FilterExpr) -> set[str]:
    """The variables a FILTER needs bound before it can run."""
    if isinstance(expr, ast.Comparison):
        terms: tuple = (expr.left, expr.right)
    elif isinstance(expr, ast.InFilter):
        terms = (expr.needle, *expr.items)
    elif isinstance(expr, ast.BoolOp):
        return filter_vars(expr.left) | filter_vars(expr.right)
    elif isinstance(expr, ast.NotOp):
        return filter_vars(expr.operand)
    else:
        raise SparqlRuntimeError(f"unknown filter {expr!r}")
    return {term.name for term in terms if isinstance(term, ast.Var)}


def count_row(rows: list[Row], query: ast.SparqlQuery) -> tuple:
    """The single result row of an all-COUNT SELECT (three COUNT forms)."""
    values = []
    for item in query.items:
        if not item.count:
            raise SparqlRuntimeError(
                "mixing plain variables with COUNT needs GROUP BY "
                "(unsupported)"
            )
        if item.var is None:  # COUNT(*)
            values.append(len(rows))
            continue
        bound = [
            row[item.var.name]
            for row in rows
            if row.get(item.var.name) is not None
        ]
        values.append(len(set(bound)) if item.count_distinct else len(bound))
    return tuple(values)


def order_columns(query: ast.SparqlQuery) -> list[tuple[int, bool]]:
    """ORDER BY as ``(column index, descending)`` pairs, or raise."""
    if not query.order_by:
        return []
    if query.star or any(item.count for item in query.items):
        raise SparqlRuntimeError(
            "ORDER BY requires explicit SELECT variables"
        )
    names = [item.var.name for item in query.items]  # type: ignore[union-attr]
    columns = []
    for order in query.order_by:
        if order.var.name not in names:
            raise SparqlRuntimeError(
                f"ORDER BY variable ?{order.var.name} not selected"
            )
        columns.append((names.index(order.var.name), order.descending))
    return columns


def select_tail(
    projected: list[tuple],
    query: ast.SparqlQuery,
    order: list[tuple[int, bool]],
) -> list[tuple]:
    """DISTINCT -> ORDER BY -> LIMIT over projected rows.

    No ``hash_probe`` for DISTINCT: membership folds into the per-value
    projection charge, in both execution modes.
    """
    if query.distinct:
        projected = list(dict.fromkeys(projected))
    for idx, descending in reversed(order):
        projected.sort(
            key=lambda r: (r[idx] is not None, r[idx]),
            reverse=descending,
        )
    if query.limit is not None:
        projected = projected[: query.limit]
    return projected
