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

The order, the term binder, the triple join, the FILTER builder and
the SELECT clause are defined here once; :mod:`repro.exec.sparqlc`
wraps the same definitions in compiled-mode pricing.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from functools import partial
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

    @property
    def stats_order(self) -> bool:
        """Whether patterns are ordered by statistics estimates."""
        return self.order_mode == "stats" and self._stats is not None

    def run(
        self, query: ast.SparqlQuery, params: dict[str, Any] | None = None
    ) -> list[tuple]:
        params = params or {}
        rows: list[Row] = [{}]
        pending = [
            (compile_filter(flt.expr, _charge_node), filter_vars(flt.expr))
            for flt in query.filters
        ]
        bound: set[str] = set()
        for pattern, before, bound in self.order_patterns(
            query.patterns, params
        ):
            matched, rows = join_pattern(self.store, pattern, before)(
                rows, params
            )
            if matched:
                charge("tuple_cpu", matched)
            if not rows:
                break
            for predicate, needs in pending:
                if needs <= bound:
                    rows = [row for row in rows if predicate(row, params)]
            pending = [
                (predicate, needs)
                for predicate, needs in pending
                if not needs <= bound
            ]
        for predicate, _ in pending:
            rows = [row for row in rows if predicate(row, params)]
        return compile_select(query, bound, _charge_projected)(rows)

    # -- join order ---------------------------------------------------------

    def order_patterns(
        self, patterns: Sequence[ast.TriplePattern], params: dict
    ) -> Iterator[tuple[ast.TriplePattern, set[str], set[str]]]:
        """The greedy join order as ``(pattern, bound before, bound
        after)``, re-sorting the rest as variables bind (stable sorts:
        ties keep textual order).  Every join binds all of its pattern's
        variables in every row, so the order is data-independent.  Lazy:
        a caller that stops at an empty join stops estimating too."""
        remaining = list(patterns)
        bound: set[str] = set()
        while remaining:
            if self.order_mode != "textual":
                if self.stats_order:
                    remaining.sort(
                        key=lambda tp: self._estimated_matches(
                            tp, bound, params
                        )
                    )
                else:
                    remaining.sort(key=lambda tp: -self._boundness(tp, bound))
            pattern = remaining.pop(0)
            before, bound = bound, bound | pattern_vars(pattern)
            yield pattern, before, bound

    def _boundness(self, pattern: ast.TriplePattern, bound: set[str]) -> int:
        weighted = ((pattern.s, 4), (pattern.p, 1), (pattern.o, 2))
        return sum(w for t, w in weighted if _is_bound(t, bound))

    def _estimated_matches(
        self,
        pattern: ast.TriplePattern,
        bound: set[str],
        params: dict,
    ) -> float:
        """Estimated matching triples per candidate row (stats order)."""
        assert self.stats is not None
        s_bound = _is_bound(pattern.s, bound)
        o_bound = _is_bound(pattern.o, bound)
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


def _is_bound(term: ast.Term, bound: set[str]) -> bool:
    return not isinstance(term, ast.Var) or term.name in bound


#: the interpreter's price per FILTER node evaluated
_charge_node = partial(charge, "value_cpu")


def _charge_projected(projected: list[tuple], aggregate: bool) -> None:
    """The interpreter's price per projected value (COUNT row included)."""
    charge("value_cpu", sum(len(row) for row in projected))


# -- charge-free definitions, shared with exec/sparqlc.py --------------------
#
# Each one means the same under both execution modes; the interpreter
# above and the compiled stages wrap them in their own prices.

#: (rows, params) -> (matched triples, extended rows)
JoinFn = Callable[[list[Row], dict], tuple[int, list[Row]]]


def pattern_vars(pattern: ast.TriplePattern) -> set[str]:
    """The variables a triple pattern binds."""
    return {
        term.name
        for term in (pattern.s, pattern.p, pattern.o)
        if isinstance(term, ast.Var)
    }


def term_value(term: ast.Term) -> Callable[[Row, dict], Any]:
    """The one term binder: ``term``'s value in a row under params.

    A variable the row does not bind reads as None; a ``$param`` missing
    from the params raises.
    """
    if isinstance(term, ast.Var):
        name = term.name
        return lambda row, params: row.get(name)
    if isinstance(term, ast.ParamTerm):
        name = term.name

        def param_value(row: Row, params: dict) -> Any:
            try:
                return params[name]
            except KeyError:
                raise SparqlRuntimeError(
                    f"missing parameter ${name}"
                ) from None

        return param_value
    if isinstance(term, (ast.Iri, ast.LiteralTerm)):
        value = term.value
        return lambda row, params: value
    raise SparqlRuntimeError(f"unknown term {term!r}")


def join_pattern(
    store: TripleStore, pattern: ast.TriplePattern, bound: set[str]
) -> JoinFn:
    """The triple join: extend each row by every triple matching
    ``pattern`` (an index nested-loop join; ``bound``: the variables
    every incoming row binds).

    Per row, every bound term is resolved before the first term
    dictionary lookup, so a missing ``$param`` raises however the
    lookups (s, p, o order, stopping at the first miss) would go.
    Returns the number of triples matched — before the check that a
    variable repeated in the pattern binds one value — and the rows.
    """
    terms = (pattern.s, pattern.p, pattern.o)
    getters = [term_value(t) if _is_bound(t, bound) else None for t in terms]
    var_positions = [
        (position, term.name)
        for position, term in enumerate(terms)
        if isinstance(term, ast.Var)
    ]

    def join(rows: list[Row], params: dict) -> tuple[int, list[Row]]:
        matched = 0
        out: list[Row] = []
        for row in rows:
            values = [
                None if get is None else get(row, params) for get in getters
            ]
            lookup: list[int | None] = []
            for get, value in zip(getters, values):
                if get is not None:
                    value = store.lookup_term(value)
                    if value is None:  # not in the store: matches nothing
                        break
                lookup.append(value)
            else:
                for ids in store.match_ids(*lookup):
                    matched += 1
                    new_row = dict(row)
                    for position, name in var_positions:
                        value = store.term(ids[position])
                        if new_row.setdefault(name, value) != value:
                            break
                    else:
                        out.append(new_row)
        return matched, out

    return join


def compile_filter(
    expr: ast.FilterExpr, charge_node: Callable[[], None]
) -> Callable[[Row, dict], bool]:
    """The one FILTER definition: ``expr`` as a row predicate.

    ``charge_node()`` is the caller's price for each node evaluated
    (operands a connective short-circuits are not evaluated).  Unbound
    variables read as None, and a comparison with None is false.
    """
    if isinstance(expr, ast.BoolOp):
        left = compile_filter(expr.left, charge_node)
        right = compile_filter(expr.right, charge_node)
        if expr.op == "AND":

            def conjunction(row: Row, params: dict) -> bool:
                charge_node()
                return left(row, params) and right(row, params)

            return conjunction

        def disjunction(row: Row, params: dict) -> bool:
            charge_node()
            return left(row, params) or right(row, params)

        return disjunction
    if isinstance(expr, ast.NotOp):
        operand = compile_filter(expr.operand, charge_node)

        def negation(row: Row, params: dict) -> bool:
            charge_node()
            return not operand(row, params)

        return negation
    if isinstance(expr, ast.Comparison):
        left_fn = term_value(expr.left)
        right_fn = term_value(expr.right)
        op = expr.op

        def comparison(row: Row, params: dict) -> bool:
            charge_node()
            lv, rv = left_fn(row, params), right_fn(row, params)
            if lv is None or rv is None:
                return False
            # every operator is evaluated: operands of unorderable types
            # raise TypeError whichever one the filter uses
            return {
                "=": lv == rv,
                "<>": lv != rv,
                "<": lv < rv,
                "<=": lv <= rv,
                ">": lv > rv,
                ">=": lv >= rv,
            }[op]

        return comparison
    if isinstance(expr, ast.InFilter):
        needle_fn = term_value(expr.needle)
        item_fns = [term_value(item) for item in expr.items]
        negated = expr.negated

        def membership(row: Row, params: dict) -> bool:
            charge_node()
            needle = needle_fn(row, params)
            found = needle in [fn(row, params) for fn in item_fns]
            return not found if negated else found

        return membership
    raise SparqlRuntimeError(f"unknown filter {expr!r}")


def compile_select(
    query: ast.SparqlQuery,
    all_vars: set[str],
    charge_projected: Callable[[list[tuple], bool], None],
) -> Callable[[list[Row]], list[tuple]]:
    """The SELECT clause: the COUNT row or each row's selected variables
    (``*``: ``all_vars``, sorted), then DISTINCT -> ORDER BY -> LIMIT.

    ``charge_projected(projected, aggregate)`` is the caller's price for
    the projected rows (``aggregate``: the COUNT row); DISTINCT's
    membership test folds into it.  A shape that can never run (see
    :func:`order_columns`, :func:`count_row`) raises when this runs.
    """
    aggregate = any(item.count for item in query.items)
    if query.star:
        names = sorted(all_vars)
    elif aggregate:
        names = []
    else:
        names = [item.var.name for item in query.items]  # type: ignore[union-attr]

    def select(rows: list[Row]) -> list[tuple]:
        if query.star and not rows:
            return []
        if aggregate:
            projected = [count_row(rows, query)]
        else:
            projected = [tuple(row.get(n) for n in names) for row in rows]
        charge_projected(projected, aggregate)
        order = order_columns(query)
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

    return select


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
