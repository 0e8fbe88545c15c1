"""SPARQL BGPs compiled to vectorized join closures.

The interpreted executor re-sorts the remaining triple patterns on every
execution and walks the join row-at-a-time (``tuple_cpu`` per matched
triple).  :func:`compile_query` freezes the greedy pattern order at
compile time — the boundness progression is data-independent, because
every join binds all of its pattern's variables into every row — and
emits one closure per join/filter/projection stage.  Stages process row
batches (``vector_setup`` per batch, ``tuple_vec`` per emitted row)
while term-dictionary lookups and index scans go through the same
:class:`~repro.rdf.triples.TripleStore` calls as the interpreter, so
storage charges are identical in both modes.

The compiled order is exactly what the interpreter would compute with
the same statistics snapshot and ``order_mode``, so results (including
row order) are bit-identical.  The engine keys its closure cache by
``(order_mode, query text)`` and bumps the epoch on ``ANALYZE`` —
compiled orders can never outlive the statistics that chose them.

:class:`CompileError` (engine falls back to the interpreter):

* stats ordering when a pattern's *predicate* is a parameter — the
  order would depend on runtime parameter values,
* projection shapes the interpreter rejects at runtime (ORDER BY over
  ``*`` or aggregates, unselected ORDER BY variables, plain variables
  mixed with COUNT) — falling back preserves the interpreter's error,
* filter or term forms without a compiled equivalent.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.exec.batch import batched
from repro.exec.errors import CompileError
from repro.rdf.sparql import parser as ast
from repro.rdf.sparql.executor import (
    SparqlExecutor,
    SparqlRuntimeError,
    count_row,
    filter_vars,
    order_columns,
    select_tail,
)
from repro.rdf.triples import TripleStore
from repro.simclock.ledger import charge
from repro.stats.batching import choose_batch_size

#: a compiled SPARQL SELECT: params in, result rows out
CompiledSparql = Callable[[dict[str, Any] | None], list[tuple]]

Row = dict[str, Any]

#: (row, params) -> term value for a bound term
_TermFn = Callable[[Row, dict[str, Any]], Any]

#: a pipeline stage: (rows, params) -> rows
_Stage = Callable[[list[Row], dict[str, Any]], list[Row]]


def compile_query(
    query: ast.SparqlQuery,
    store: TripleStore,
    executor: SparqlExecutor,
) -> CompiledSparql:
    """Compile one SELECT against the executor's current ordering state.

    ``executor`` supplies ``order_mode``, the statistics snapshot and the
    estimate memo used to freeze the pattern order; it is not referenced
    by the returned closure.
    """
    ordered, bound_after = _order_patterns(query, executor)
    # compiled first: an unknown filter form is a CompileError here,
    # before filter_vars() would raise the interpreter's runtime error
    pending = [
        (_compile_filter(flt.expr), filter_vars(flt.expr))
        for flt in query.filters
    ]
    stages: list[_Stage] = []
    bound_before: set[str] = set()
    for pattern, bound in zip(ordered, bound_after):
        stages.append(_compile_join(pattern, store, bound_before))
        bound_before = bound
        stages.extend(stage for stage, needs in pending if needs <= bound)
        pending = [
            (stage, needs) for stage, needs in pending if not needs <= bound
        ]
    tail_filters = [stage for stage, _ in pending]
    all_bound = bound_after[-1] if bound_after else set()
    project = _compile_project(query, sorted(all_bound))

    def run(params: dict[str, Any] | None = None) -> list[tuple]:
        actual = params or {}
        rows: list[Row] = [{}]
        for stage in stages:
            rows = stage(rows, actual)
            if not rows:
                break
        for flt in tail_filters:
            rows = flt(rows, actual)
        return project(rows, actual)

    return run


# -- pattern ordering (compile time) -----------------------------------------------


def _order_patterns(
    query: ast.SparqlQuery, executor: SparqlExecutor
) -> tuple[list[ast.TriplePattern], list[set[str]]]:
    """Replay the interpreter's greedy loop with static boundness.

    Returns the frozen order plus the bound-variable set after each
    join.  Raises :class:`CompileError` when the order would depend on
    runtime parameters.
    """
    use_stats = (
        executor.order_mode == "stats" and executor.stats is not None
    )
    if use_stats:
        for pattern in query.patterns:
            if isinstance(pattern.p, ast.ParamTerm):
                raise CompileError(
                    "stats ordering of a parameterized predicate "
                    "depends on runtime parameter values"
                )
    patterns = list(query.patterns)
    bound: set[str] = set()
    ordered: list[ast.TriplePattern] = []
    bound_after: list[set[str]] = []
    while patterns:
        if executor.order_mode != "textual":
            if use_stats:
                patterns.sort(
                    key=lambda tp: executor._estimated_matches(
                        tp, bound, {}
                    )
                )
            else:
                patterns.sort(
                    key=lambda tp: -executor._boundness(tp, bound)
                )
        pattern = patterns.pop(0)
        ordered.append(pattern)
        for term in (pattern.s, pattern.p, pattern.o):
            if isinstance(term, ast.Var):
                bound.add(term.name)
        bound_after.append(set(bound))
    return ordered, bound_after


# -- terms -------------------------------------------------------------------------


def _compile_term(term: ast.Term, bound: set[str]) -> _TermFn | None:
    """A value getter for a bound term, or ``None`` when unbound."""
    if isinstance(term, ast.Var):
        name = term.name
        if name not in bound:
            return None
        return lambda row, params: row[name]
    if isinstance(term, ast.ParamTerm):
        name = term.name

        def param_value(row: Row, params: dict[str, Any]) -> Any:
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
    raise CompileError(f"unknown term {term!r}")


# -- joins -------------------------------------------------------------------------


def _compile_join(
    pattern: ast.TriplePattern, store: TripleStore, bound: set[str]
) -> _Stage:
    # boundness at this stage is static: a term is bound iff it is a
    # constant, a parameter, or a variable some earlier pattern binds —
    # the caller compiles patterns in frozen join order, so every row
    # reaching this stage has exactly the same keys
    term_fns = [
        _compile_term(term, bound)
        for term in (pattern.s, pattern.p, pattern.o)
    ]
    var_terms = [
        (position, term.name)
        for position, term in enumerate((pattern.s, pattern.p, pattern.o))
        if isinstance(term, ast.Var)
    ]

    def stage(rows: list[Row], params: dict[str, Any]) -> list[Row]:
        out: list[Row] = []
        for batch in batched(rows, choose_batch_size(len(rows))):
            charge("vector_setup")
            emitted = 0
            for row in batch:
                lookup: list[int | None] = []
                missing_term = False
                for fn in term_fns:
                    if fn is None:
                        lookup.append(None)
                        continue
                    term_id = store.lookup_term(fn(row, params))
                    if term_id is None:
                        missing_term = True
                        break
                    lookup.append(term_id)
                if missing_term:
                    continue
                for ids in store.match_ids(*lookup):
                    new_row = dict(row)
                    ok = True
                    for position, name in var_terms:
                        value = store.term(ids[position])
                        if name in new_row:
                            if new_row[name] != value:
                                ok = False
                                break
                        else:
                            new_row[name] = value
                    if ok:
                        out.append(new_row)
                        emitted += 1
            if emitted:
                charge("tuple_vec", emitted)
        return out

    return stage


# -- filters -----------------------------------------------------------------------


def _compile_filter(expr: ast.FilterExpr) -> _Stage:
    predicate = _compile_filter_expr(expr)

    def stage(rows: list[Row], params: dict[str, Any]) -> list[Row]:
        out: list[Row] = []
        for batch in batched(rows, choose_batch_size(len(rows))):
            charge("vector_setup")
            kept = [row for row in batch if predicate(row, params)]
            if kept:
                charge("tuple_vec", len(kept))
            out.extend(kept)
        return out

    return stage


def _compile_filter_expr(
    expr: ast.FilterExpr,
) -> Callable[[Row, dict[str, Any]], bool]:
    if isinstance(expr, ast.BoolOp):
        left = _compile_filter_expr(expr.left)
        right = _compile_filter_expr(expr.right)
        if expr.op == "AND":
            return lambda row, params: (
                left(row, params) and right(row, params)
            )
        return lambda row, params: left(row, params) or right(row, params)
    if isinstance(expr, ast.NotOp):
        operand = _compile_filter_expr(expr.operand)
        return lambda row, params: not operand(row, params)
    if isinstance(expr, ast.Comparison):
        left_fn = _compile_filter_term(expr.left)
        right_fn = _compile_filter_term(expr.right)
        op = expr.op
        if op not in ("=", "<>", "<", "<=", ">", ">="):
            raise CompileError(f"unknown comparison {op!r}")

        def compare(row: Row, params: dict[str, Any]) -> bool:
            left_v = left_fn(row, params)
            right_v = right_fn(row, params)
            if left_v is None or right_v is None:
                return False
            return {
                "=": left_v == right_v,
                "<>": left_v != right_v,
                "<": left_v < right_v,
                "<=": left_v <= right_v,
                ">": left_v > right_v,
                ">=": left_v >= right_v,
            }[op]

        return compare
    if isinstance(expr, ast.InFilter):
        needle_fn = _compile_filter_term(expr.needle)
        item_fns = [_compile_filter_term(item) for item in expr.items]
        negated = expr.negated

        def contains(row: Row, params: dict[str, Any]) -> bool:
            needle = needle_fn(row, params)
            values = [fn(row, params) for fn in item_fns]
            found = needle in values
            return not found if negated else found

        return contains
    raise CompileError(f"unknown filter {expr!r}")


def _compile_filter_term(term: ast.Term) -> _TermFn:
    """Filter terms resolve unbound variables to ``None`` (interpreted
    ``_resolve`` semantics), never raising on a missing row key."""
    if isinstance(term, ast.Var):
        name = term.name
        return lambda row, params: row.get(name)
    fn = _compile_term(term, set())
    assert fn is not None
    return fn


# -- projection --------------------------------------------------------------------


def _compile_project(
    query: ast.SparqlQuery, all_vars: list[str]
) -> Callable[[list[Row], dict[str, Any]], list[tuple]]:
    aggregate = any(item.count for item in query.items)
    try:
        order = order_columns(query)
        if aggregate and not query.star:
            count_row([], query)  # rejects plain variables beside COUNT
    except SparqlRuntimeError as error:
        # the interpreter reports it when the query runs
        raise CompileError(str(error)) from None
    if query.star:
        names = list(all_vars)
    elif aggregate:
        names = []
    else:
        names = [item.var.name for item in query.items]  # type: ignore[union-attr]

    def project(rows: list[Row], params: dict[str, Any]) -> list[tuple]:
        if query.star and not rows:
            return []
        if aggregate:
            projected = [count_row(rows, query)]
        else:
            projected = []
            for batch in batched(rows, choose_batch_size(len(rows))):
                charge("vector_setup")
                chunk = [
                    tuple(row.get(n) for n in names) for row in batch
                ]
                if chunk:
                    charge("tuple_vec", len(chunk))
                projected.extend(chunk)
        return select_tail(projected, query, order)

    return project
