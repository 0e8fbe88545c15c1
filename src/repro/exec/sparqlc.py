"""SPARQL BGPs compiled to vectorized join closures.

What a SPARQL query *means* is defined once, beside the interpreter in
:mod:`repro.rdf.sparql.executor`: the greedy pattern order
(``SparqlExecutor.order_patterns``), the term binder, the triple join,
the FILTER builder and the SELECT clause.  This module is the compiled
envelope around them.  :func:`compile_query` freezes the greedy pattern
order at compile time — the boundness progression is data-independent,
because every join binds all of its pattern's variables into every row
— and emits one closure per join/filter stage plus the SELECT clause.
Stages process row batches (``vector_setup`` per batch, ``tuple_vec``
per emitted row, where the interpreter pays ``tuple_cpu`` per matched
triple and ``value_cpu`` per FILTER node and projected value), while
term-dictionary lookups and index scans are the shared join's store
calls, so storage charges are identical in both modes.

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
* filter or term forms the shared builders reject.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.exec.batch import batched, charge_batch
from repro.exec.errors import CompileError
from repro.rdf.sparql import parser as ast
from repro.rdf.sparql.executor import (
    JoinFn,
    Row,
    SparqlExecutor,
    SparqlRuntimeError,
    compile_filter,
    compile_select,
    count_row,
    filter_vars,
    join_pattern,
    order_columns,
)
from repro.rdf.triples import TripleStore
from repro.simclock.ledger import charge
from repro.stats.batching import choose_batch_size

#: a compiled SPARQL SELECT: params in, result rows out
CompiledSparql = Callable[[dict[str, Any] | None], list[tuple]]

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
    if executor.stats_order and any(
        isinstance(pattern.p, ast.ParamTerm) for pattern in query.patterns
    ):
        raise CompileError(
            "stats ordering of a parameterized predicate "
            "depends on runtime parameter values"
        )
    try:
        stages, tail_filters, select = _build(query, store, executor)
    except SparqlRuntimeError as error:
        # the interpreter reports it when the query runs
        raise CompileError(str(error)) from None

    def run(params: dict[str, Any] | None = None) -> list[tuple]:
        actual = params or {}
        rows: list[Row] = [{}]
        for stage in stages:
            rows = stage(rows, actual)
            if not rows:
                break
        for flt in tail_filters:
            rows = flt(rows, actual)
        return select(rows)

    return run


def _build(
    query: ast.SparqlQuery, store: TripleStore, executor: SparqlExecutor
) -> tuple[list[_Stage], list[_Stage], Callable[[list[Row]], list[tuple]]]:
    # shapes the interpreter rejects when its SELECT clause runs
    order_columns(query)
    if any(item.count for item in query.items) and not query.star:
        count_row([], query)  # plain variables beside COUNT
    pending = [
        (_filter_stage(flt.expr), filter_vars(flt.expr))
        for flt in query.filters
    ]
    stages: list[_Stage] = []
    bound: set[str] = set()
    for pattern, before, bound in executor.order_patterns(
        query.patterns, {}
    ):
        stages.append(_join_stage(join_pattern(store, pattern, before)))
        stages.extend(stage for stage, needs in pending if needs <= bound)
        pending = [
            (stage, needs) for stage, needs in pending if not needs <= bound
        ]
    tail_filters = [stage for stage, _ in pending]
    select = compile_select(query, bound, _charge_projected)
    return stages, tail_filters, select


# -- the vectorized envelope ---------------------------------------------------


def _vectorized(
    emit: Callable[[list[Row], dict[str, Any]], list[Row]],
) -> _Stage:
    """Run ``emit`` batch by batch: one ``vector_setup`` per batch, one
    ``tuple_vec`` per row it emits."""

    def stage(rows: list[Row], params: dict[str, Any]) -> list[Row]:
        out: list[Row] = []
        for batch in batched(rows, choose_batch_size(len(rows))):
            charge("vector_setup")
            emitted = emit(batch, params)
            if emitted:
                charge("tuple_vec", len(emitted))
            out.extend(emitted)
        return out

    return stage


def _join_stage(join: JoinFn) -> _Stage:
    return _vectorized(lambda batch, params: join(batch, params)[1])


def _filter_stage(expr: ast.FilterExpr) -> _Stage:
    # FILTER nodes are free: they ride their stage's dispatch
    predicate = compile_filter(expr, lambda: None)
    return _vectorized(
        lambda batch, params: [row for row in batch if predicate(row, params)]
    )


def _charge_projected(projected: list[tuple], aggregate: bool) -> None:
    """Projected rows are dispatched in batches; a COUNT row is the
    result of one aggregate pass and costs no dispatch of its own."""
    if not aggregate:
        for batch in batched(projected, choose_batch_size(len(projected))):
            charge_batch(len(batch))
