"""SQL plan-to-closure compiler.

Takes an optimized physical plan from the planner (the same object the
statement cache stores) and emits one specialized closure per operator,
chaining the vectorized kernels from :mod:`repro.exec.kernels` with the
plan's constants — tables, key closures, join kinds, batch sizes — pre
bound.  Executing the compiled form never touches the plan tree again.

Batch sizes come from the planner's cardinality annotations
(``est_rows``) via :func:`repro.stats.choose_batch_size`: small expected
outputs get small batches (don't over-compute under a LIMIT), large
ones amortize dispatch up to the cap.

Recursive CTEs compile too: the base, step, and body sub-plans each
compile to kernel chains, and the plan's own semi-naive fixpoint runs
over them — the shortest-path BFS runs every frontier expansion through
the vectorized join kernels instead of the tuple-at-a-time interpreter.

Every plan operator has a kernel, so SQL compilation never raises
:class:`~repro.exec.errors.CompileError`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from repro.exec import kernels
from repro.exec.batch import flatten
from repro.exec.kernels import Kernel
from repro.relational.sql.executor import (
    Aggregate,
    Distinct,
    ExecContext,
    Filter,
    HashJoin,
    IndexEqScan,
    IndexNLJoin,
    Limit,
    MaterializedScan,
    NLJoin,
    PlanNode,
    Project,
    SeqScan,
    SingleRow,
    Sort,
)
from repro.relational.sql.planner import RecursiveCTEPlan
from repro.stats import choose_batch_size

CompiledQuery = Callable[[ExecContext], list[tuple]]


def compile_plan(plan: PlanNode) -> CompiledQuery:
    """Specialize ``plan`` into a closure ``(ctx) -> list of rows``.

    Output rows, their order, and storage-level charges are identical
    to ``list(plan.rows(ctx))``; only per-tuple interpretation cost is
    replaced by per-batch dispatch.
    """
    kernel = _compile(plan)

    def run(ctx: ExecContext) -> list[tuple]:
        return flatten(kernel(ctx))

    return run


def _compile(node: PlanNode) -> Kernel:
    size = choose_batch_size(node.est_rows)
    if isinstance(node, SingleRow):
        return kernels.single_row()
    if isinstance(node, SeqScan):
        return kernels.seq_scan(node.table, size)
    if isinstance(node, IndexEqScan):
        return kernels.index_eq_scan(node, size)
    if isinstance(node, MaterializedScan):
        return kernels.materialized_scan(node.holder, size)
    if isinstance(node, Filter):
        return kernels.filter_rows(_compile(node.child), node.predicate)
    if isinstance(node, Project):
        return kernels.project_rows(_compile(node.child), node.exprs)
    if isinstance(node, IndexNLJoin):  # vectorized ones included
        return kernels.index_nl_join(_compile(node.outer), node)
    if isinstance(node, HashJoin):
        return kernels.hash_join(
            _compile(node.left), _compile(node.right), node
        )
    if isinstance(node, NLJoin):
        return kernels.nl_join(
            _compile(node.outer), _compile(node.inner), node
        )
    if isinstance(node, Aggregate):
        return kernels.aggregate_rows(_compile(node.child), node, size)
    if isinstance(node, Sort):
        return kernels.sort_rows(_compile(node.child), node, size)
    if isinstance(node, Limit):
        return kernels.limit_rows(_compile(node.child), node.limit)
    if isinstance(node, Distinct):
        return kernels.distinct_rows(_compile(node.child))
    if isinstance(node, RecursiveCTEPlan):
        return _recursive_cte(node)
    raise TypeError(f"no kernel for {type(node).__name__}")


def _recursive_cte(node: RecursiveCTEPlan) -> Kernel:
    """The plan's :meth:`~RecursiveCTEPlan.fixpoint` over compiled
    sub-plans.  Their ``MaterializedScan`` leaves read the plan's shared
    ``RowsHolder``s through a thunk, so the fixpoint's holder flips
    re-target the compiled closures with no recompilation."""
    base = _compile(node.base)
    step = _compile(node.step)
    body = _compile(node.body)

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        node.fixpoint(lambda: flatten(base(ctx)), lambda: flatten(step(ctx)))
        yield from body(ctx)

    return run
