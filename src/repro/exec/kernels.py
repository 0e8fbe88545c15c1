"""The vectorized operator kernel library.

Each factory pre-binds its constants (tables, columns, key closures,
batch sizes) and returns a *kernel*: a closure
``(ctx) -> Iterator[list[tuple]]`` following the batch-at-a-time
convention of :mod:`repro.exec.batch`.  The relational kernels are the
compiled envelopes of the operators in
:mod:`repro.relational.sql.executor`, calling its join stitch, hash
build, aggregation and sort per batch; they keep only the price
(``vector_setup`` + ``tuple_vec`` per batch for ``tuple_cpu`` per row)
and the batching — scans, and the index join's deduplicated
``lookup_batch`` + ``fetch_batch``.

The graph helpers at the bottom (:func:`expand_frontier`,
:func:`gather_props`) are the expand / neighbor-lookup kernel shared by
the Cypher and Gremlin compilers; they speak node ids rather than rows
because each dialect keeps its own per-row bookkeeping (relationship
uniqueness, traverser paths).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import Any, Protocol

from repro.exec.batch import batched, charge_batch, flatten
from repro.relational.sql.executor import (
    Aggregate,
    ExecContext,
    ExprFn,
    HashJoin,
    IndexEqScan,
    IndexNLJoin,
    NLJoin,
    RowsHolder,
    Sort,
    aggregate,
    hash_build,
    multi_key_sort,
    stitch,
)
from repro.relational.table import Table
from repro.simclock.ledger import charge

Kernel = Callable[[ExecContext], Iterator[list[tuple]]]


# --- scans -----------------------------------------------------------------


def single_row() -> Kernel:
    """FROM-less SELECT: one empty row."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        charge_batch(1)
        yield [()]

    return run


def seq_scan(table: Table, batch_size: int) -> Kernel:
    """Full-table scan in column batches."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        batch: list[tuple] = []
        for _handle, row in table.scan():
            batch.append(row)
            if len(batch) >= batch_size:
                charge_batch(len(batch))
                yield batch
                batch = []
        if batch:
            charge_batch(len(batch))
            yield batch

    return run


def index_eq_scan(node: IndexEqScan, batch_size: int) -> Kernel:
    """Index probe with a runtime key, batch-fetched rows."""
    table, column, needed = node.table, node.column, node.needed
    key_fn = node.key_fn

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        key = key_fn((), ctx.params)
        handles = table.lookup(column, key)
        rows = table.fetch_batch(handles, needed)
        for batch in batched(rows, batch_size):
            charge_batch(len(batch))
            yield batch

    return run


def materialized_scan(holder: RowsHolder, batch_size: int) -> Kernel:
    """Scan over a shared in-memory row list (CTE working tables), read
    when the kernel runs."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        for batch in batched(holder.rows, batch_size):
            charge_batch(len(batch))
            yield batch

    return run


# --- row-wise kernels --------------------------------------------------------


def filter_rows(source: Kernel, predicate: ExprFn) -> Kernel:
    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        for batch in source(ctx):
            charge_batch(len(batch))
            out = [row for row in batch if predicate(row, params)]
            if out:
                yield out

    return run


def project_rows(source: Kernel, exprs: Sequence[ExprFn]) -> Kernel:
    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        for batch in source(ctx):
            charge_batch(len(batch))
            yield [tuple(fn(row, params) for fn in exprs) for row in batch]

    return run


def limit_rows(source: Kernel, limit: int) -> Kernel:
    """Truncation; stops pulling batches once satisfied."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        if limit <= 0:
            return
        remaining = limit
        for batch in source(ctx):
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch

    return run


def distinct_rows(source: Kernel) -> Kernel:
    """First-occurrence dedup (hash table, one probe per row)."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        seen: set[tuple] = set()
        for batch in source(ctx):
            charge("vector_setup")
            charge("hash_probe", len(batch))
            out = []
            for row in batch:
                if row not in seen:
                    seen.add(row)
                    out.append(row)
            if out:
                yield out

    return run


def sort_rows(source: Kernel, node: Sort, batch_size: int) -> Kernel:
    """The operator's :func:`multi_key_sort`, one dispatch for all rows."""
    key_fns, descending = node.key_fns, node.descending

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        rows = flatten(source(ctx))
        charge_batch(len(rows))
        multi_key_sort(rows, key_fns, descending, ctx.params)
        yield from batched(rows, batch_size)

    return run


# --- joins ---------------------------------------------------------------------


def index_nl_join(outer: Kernel, node: IndexNLJoin) -> Kernel:
    """Batched index nested-loop join.

    Per outer batch: one deduplicated probe pass over the inner index,
    one batch fetch of every matched handle, then :func:`stitch` in
    outer order.
    """
    table, inner_column, needed = node.table, node.inner_column, node.needed
    outer_key_fn = node.outer_key_fn
    residual, kind, null_row = node.residual, node.kind, node.null_row

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        for batch in outer(ctx):
            charge_batch(len(batch))
            keys = [outer_key_fn(row, params) for row in batch]
            probe_keys = [k for k in keys if k is not None]
            probed = (
                table.lookup_batch(inner_column, probe_keys)
                if probe_keys
                else {}
            )
            unique_handles = list(
                dict.fromkeys(h for hs in probed.values() for h in hs)
            )
            fetched = dict(
                zip(
                    unique_handles,
                    table.fetch_batch(unique_handles, needed),
                )
            )
            out: list[tuple] = []
            for row, key in zip(batch, keys):
                # a NULL key was never probed, so it finds no handles
                inner = map(fetched.__getitem__, probed.get(key, ()))
                out.extend(
                    stitch(row, inner, residual, kind, null_row, params)
                )
            if out:
                charge("tuple_vec", len(out))
                yield out

    return run


def hash_join(left: Kernel, right: Kernel, node: HashJoin) -> Kernel:
    """Build on the right input, probe from the left, batch at a time."""
    left_key_fn, right_key_fn = node.left_key_fn, node.right_key_fn
    residual, kind, null_row = node.residual, node.kind, node.null_row

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        build = hash_build(_rows(right(ctx)), right_key_fn, params)
        for batch in left(ctx):
            charge_batch(len(batch))
            charge("hash_probe", len(batch))
            out: list[tuple] = []
            for row in batch:
                # the build side holds no NULL key
                inner = build.get(left_key_fn(row, params), ())
                out.extend(
                    stitch(row, inner, residual, kind, null_row, params)
                )
            if out:
                charge("tuple_vec", len(out))
                yield out

    return run


def nl_join(outer: Kernel, inner: Kernel, node: NLJoin) -> Kernel:
    """Nested-loop fallback for non-equality conditions."""
    predicate, kind, null_row = node.predicate, node.kind, node.null_row

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        inner_rows = flatten(inner(ctx))
        for batch in outer(ctx):
            charge_batch(len(batch))
            charge("tuple_vec", len(batch) * len(inner_rows))
            out: list[tuple] = []
            for row in batch:
                out.extend(
                    stitch(row, inner_rows, predicate, kind, null_row, params)
                )
            if out:
                yield out

    return run


# --- aggregation -----------------------------------------------------------------


def aggregate_rows(source: Kernel, node: Aggregate, batch_size: int) -> Kernel:
    """The operator's :func:`aggregate` over a batch stream."""
    group_fns, agg_specs = node.group_fns, node.agg_specs

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        rows = aggregate(_rows(source(ctx)), group_fns, agg_specs, ctx.params)
        yield from batched(rows, batch_size)

    return run


def _rows(batches: Iterator[list[tuple]]) -> Iterator[tuple]:
    """The rows of a batch stream, charging each batch's dispatch as it
    arrives."""
    for batch in batches:
        charge_batch(len(batch))
        yield from batch


# --- graph expand / property-gather kernels ----------------------------------------


class AdjacencySource(Protocol):
    """What the expand kernel needs from a graph store or provider."""

    def neighbors_batch(
        self,
        node_ids: Sequence[int],
        rel_type: str | None,
        direction: Any,
    ) -> dict[int, tuple[tuple[int, int], ...]]:
        ...  # pragma: no cover - protocol


def expand_frontier(
    store: AdjacencySource,
    frontier: Sequence[int],
    rel_type: str | None,
    direction: Any,
) -> dict[int, tuple[tuple[int, int], ...]]:
    """The expand / neighbor-lookup kernel's storage half.

    One deduplicated adjacency fetch for a whole frontier; charges one
    ``vector_setup`` for the dispatch plus the store's own (cache-aware)
    per-unique-node costs.  Callers stitch the returned
    ``node -> ((rel_id, other), ...)`` map back onto their rows.
    """
    charge("vector_setup")
    if not frontier:
        return {}
    return store.neighbors_batch(frontier, rel_type, direction)


def gather_props(
    fetch_batch: Callable[[Sequence[int]], dict[int, dict[str, Any]]],
    ids: Sequence[int],
) -> dict[int, dict[str, Any]]:
    """Deduplicated property gather for a batch of element ids."""
    charge("vector_setup")
    if not ids:
        return {}
    return fetch_batch(ids)
