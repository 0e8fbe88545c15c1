"""The vectorized operator kernel library.

Each factory pre-binds its constants (tables, columns, key closures,
batch sizes) and returns a *kernel*: a closure
``(ctx) -> Iterator[list[tuple]]`` following the batch-at-a-time
convention of :mod:`repro.exec.batch`.  The relational kernels mirror
the iterator operators in :mod:`repro.relational.sql.executor` row for
row — same output, same order — but move per-tuple interpretation
(``tuple_cpu``) to per-batch dispatch (``vector_setup`` +
``tuple_vec``) and reach storage through the deduplicating batch read
APIs.

The graph helpers at the bottom (:func:`expand_frontier`,
:func:`gather_props`) are the expand / neighbor-lookup kernel shared by
the Cypher and Gremlin compilers; they speak node ids rather than rows
because each dialect keeps its own per-row bookkeeping (relationship
uniqueness, traverser paths).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import Any, Protocol

from repro.exec.batch import batched, charge_batch
from repro.lang.expr import Accumulator
from repro.relational.sql.executor import (
    ExecContext,
    ExprFn,
    new_accumulators,
    sort_key,
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


def index_eq_scan(
    table: Table,
    column: str,
    key_fn: ExprFn,
    needed: Sequence[str] | None,
    batch_size: int,
) -> Kernel:
    """Index probe with a runtime key, batch-fetched rows."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        key = key_fn((), ctx.params)
        handles = table.lookup(column, key)
        rows = table.fetch_batch(handles, needed)
        for batch in batched(rows, batch_size):
            charge_batch(len(batch))
            yield batch

    return run


def materialized_scan(
    rows_of: Callable[[], list[tuple]], batch_size: int
) -> Kernel:
    """Scan over a shared in-memory row list (CTE working tables)."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        for batch in batched(rows_of(), batch_size):
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


def sort_rows(
    source: Kernel,
    key_fns: Sequence[ExprFn],
    descending: Sequence[bool],
    batch_size: int,
) -> Kernel:
    """Stable multi-key sort (right-to-left passes, NULLs first)."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        rows = [row for batch in source(ctx) for row in batch]
        charge_batch(len(rows))
        for key_fn, desc in reversed(list(zip(key_fns, descending))):
            rows.sort(
                key=lambda row: sort_key(key_fn(row, params)),
                reverse=desc,
            )
        yield from batched(rows, batch_size)

    return run


# --- joins ---------------------------------------------------------------------


def index_nl_join(
    outer: Kernel,
    table: Table,
    inner_column: str,
    outer_key_fn: ExprFn,
    kind: str,
    residual: ExprFn | None,
    needed: Sequence[str] | None,
    null_row: tuple,
) -> Kernel:
    """Batched index nested-loop join.

    Per outer batch: one deduplicated probe pass over the inner index,
    one batch fetch of every matched handle, then an in-memory stitch in
    outer order — identical output to the tuple-at-a-time operator.
    """

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
                matched = False
                for handle in probed.get(key, ()) if key is not None else ():
                    combined = row + fetched[handle]
                    if residual is not None and not residual(
                        combined, params
                    ):
                        continue
                    matched = True
                    out.append(combined)
                if not matched and kind == "left":
                    out.append(row + null_row)
            if out:
                charge("tuple_vec", len(out))
                yield out

    return run


def hash_join(
    left: Kernel,
    right: Kernel,
    left_key_fn: ExprFn,
    right_key_fn: ExprFn,
    kind: str,
    residual: ExprFn | None,
    null_row: tuple,
) -> Kernel:
    """Build on the right input, probe from the left, batch at a time."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        build: dict[Any, list[tuple]] = {}
        for batch in right(ctx):
            charge_batch(len(batch))
            for row in batch:
                key = right_key_fn(row, params)
                if key is not None:
                    build.setdefault(key, []).append(row)
        for batch in left(ctx):
            charge_batch(len(batch))
            charge("hash_probe", len(batch))
            out: list[tuple] = []
            for row in batch:
                key = left_key_fn(row, params)
                matched = False
                for right_row in (
                    build.get(key, ()) if key is not None else ()
                ):
                    combined = row + right_row
                    if residual is not None and not residual(
                        combined, params
                    ):
                        continue
                    matched = True
                    out.append(combined)
                if not matched and kind == "left":
                    out.append(row + null_row)
            if out:
                charge("tuple_vec", len(out))
                yield out

    return run


def nl_join(
    outer: Kernel,
    inner: Kernel,
    predicate: ExprFn | None,
    kind: str,
    null_row: tuple,
) -> Kernel:
    """Nested-loop fallback for non-equality conditions."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        inner_rows = [row for batch in inner(ctx) for row in batch]
        for batch in outer(ctx):
            charge_batch(len(batch))
            charge("tuple_vec", len(batch) * len(inner_rows))
            out: list[tuple] = []
            for row in batch:
                matched = False
                for inner_row in inner_rows:
                    combined = row + inner_row
                    if predicate is None or predicate(combined, params):
                        matched = True
                        out.append(combined)
                if not matched and kind == "left":
                    out.append(row + null_row)
            if out:
                yield out

    return run


# --- aggregation -----------------------------------------------------------------


def aggregate_rows(
    source: Kernel,
    group_fns: Sequence[ExprFn],
    agg_specs: Sequence[tuple[str, ExprFn | None, bool]],
    batch_size: int,
) -> Kernel:
    """Hash aggregation, semantics identical to the interpreted operator."""

    def run(ctx: ExecContext) -> Iterator[list[tuple]]:
        params = ctx.params
        groups: dict[tuple, list[Accumulator]] = {}
        for batch in source(ctx):
            charge_batch(len(batch))
            for row in batch:
                key = tuple(fn(row, params) for fn in group_fns)
                states = groups.get(key)
                if states is None:
                    states = new_accumulators(agg_specs)
                    groups[key] = states
                for state, (_, arg_fn, _) in zip(states, agg_specs):
                    state.feed(
                        arg_fn(row, params) if arg_fn is not None else 1
                    )
        if not groups and not group_fns:
            states = new_accumulators(agg_specs)
            yield [tuple(s.result() for s in states)]
            return
        rows = [
            key + tuple(s.result() for s in states)
            for key, states in groups.items()
        ]
        yield from batched(rows, batch_size)

    return run


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
