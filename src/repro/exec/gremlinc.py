"""Gremlin step chains compiled to vectorized batch closures.

The Gremlin Server's interpreted path charges ``step_eval`` per
traverser per step — the TinkerPop iterator overhead the paper measures.
:func:`compile_traversal` walks a built step chain once and emits one
kernel per step, chained as batch generators: a batch of traversers
flows through each kernel with one ``vector_setup`` plus ``tuple_vec``
per emitted traverser, while data access still goes through the same
provider calls (and therefore the same storage charges) as the
interpreter.

What a per-traverser step *does* is not written here: a kernel is the
vectorizing envelope (:func:`_vectorize`) around the step's own
:meth:`~repro.tinkerpop.traversal.Step.bind` — the definition the
interpreter's ``Step.apply`` envelope drives too — so traverser order,
path bookkeeping and errors agree by construction.  Step budgets and
evaluation-timeout guards observe the same traverser counts via
:func:`repro.tinkerpop.traversal.tick_batch`.  Only the kernels that
really differ from their interpreted step are spelled out: label-free
``has()``, ``limit``, ``count``, ``order``.

Steps that cannot be compiled raise :class:`CompileError` and the
server falls back to the interpreter for that script:

* ``repeat()`` — data-dependent iteration (the shortest-path DNF shape;
  keeping it interpreted preserves the paper's timeout behavior),
* ``addV()`` / ``addE()`` / ``property()`` — writes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

from repro.exec.errors import CompileError
from repro.simclock.ledger import charge
from repro.tinkerpop.structure import Edge, GraphProvider, Vertex
from repro.tinkerpop.traversal import (
    AddEStep,
    AddVStep,
    AdjacentStep,
    CountStep,
    EdgeVertexStep,
    HasStep,
    LimitStep,
    OrderStep,
    PropertyStep,
    RepeatStep,
    Step,
    Traversal,
    TraversalError,
    Traverser,
    VStep,
    tick_batch,
)

#: a compiled traversal: call it to get the result objects
CompiledTraversal = Callable[[], list[Any]]

#: a step kernel: batches of traversers in, batches out
_StepKernel = Callable[
    [Iterator[list[Traverser]]], Iterator[list[Traverser]]
]

#: sources and expansions always pay their own batch dispatch; every
#: other per-element step fuses into the loop of the kernel feeding it
#: (``order()`` pays one per materialized batch, in its own kernel)
_OWN_DISPATCH = (VStep, AdjacentStep, EdgeVertexStep)

_INTERPRETED_ONLY = {
    RepeatStep: "repeat() is data-dependent iteration",
    AddVStep: "write steps run interpreted",
    AddEStep: "write steps run interpreted",
    PropertyStep: "write steps run interpreted",
}


def compile_traversal(traversal: Traversal) -> CompiledTraversal:
    """Compile a built step chain into one vectorized closure.

    Raises :class:`CompileError` when any step has no batch kernel
    (writes, ``repeat()``); the caller falls back to the interpreter.
    """
    provider = traversal.provider
    if provider is None:
        raise CompileError("anonymous traversals cannot be compiled")
    # operator fusion: per-element predicate/transform steps run inside
    # the loop of the kernel feeding them, so only pipeline sources,
    # expansions, and materializing breakers pay a batch dispatch
    kernels = [
        _compile_step(step, provider, fused=index > 0)
        for index, step in enumerate(traversal.steps)
    ]

    def run() -> list[Any]:
        batches: Iterator[list[Traverser]] = iter([[Traverser(obj=None)]])
        for kernel in kernels:
            batches = kernel(batches)
        return [t.obj for batch in batches for t in batch]

    return run


def _compile_step(
    step: Step, provider: GraphProvider, fused: bool = False
) -> _StepKernel:
    reason = _INTERPRETED_ONLY.get(type(step))
    if reason is not None:
        raise CompileError(reason)
    if isinstance(step, OrderStep):
        return _compile_order(step, provider)
    if isinstance(step, LimitStep):
        return _compile_limit(step, fused)
    if isinstance(step, CountStep):
        return _compile_count(fused)
    if isinstance(step, HasStep) and step.label is None:
        return _compile_has(step, provider, fused)
    if type(step).bind is Step.bind:
        raise CompileError(f"no batch kernel for {type(step).__name__}")
    return _vectorize(
        step, provider, fused and not isinstance(step, _OWN_DISPATCH)
    )


def _vectorize(
    step: Step, provider: GraphProvider, fused: bool
) -> _StepKernel:
    """The vectorizing envelope around a step's one-traverser meaning.

    Budget tick for the batch, one dispatch unless fused, the step's
    :meth:`~repro.tinkerpop.traversal.Step.bind` definition over the
    batch, ``tuple_vec`` per emitted traverser — in that order, because
    the evaluation-timeout guard prices the ledger at tick time.
    """

    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        one = step.bind(provider)
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            out = [result for t in batch for result in one(t)]
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


# -- kernels that differ from their interpreted step -------------------------------


def _compile_has(
    step: HasStep, provider: GraphProvider, fused: bool = False
) -> _StepKernel:
    """Label-free ``has()``: one property gather per unique vertex in
    the batch, where the interpreter re-reads per traverser occurrence
    — a different storage charge, hence its own kernel.  (A labelled
    ``has()`` keeps per-traverser reads: its label gate must see
    exactly the vertices the interpreter reads.)"""

    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            vertex_props = {
                vid: provider.vertex_props(vid)
                for vid in dict.fromkeys(
                    t.obj.id for t in batch if isinstance(t.obj, Vertex)
                )
            }
            out: list[Traverser] = []
            for t in batch:
                obj = t.obj
                if isinstance(obj, Vertex):
                    value = vertex_props[obj.id].get(step.key)
                elif isinstance(obj, Edge):
                    value = provider.edge_props(obj.id).get(step.key)
                else:
                    raise TraversalError("has() needs an element")
                if step.predicate.test(value):
                    out.append(t)
            if out:
                charge("tuple_vec", len(out))
            yield out

    return kernel


def _compile_limit(
    step: LimitStep, fused: bool = False
) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        emitted = 0
        for batch in batches:
            if emitted >= step.limit:
                return
            take = batch[: step.limit - emitted]
            emitted += len(take)
            tick_batch(len(take))
            if not fused:
                charge("vector_setup")
            if take:
                charge("tuple_vec", len(take))
            yield take

    return kernel


def _compile_count(fused: bool = False) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        total = 0
        for batch in batches:
            tick_batch(len(batch))
            if not fused:
                charge("vector_setup")
            total += len(batch)
        charge("tuple_vec")
        yield [Traverser(obj=total)]

    return kernel


def _compile_order(step: OrderStep, provider: GraphProvider) -> _StepKernel:
    def kernel(
        batches: Iterator[list[Traverser]],
    ) -> Iterator[list[Traverser]]:
        materialized: list[Traverser] = []
        for batch in batches:
            charge("vector_setup")
            materialized.extend(batch)
        tick_batch(1)
        materialized.sort(
            key=step.sort_key(provider), reverse=step.descending
        )
        if materialized:
            charge("tuple_vec", len(materialized))
        yield materialized

    return kernel
