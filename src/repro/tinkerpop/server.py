"""The Gremlin Server simulation.

Clients do not speak to TinkerPop providers directly in the paper's
architecture (Figure 2): traversals are submitted to the Gremlin Server,
which evaluates them against the underlying graph and streams serialized
results back.  That layer is where the paper locates the Gremlin overhead:

* a websocket round trip per request (``server_rtt``),
* script evaluation / traversal compilation (``gremlin_compile``),
* GraphSON serialization per result element (``serialize_item``) and one
  extra round trip per 64-element response batch,
* a bounded worker pool; under many concurrent long-running traversals
  the request queue fills and the server hangs, then crashes (Section
  4.4) — the discrete-event harness drives that via
  :attr:`worker_pool_size` / :attr:`queue_limit` / :attr:`crashed`.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.cache import CacheStats, EpochKeyedCache
from repro.exec.errors import CompileError
from repro.options import EngineOptions
from repro.simclock.ledger import charge
from repro.simclock.costmodel import CostModel
from repro.simclock.ledger import Ledger, metered
from repro.tinkerpop.structure import Graph, GraphProvider, GraphTraversalSource
from repro.tinkerpop.traversal import (
    AddEStep,
    AddVStep,
    PropertyStep,
    RepeatStep,
    Step,
    StepBudgetExceeded,
    Traversal,
    cost_guard,
    step_budget,
)
from repro.txn import oracle

RESULT_BATCH_SIZE = 64

#: closure-cache sentinel: this script cannot be compiled (a write,
#: repeat(), ...) — evaluate it interpreted on every submit
_INTERPRET = object()

#: closure-cache marker: the script's step shape compiles; per-request
#: parameter binding into the cached closure is covered by
#: ``compiled_exec``
_COMPILED = object()


class GremlinServerError(Exception):
    """The server dropped the request (overload or crash)."""


def _steps_write(steps: list[Step]) -> bool:
    """Whether any step (including repeat() bodies) mutates the graph.

    Traversal building is lazy — ``build(g)`` only records steps — so
    the server can inspect the step list before evaluation starts.
    """
    for step in steps:
        if isinstance(step, (AddVStep, AddEStep, PropertyStep)):
            return True
        if isinstance(step, RepeatStep):
            if _steps_write(step.body.steps):
                return True
            if step.until is not None and _steps_write(step.until.steps):
                return True
    return False


class GremlinServer:
    """Serves one TinkerPop graph to many clients."""

    def __init__(
        self,
        provider: GraphProvider,
        *,
        worker_pool_size: int = 8,
        queue_limit: int = 128,
        step_limit: int = 20_000_000,
        request_timeout_us: float | None = 3_000_000.0,
        cost_model: CostModel | None = None,
        options: EngineOptions | None = None,
    ) -> None:
        self.graph = Graph(provider)
        self.provider = provider
        self.worker_pool_size = worker_pool_size
        self.queue_limit = queue_limit
        self.step_limit = step_limit
        self.request_timeout_us = request_timeout_us
        self.cost_model = cost_model or CostModel()
        self.options = options or EngineOptions()
        self.crashed = False
        self.requests_served = 0
        self.requests_failed = 0
        self.requests_timed_out = 0
        #: compiled-mode closure cache: script key -> compile verdict
        #: (bytecode AND the specialized closure are reused); cleared on
        #: restart
        self._closure_cache = EpochKeyedCache(512, name="gremlin-closures")

    def cache_stats(self) -> list[CacheStats]:
        if self.options.execution_mode != "compiled":
            return []
        return [self._closure_cache.stats()]

    def submit(
        self,
        build: Callable[[GraphTraversalSource], Traversal],
        *,
        cache_key: str | None = None,
    ) -> list[Any]:
        """One request/response cycle: compile, evaluate, serialize.

        ``build`` receives the traversal source ``g`` and returns the
        traversal to evaluate (standing in for a Gremlin script string).
        ``cache_key`` identifies the script text; in compiled mode a key
        the closure cache holds runs its compiled closure instead.
        """
        if self.crashed:
            self.requests_failed += 1
            raise GremlinServerError("Gremlin Server has crashed")
        charge("server_rtt")  # request framing + dispatch
        if (
            self.options.execution_mode == "compiled"
            and cache_key is not None
        ):
            results = self._submit_compiled(build, cache_key)
            if results is not None:
                return results
            # fall through: this script shape runs interpreted
        charge("gremlin_compile")  # script evaluation / compilation

        def run(g: GraphTraversalSource) -> list[Any]:
            traversal = build(g)
            if _steps_write(traversal.steps):
                return traversal.toList()
            with oracle.read_view(self.options.isolation_level):
                return traversal.toList()

        results = self._evaluate(run)
        charge("serialize_item", len(results))
        # response streaming: one round trip per batch
        batches = max(1, -(-len(results) // RESULT_BATCH_SIZE))
        charge("server_rtt", batches - 1)
        self.requests_served += 1
        return results

    def _submit_compiled(
        self,
        build: Callable[[GraphTraversalSource], Traversal],
        cache_key: str,
    ) -> list[Any] | None:
        """Compiled-mode fast path; ``None`` defers to the interpreter.

        The closure cache is the compilation unit: the first submit of a
        script key pays ``gremlin_compile`` (script to bytecode) plus
        ``closure_compile`` (bytecode to a specialized closure); warm
        submits pay only ``compiled_exec`` for parameter binding.  Keys
        whose step shape cannot compile are remembered as interpreted —
        resubmits reuse the cached bytecode (``cache_hit``) and the
        fallback stays per-script, never per-request work.
        """
        # deferred: repro.exec.gremlinc imports the traversal/structure
        # modules of this package, so a top-level import would be circular
        from repro.exec.gremlinc import compile_traversal

        fn = None
        verdict = self._closure_cache.lookup(cache_key)
        if verdict is None:
            charge("gremlin_compile")
            charge("closure_compile")
            try:
                # the closure carries this request's parameters, so it
                # runs below; only the verdict is worth caching
                fn = compile_traversal(build(self.graph.traversal()))
                verdict = _COMPILED
            except CompileError:
                verdict = _INTERPRET
            self._closure_cache.store(cache_key, verdict)
            if verdict is _INTERPRET:
                return None
        elif verdict is _INTERPRET:
            charge("cache_hit")  # bytecode reused; evaluation interpreted
            return None
        charge("compiled_exec")  # parameter binding into the closure
        if fn is None:
            try:
                fn = compile_traversal(build(self.graph.traversal()))
            except CompileError:
                # the key was reused for a different, uncompilable
                # shape; evaluate this request interpreted without
                # poisoning the key
                return None
        # compiled traversals are read-only by construction (write steps
        # raise CompileError above), so every run gets a snapshot view
        with oracle.read_view(self.options.isolation_level):
            results = self._evaluate(lambda g: fn())
        # vectorized serialization: the whole result set is encoded as
        # one binary frame — one frame setup plus a per-value touch,
        # instead of per-element GraphSON object encoding, and no extra
        # per-64-element round trips
        charge("vector_setup")
        if results:
            charge("value_cpu", len(results))
        self.requests_served += 1
        return results

    def _evaluate(
        self, run: Callable[[GraphTraversalSource], list[Any]]
    ) -> list[Any]:
        """Run one request under the server's budget and timeout guards."""
        g = self.graph.traversal()
        request_ledger = Ledger()
        try:
            with metered(request_ledger), step_budget(self.step_limit):
                if self.request_timeout_us is not None:
                    with cost_guard(
                        request_ledger,
                        self.cost_model,
                        self.request_timeout_us,
                    ):
                        return run(g)
                return run(g)
        except StepBudgetExceeded:
            self.requests_timed_out += 1
            self.requests_failed += 1
            raise GremlinServerError(
                "request evaluation exceeded the server timeout"
            ) from None

    def crash(self) -> None:
        """Driven by the concurrency harness on queue overflow."""
        self.crashed = True

    def restart(self) -> None:
        self.crashed = False
        # a restarted server has an empty script engine: compiled
        # closures (like cached bytecode) do not survive the process
        self._closure_cache.bump_epoch()
