"""Gremlin-style traversals.

A traversal is a chain of steps applied lazily to a stream of
*traversers* (value + path + loop counter).  Providers do the actual data
access; the engine charges ``step_eval`` per traverser per step, which is
the TinkerPop interpretation overhead.

Supported steps (the LDBC SNB Gremlin implementation's working set):
``V, hasLabel, has(key, value|P), out, in_, both, outE, inE, bothE, inV,
outV, otherV, values, valueMap, id_, dedup, simplePath, path, limit,
count, order/by, repeat/times/until/emit, addV, addE/to/from_, property``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.simclock.costmodel import CostModel
from repro.simclock.ledger import Ledger, charge
from repro.tinkerpop.structure import Edge, GraphProvider, Vertex

MAX_REPEAT_LOOPS = 64

#: active step budget (None = unlimited); see :func:`step_budget`
_BUDGET: list[int] = []


class TraversalError(Exception):
    pass


class StepBudgetExceeded(TraversalError):
    """The traversal consumed its step budget (stands in for a timeout)."""


class step_budget:
    """Bound the number of step evaluations inside the block.

    The Gremlin Server uses this as its request timeout: traversals whose
    cost explodes (e.g. shortest path via simple-path enumeration on a
    large graph) are aborted, which the benchmark records as DNF — the
    paper's '-' entries.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit

    def __enter__(self) -> "step_budget":
        _BUDGET.append(self.limit)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _BUDGET.pop()


#: active cost guards (see :class:`cost_guard`)
_COST_GUARDS: list["cost_guard"] = []


class cost_guard:
    """Abort a traversal when its *simulated* cost exceeds a deadline.

    The Gremlin Server's ``evaluationTimeout`` equivalent: the active
    ledger is priced every ``check_every`` step evaluations and the
    traversal raises :class:`StepBudgetExceeded` past the limit.
    """

    def __init__(self, ledger: Ledger, model: CostModel, limit_us: float,
                 check_every: int = 2048) -> None:
        self.ledger = ledger
        self.model = model
        self.limit_us = limit_us
        self.check_every = check_every
        self._ticks = 0

    def tick_many(self, n: int) -> None:
        """Advance the guard by ``n`` step evaluations at once."""
        before = self._ticks // self.check_every
        self._ticks += n
        if self._ticks // self.check_every == before:
            return
        if self.model.cost_us(self.ledger.counters) > self.limit_us:
            raise StepBudgetExceeded(
                f"traversal exceeded the {self.limit_us / 1e6:.1f}s "
                f"evaluation timeout"
            )

    def __enter__(self) -> "cost_guard":
        _COST_GUARDS.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        _COST_GUARDS.remove(self)


def tick_batch(n: int) -> None:
    """Consume ``n`` step evaluations' worth of budget in one call.

    Both envelopes tick through here — the interpreter with ``n = 1``
    per traverser, the vectorizing one with a batch's length — so the
    server's step budget and evaluation-timeout guard observe the same
    traverser counts in both modes; otherwise compiled requests would
    never DNF.
    """
    if n <= 0:
        return
    if _BUDGET:
        _BUDGET[-1] -= n
        if _BUDGET[-1] <= 0:
            raise StepBudgetExceeded(
                "traversal exceeded its step budget"
            )
    if _COST_GUARDS:
        _COST_GUARDS[-1].tick_many(n)


def charge_step() -> None:
    """The interpreted price of one traverser through one step.

    ``step_eval`` plus one tick of the step budget and cost guard.
    :class:`Step` charges it per traverser, and the embedded loader
    (:class:`repro.core.connectors.gremlin.EmbeddedLoader`) once per
    ``addV``/``V(id)``/``addE`` step it runs without building the
    traversal, so both pay the same price.
    """
    charge("step_eval")
    tick_batch(1)


@dataclass(frozen=True)
class P:
    """A Gremlin predicate (``P.eq(1)``, ``P.within([1, 2])``, ...)."""

    op: str
    value: Any

    def test(self, candidate: Any) -> bool:
        if candidate is None:
            return False
        if self.op == "eq":
            return candidate == self.value
        if self.op == "neq":
            return candidate != self.value
        if self.op == "gt":
            return candidate > self.value
        if self.op == "gte":
            return candidate >= self.value
        if self.op == "lt":
            return candidate < self.value
        if self.op == "lte":
            return candidate <= self.value
        if self.op == "within":
            return candidate in self.value
        raise TraversalError(f"unknown predicate {self.op}")

    @staticmethod
    def eq(value: Any) -> "P":
        return P("eq", value)

    @staticmethod
    def neq(value: Any) -> "P":
        return P("neq", value)

    @staticmethod
    def gt(value: Any) -> "P":
        return P("gt", value)

    @staticmethod
    def gte(value: Any) -> "P":
        return P("gte", value)

    @staticmethod
    def lt(value: Any) -> "P":
        return P("lt", value)

    @staticmethod
    def lte(value: Any) -> "P":
        return P("lte", value)

    @staticmethod
    def within(values: Any) -> "P":
        return P("within", tuple(values))


@dataclass(frozen=True)
class Traverser:
    obj: Any
    path: tuple = ()
    loops: int = 0

    def move(self, element: Any) -> "Traverser":
        """Step onto ``element``, extending the path."""
        return Traverser(element, self.path + (element,), self.loops)

    def map(self, value: Any) -> "Traverser":
        """Replace the current object; the path is unchanged."""
        return Traverser(value, self.path, self.loops)


#: a step bound for one evaluation: one traverser in, what it becomes out
StepFn = Callable[[Traverser], Iterable[Traverser]]


# --- steps -----------------------------------------------------------------------


class Step:
    """One link of the chain.

    A per-traverser step defines its meaning once, in :meth:`bind`;
    *how* it is driven is an envelope around that definition —
    :meth:`apply` here (tuple-at-a-time, ``step_eval`` per traverser)
    or the vectorizing one in :mod:`repro.exec.gremlinc` (batch
    charges).  Neither envelope may appear inside a definition.
    """

    def bind(self, provider: GraphProvider) -> StepFn:
        """This step's effect on *one* traverser, for one evaluation.

        State that must not leak between evaluations (``dedup``'s
        seen-set) is created here.  Steps reading the provider lazily
        return a generator — a downstream ``limit()`` must be able to
        stop the reads; 1:1 steps and filters return a tuple.
        """
        raise NotImplementedError

    def apply(
        self, traversers: Iterator[Traverser], provider: GraphProvider
    ) -> Iterator[Traverser]:
        """The interpreted envelope: tick, then the definition."""
        one = self.bind(provider)
        for traverser in traversers:
            self._tick()
            yield from one(traverser)

    _tick = staticmethod(charge_step)


class VStep(Step):
    def __init__(self, vid: Any = None) -> None:
        self.vid = vid
        # filled by the has() fold-in optimization
        self.label: str | None = None
        self.index_key: str | None = None
        self.index_value: Any = None

    def bind(self, provider: GraphProvider) -> StepFn:
        def one(traverser: Traverser) -> Iterator[Traverser]:
            if self.vid is not None:
                vids: Any = (self.vid,)
            elif self.index_key is not None:
                vids = provider.lookup(
                    self.label, self.index_key, self.index_value
                )
            else:
                vids = provider.vertices(self.label)
            for vid in vids:
                yield traverser.move(Vertex(vid))

        return one


class HasStep(Step):
    def __init__(
        self, key: str, predicate: P, label: str | None = None
    ) -> None:
        self.key = key
        self.predicate = predicate
        self.label = label

    def bind(self, provider: GraphProvider) -> StepFn:
        key, test, label = self.key, self.predicate.test, self.label

        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            obj = traverser.obj
            if isinstance(obj, Vertex):
                if label is not None and (
                    provider.vertex_label(obj.id) != label
                ):
                    return ()
                value = provider.vertex_props(obj.id).get(key)
            elif isinstance(obj, Edge):
                value = provider.edge_props(obj.id).get(key)
            else:
                raise TraversalError("has() needs an element")
            return (traverser,) if test(value) else ()

        return one


class HasLabelStep(Step):
    def __init__(self, label: str) -> None:
        self.label = label

    def bind(self, provider: GraphProvider) -> StepFn:
        label = self.label

        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            obj = traverser.obj
            if isinstance(obj, Vertex):
                found = provider.vertex_label(obj.id)
            elif isinstance(obj, Edge):
                found = provider.edge_label(obj.id)
            else:
                return ()
            return (traverser,) if found == label else ()

        return one


class AdjacentStep(Step):
    """out/in/both (to vertices) and outE/inE/bothE (to edges)."""

    def __init__(
        self, direction: str, label: str | None, to_edge: bool
    ) -> None:
        self.direction = direction
        self.label = label
        self.to_edge = to_edge

    def bind(self, provider: GraphProvider) -> StepFn:
        direction, label, to_edge = self.direction, self.label, self.to_edge

        def one(traverser: Traverser) -> Iterator[Traverser]:
            obj = traverser.obj
            if not isinstance(obj, Vertex):
                raise TraversalError(
                    f"{direction}() needs a vertex, got {obj!r}"
                )
            for eid, other in provider.adjacent(obj.id, direction, label):
                yield traverser.move(Edge(eid) if to_edge else Vertex(other))

        return one


class EdgeVertexStep(Step):
    """inV / outV / otherV from an edge traverser."""

    def __init__(self, which: str) -> None:
        self.which = which

    def bind(self, provider: GraphProvider) -> StepFn:
        which = self.which

        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            edge = traverser.obj
            if not isinstance(edge, Edge):
                raise TraversalError(f"{which}() needs an edge")
            out_vid, in_vid = provider.edge_endpoints(edge.id)
            if which == "inV":
                vid = in_vid
            elif which == "outV":
                vid = out_vid
            else:  # otherV: the endpoint we did not come from
                prev = None
                for element in reversed(traverser.path[:-1]):
                    if isinstance(element, Vertex):
                        prev = element.id
                        break
                vid = in_vid if prev == out_vid else out_vid
            return (traverser.move(Vertex(vid)),)

        return one


class ValuesStep(Step):
    def __init__(self, keys: tuple[str, ...]) -> None:
        self.keys = keys

    def bind(self, provider: GraphProvider) -> StepFn:
        keys = self.keys

        def one(traverser: Traverser) -> list[Traverser]:
            props = element_props(traverser.obj, provider)
            return [
                traverser.map(value)
                for key in keys
                if (value := props.get(key)) is not None
            ]

        return one


class ValueMapStep(Step):
    def bind(self, provider: GraphProvider) -> StepFn:
        return lambda traverser: (
            traverser.map(dict(element_props(traverser.obj, provider))),
        )


class IdStep(Step):
    def bind(self, provider: GraphProvider) -> StepFn:
        return lambda traverser: (traverser.map(traverser.obj.id),)


class DedupStep(Step):
    def bind(self, provider: GraphProvider) -> StepFn:
        seen: set = set()

        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            key = traverser.obj
            if isinstance(key, dict):
                key = tuple(sorted(key.items()))
            if key in seen:
                return ()
            seen.add(key)
            return (traverser,)

        return one


class SimplePathStep(Step):
    def bind(self, provider: GraphProvider) -> StepFn:
        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            elements = [
                e for e in traverser.path if isinstance(e, (Vertex, Edge))
            ]
            if len(elements) == len(set(elements)):
                return (traverser,)
            return ()

        return one


class PathStep(Step):
    def bind(self, provider: GraphProvider) -> StepFn:
        return lambda traverser: (traverser.map(tuple(traverser.path)),)


class LimitStep(Step):
    def __init__(self, limit: int) -> None:
        self.limit = limit

    def apply(
        self, traversers: Iterator[Traverser], provider: GraphProvider
    ) -> Iterator[Traverser]:
        emitted = 0
        for traverser in traversers:
            if emitted >= self.limit:
                return
            self._tick()
            emitted += 1
            yield traverser


class CountStep(Step):
    def apply(
        self, traversers: Iterator[Traverser], provider: GraphProvider
    ) -> Iterator[Traverser]:
        total = 0
        for _ in traversers:
            self._tick()
            total += 1
        yield Traverser(obj=total)


class OrderStep(Step):
    def __init__(self) -> None:
        self.key: str | None = None
        self.descending = False

    def sort_key(
        self, provider: GraphProvider
    ) -> Callable[[Traverser], tuple[bool, Any]]:
        """NULLs-first key over the object or its ``by()`` property."""
        key = self.key

        def sort_key(traverser: Traverser) -> tuple[bool, Any]:
            value = traverser.obj
            if key is not None:
                value = element_props(value, provider).get(key)
            return (value is not None, value)

        return sort_key

    def apply(
        self, traversers: Iterator[Traverser], provider: GraphProvider
    ) -> Iterator[Traverser]:
        materialized = list(traversers)
        self._tick()
        materialized.sort(
            key=self.sort_key(provider), reverse=self.descending
        )
        yield from materialized


class RepeatStep(Step):
    def __init__(self, body: "Traversal") -> None:
        self.body = body
        self.times: int | None = None
        self.until: "Traversal | None" = None
        self.emit = False

    def apply(
        self, traversers: Iterator[Traverser], provider: GraphProvider
    ) -> Iterator[Traverser]:
        frontier = list(traversers)
        loops = 0
        while frontier:
            loops += 1
            if loops > MAX_REPEAT_LOOPS:
                raise TraversalError(
                    f"repeat() exceeded {MAX_REPEAT_LOOPS} loops"
                )
            next_frontier: list[Traverser] = []
            for traverser in frontier:
                self._tick()
                looped = Traverser(
                    traverser.obj, traverser.path, traverser.loops + 1
                )
                for result in self.body._apply_to(looped, provider):
                    if self.until is not None and self._test(
                        result, provider
                    ):
                        yield result
                    elif self.emit:
                        yield result
                        next_frontier.append(result)
                    else:
                        next_frontier.append(result)
            frontier = next_frontier
            if self.times is not None and loops >= self.times:
                yield from frontier
                return
            if self.times is None and self.until is None:
                raise TraversalError("repeat() needs times() or until()")

    def _test(self, traverser: Traverser, provider: GraphProvider) -> bool:
        assert self.until is not None
        return any(
            True for _ in self.until._apply_to(traverser, provider)
        )


class AddVStep(Step):
    def __init__(self, label: str) -> None:
        self.label = label
        self.props: dict[str, Any] = {}

    def bind(self, provider: GraphProvider) -> StepFn:
        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            vid = provider.create_vertex(self.label, dict(self.props))
            return (traverser.move(Vertex(vid)),)

        return one


class AddEStep(Step):
    def __init__(self, label: str) -> None:
        self.label = label
        self.to_vertex: Vertex | None = None
        self.from_vertex: Vertex | None = None
        self.props: dict[str, Any] = {}

    def bind(self, provider: GraphProvider) -> StepFn:
        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            current = traverser.obj
            if not isinstance(current, Vertex) and (
                self.from_vertex is None or self.to_vertex is None
            ):
                raise TraversalError("addE() needs a vertex context")
            out_v = self.from_vertex or current
            in_v = self.to_vertex or current
            eid = provider.create_edge(
                self.label, out_v.id, in_v.id, dict(self.props)
            )
            return (traverser.move(Edge(eid)),)

        return one


class PropertyStep(Step):
    """Mutates an existing element (fold-in handles addV/addE chains)."""

    def __init__(self, key: str, value: Any) -> None:
        self.key = key
        self.value = value

    def bind(self, provider: GraphProvider) -> StepFn:
        def one(traverser: Traverser) -> tuple[Traverser, ...]:
            obj = traverser.obj
            if not isinstance(obj, Vertex):
                raise TraversalError("property() mutation needs a vertex")
            provider.set_vertex_prop(obj.id, self.key, self.value)
            return (traverser,)

        return one


class FilterStep(Step):
    """Engine-internal predicate filter (used by where-like helpers)."""

    def __init__(self, fn: Callable[[Any], bool]) -> None:
        self.fn = fn

    def bind(self, provider: GraphProvider) -> StepFn:
        fn = self.fn
        return lambda traverser: (traverser,) if fn(traverser.obj) else ()


def element_props(obj: Any, provider: GraphProvider) -> dict[str, Any]:
    if isinstance(obj, Vertex):
        return provider.vertex_props(obj.id)
    if isinstance(obj, Edge):
        return provider.edge_props(obj.id)
    raise TraversalError(f"expected an element, got {obj!r}")


# --- the traversal builder ------------------------------------------------------------


class Traversal:
    """A chain of steps; iterate (or ``toList()``) to execute."""

    def __init__(self, provider: GraphProvider | None = None) -> None:
        self.provider = provider
        self.steps: list[Step] = []

    # -- builders -------------------------------------------------------------

    def V(self, vid: Any = None) -> "Traversal":
        self.steps.append(VStep(vid))
        return self

    def hasLabel(self, label: str) -> "Traversal":
        step = self.steps[-1] if self.steps else None
        if isinstance(step, VStep) and step.vid is None and step.label is None:
            step.label = label
            return self
        self.steps.append(HasLabelStep(label))
        return self

    def has(self, *args: Any) -> "Traversal":
        if len(args) == 3:
            label, key, value = args
            predicate = value if isinstance(value, P) else P.eq(value)
            # fold V().has(label, key, eq) into an index lookup
            step = self.steps[-1] if self.steps else None
            if (
                isinstance(step, VStep)
                and step.vid is None
                and step.index_key is None
                and predicate.op == "eq"
                and self.provider is not None
                and self.provider.has_lookup_index(label, key)
            ):
                step.label = label
                step.index_key = key
                step.index_value = predicate.value
                return self
            self.steps.append(HasStep(key, predicate, label))
            return self
        if len(args) == 2:
            key, value = args
            predicate = value if isinstance(value, P) else P.eq(value)
            # fold V().hasLabel(l).has(key, eq) into an index lookup: the
            # label already on the VStep scopes the (label, key) index
            step = self.steps[-1] if self.steps else None
            if (
                isinstance(step, VStep)
                and step.vid is None
                and step.index_key is None
                and step.label is not None
                and predicate.op == "eq"
                and self.provider is not None
                and self.provider.has_lookup_index(step.label, key)
            ):
                step.index_key = key
                step.index_value = predicate.value
                return self
            self.steps.append(HasStep(key, predicate))
            return self
        raise TraversalError("has() takes (key, value) or (label, key, value)")

    def out(self, label: str | None = None) -> "Traversal":
        self.steps.append(AdjacentStep("out", label, to_edge=False))
        return self

    def in_(self, label: str | None = None) -> "Traversal":
        self.steps.append(AdjacentStep("in", label, to_edge=False))
        return self

    def both(self, label: str | None = None) -> "Traversal":
        self.steps.append(AdjacentStep("both", label, to_edge=False))
        return self

    def outE(self, label: str | None = None) -> "Traversal":
        self.steps.append(AdjacentStep("out", label, to_edge=True))
        return self

    def inE(self, label: str | None = None) -> "Traversal":
        self.steps.append(AdjacentStep("in", label, to_edge=True))
        return self

    def bothE(self, label: str | None = None) -> "Traversal":
        self.steps.append(AdjacentStep("both", label, to_edge=True))
        return self

    def inV(self) -> "Traversal":
        self.steps.append(EdgeVertexStep("inV"))
        return self

    def outV(self) -> "Traversal":
        self.steps.append(EdgeVertexStep("outV"))
        return self

    def otherV(self) -> "Traversal":
        self.steps.append(EdgeVertexStep("otherV"))
        return self

    def values(self, *keys: str) -> "Traversal":
        self.steps.append(ValuesStep(keys))
        return self

    def valueMap(self) -> "Traversal":
        self.steps.append(ValueMapStep())
        return self

    def id_(self) -> "Traversal":
        self.steps.append(IdStep())
        return self

    def dedup(self) -> "Traversal":
        self.steps.append(DedupStep())
        return self

    def simplePath(self) -> "Traversal":
        self.steps.append(SimplePathStep())
        return self

    def path(self) -> "Traversal":
        self.steps.append(PathStep())
        return self

    def limit(self, n: int) -> "Traversal":
        self.steps.append(LimitStep(n))
        return self

    def count(self) -> "Traversal":
        self.steps.append(CountStep())
        return self

    def order(self) -> "Traversal":
        self.steps.append(OrderStep())
        return self

    def by(self, key: str, descending: bool = False) -> "Traversal":
        step = self.steps[-1] if self.steps else None
        if not isinstance(step, OrderStep):
            raise TraversalError("by() must follow order()")
        step.key = key
        step.descending = descending
        return self

    def repeat(self, body: "Traversal") -> "Traversal":
        self.steps.append(RepeatStep(body))
        return self

    def times(self, n: int) -> "Traversal":
        step = self._last_repeat()
        step.times = n
        return self

    def until(self, cond: "Traversal") -> "Traversal":
        step = self._last_repeat()
        step.until = cond
        return self

    def emit(self) -> "Traversal":
        step = self._last_repeat()
        step.emit = True
        return self

    def _last_repeat(self) -> RepeatStep:
        step = self.steps[-1] if self.steps else None
        if not isinstance(step, RepeatStep):
            raise TraversalError("times()/until()/emit() must follow repeat()")
        return step

    def addV(self, label: str) -> "Traversal":
        self.steps.append(AddVStep(label))
        return self

    def addE(self, label: str) -> "Traversal":
        self.steps.append(AddEStep(label))
        return self

    def to(self, vertex: Vertex) -> "Traversal":
        step = self.steps[-1] if self.steps else None
        if not isinstance(step, AddEStep):
            raise TraversalError("to() must follow addE()")
        step.to_vertex = vertex
        return self

    def from_(self, vertex: Vertex) -> "Traversal":
        step = self.steps[-1] if self.steps else None
        if not isinstance(step, AddEStep):
            raise TraversalError("from_() must follow addE()")
        step.from_vertex = vertex
        return self

    def property(self, key: str, value: Any) -> "Traversal":
        step = self.steps[-1] if self.steps else None
        if isinstance(step, (AddVStep, AddEStep)):
            step.props[key] = value
            return self
        self.steps.append(PropertyStep(key, value))
        return self

    def filter_(self, fn: Callable[[Any], bool]) -> "Traversal":
        self.steps.append(FilterStep(fn))
        return self

    # -- execution ---------------------------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        if self.provider is None:
            raise TraversalError("anonymous traversals cannot be iterated")
        traversers: Iterator[Traverser] = iter([Traverser(obj=None)])
        for step in self.steps:
            traversers = step.apply(traversers, self.provider)
        return (t.obj for t in traversers)

    def _apply_to(
        self, traverser: Traverser, provider: GraphProvider
    ) -> Iterator[Traverser]:
        """Run this traversal as a sub-traversal of one traverser."""
        traversers: Iterator[Traverser] = iter([traverser])
        for step in self.steps:
            traversers = step.apply(traversers, provider)
        return traversers

    def toList(self) -> list[Any]:
        return list(self)

    def next(self) -> Any:
        for obj in self:
            return obj
        raise TraversalError("traversal is empty")

    def iterate(self) -> None:
        for _ in self:
            pass


def anon() -> Traversal:
    """An anonymous sub-traversal (``__`` in Gremlin)."""
    return Traversal(provider=None)
