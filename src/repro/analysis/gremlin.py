"""Static analysis of Gremlin traversals against the schema catalog.

Gremlin has no query text: a catalog entry is a *builder* — a function
taking a :class:`~repro.tinkerpop.traversal.Traversal` plus sample
parameters and returning the built chain.  The builder is executed
against a provider-less traversal (so the ``has()`` index fold-in stays
inert and every step is visible) and the resulting ``steps`` list is
walked with a typestate: the set of entity kinds the current traversers
may be, or the relationship an edge traverser belongs to.  Adjacency
steps check their edge label (QA102) and move the state along the edge;
``values``/``has``/``order().by`` check property keys (QA103) and
literal types (QA201).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.analysis.cypher import AnalysisResult
from repro.analysis.diagnostics import SourceLocation, make
from repro.analysis.schema import Relationship, SchemaCatalog, default_catalog
from repro.tinkerpop import traversal as tv

#: a catalog entry: (builder, sample keyword arguments)
GremlinEntry = tuple[Callable[..., tv.Traversal], dict[str, Any]]


def analyze_gremlin(
    operation: str,
    entries: Sequence[GremlinEntry],
    catalog: SchemaCatalog | None = None,
) -> AnalysisResult:
    catalog = catalog or default_catalog()
    result = AnalysisResult()
    for index, (builder, sample) in enumerate(entries):
        location = SourceLocation("gremlin", operation, index)
        try:
            chain = builder(tv.Traversal(provider=None), **sample)
        except tv.TraversalError:
            continue  # the builder raises the same at first execution
        _Walker(location, catalog, result).walk(
            chain.steps, ("start", None)
        )
    return result


#: typestate: ("start", None) | ("vertices", frozenset[str]) |
#:            ("edge", Relationship | None) | ("value", None)
_State = tuple[str, Any]


class _Walker:
    def __init__(
        self,
        location: SourceLocation,
        catalog: SchemaCatalog,
        result: AnalysisResult,
    ) -> None:
        self.location = location
        self.catalog = catalog
        self.result = result
        self.out = result.diagnostics
        self.all_entities = frozenset(catalog.entities)

    def emit(self, code: str, message: str) -> None:
        self.out.append(make(code, message, self.location))

    # -- the typestate walk ------------------------------------------------

    def walk(self, steps: list[tv.Step], state: _State) -> _State:
        for step in steps:
            state = self.step(step, state)
        return state

    def step(self, step: tv.Step, state: _State) -> _State:
        if isinstance(step, tv.VStep):
            entities = self.all_entities
            if step.label is not None:
                named = self.vertex_label(step.label)
                if named is not None:
                    entities = named
                    self.result.footprint.update(named)
            if step.index_key is not None and step.index_key != "id":
                self.element_keys((step.index_key,), ("vertices", entities))
            return ("vertices", entities)
        if isinstance(step, tv.HasLabelStep):
            return self.narrow_label(step.label, state)
        if isinstance(step, tv.HasStep):
            if step.label is not None:
                state = self.narrow_label(step.label, state)
            self.has_key(step.key, step.predicate, state)
            return state
        if isinstance(step, tv.AdjacentStep):
            return self.adjacent(step, state)
        if isinstance(step, tv.EdgeVertexStep):
            return self.edge_vertex(step, state)
        if isinstance(step, (tv.ValuesStep, tv.ValueMapStep)):
            if isinstance(step, tv.ValuesStep):
                self.element_keys(step.keys, state)
            return ("value", None)
        if isinstance(step, tv.OrderStep):
            if step.key is not None:
                self.element_keys((step.key,), state)
            return state
        if isinstance(step, tv.RepeatStep):
            end = self.walk(step.body.steps, state)
            if step.until is not None:
                self.walk(step.until.steps, end)
            return end
        if isinstance(step, tv.AddVStep):
            return self.add_vertex(step)
        if isinstance(step, tv.AddEStep):
            return self.add_edge(step, state)
        if isinstance(step, tv.PropertyStep):
            self.has_key(step.key, None, state)
            if state[0] == "vertices":
                self.value_type(
                    self.catalog.entity_prop_type(state[1], step.key),
                    step.value, step.key,
                )
            return state
        if isinstance(step, (tv.CountStep, tv.IdStep, tv.PathStep)):
            return ("value", None)
        # Dedup / SimplePath / Limit / Filter keep the stream's type
        return state

    # -- labels ------------------------------------------------------------

    def vertex_label(self, label: str) -> frozenset[str] | None:
        entities = self.catalog.gremlin_vertex_labels.get(label)
        if entities is None:
            self.emit("QA101", f"unknown vertex label {label!r}")
        return entities

    def narrow_label(self, label: str, state: _State) -> _State:
        entities = self.vertex_label(label)
        if entities is None:
            return state
        self.result.footprint.update(entities)
        if state[0] == "vertices":
            return ("vertices", state[1] & entities or entities)
        return ("vertices", entities)

    # -- properties --------------------------------------------------------

    def has_key(
        self, key: str, predicate: tv.P | None, state: _State
    ) -> None:
        declared: str | None = None
        if state[0] == "vertices":
            declared = self.catalog.entity_prop_type(state[1], key)
            if declared is None:
                self.emit(
                    "QA103",
                    f"no entity in {sorted(state[1])} has property "
                    f"{key!r}",
                )
                return
        elif state[0] == "edge" and state[1] is not None:
            rel: Relationship = state[1]
            declared = rel.props.get(key)
            if declared is None:
                self.emit(
                    "QA103",
                    f"edge {rel.name!r} has no property {key!r}",
                )
                return
        if declared is None or predicate is None:
            return
        values = (
            predicate.value
            if predicate.op == "within"
            else (predicate.value,)
        )
        for value in values:
            self.value_type(declared, value, key)

    def value_type(
        self, declared: str | None, value: Any, key: str
    ) -> None:
        if declared is None or value is None:
            return
        if isinstance(value, bool):
            actual = "str"
        elif isinstance(value, (int, float)):
            actual = "int"
        elif isinstance(value, (list, tuple)):
            actual = "list"
        else:
            actual = "str"
        if actual != declared:
            self.emit(
                "QA201",
                f"property {key!r} is {declared}, given {actual} "
                f"value {value!r}",
            )

    def element_keys(self, keys: Sequence[str], state: _State) -> None:
        for key in keys:
            self.has_key(key, None, state)

    # -- edges -------------------------------------------------------------

    def adjacent(self, step: tv.AdjacentStep, state: _State) -> _State:
        if step.label is None:
            return (
                ("edge", None) if step.to_edge
                else ("vertices", self.all_entities)
            )
        name = self.catalog.gremlin_edge_labels.get(step.label)
        if name is None:
            self.emit("QA102", f"unknown edge label {step.label!r}")
            return (
                ("edge", None) if step.to_edge
                else ("vertices", self.all_entities)
            )
        rel = self.catalog.relationships[name]
        self.result.footprint.add(rel.name)
        current = (
            state[1] if state[0] == "vertices" else self.all_entities
        )
        targets: set[str] = set()
        if step.direction in ("out", "both") and current & rel.src:
            targets |= rel.dst
        if step.direction in ("in", "both") and current & rel.dst:
            targets |= rel.src
        if not targets:
            targets = set(rel.src | rel.dst)
        if step.to_edge:
            return ("edge", rel)
        self.result.footprint.update(targets)
        return ("vertices", frozenset(targets))

    def edge_vertex(self, step: tv.EdgeVertexStep, state: _State) -> _State:
        if state[0] != "edge" or state[1] is None:
            return ("vertices", self.all_entities)
        rel = state[1]
        if step.which == "inV":
            return ("vertices", rel.dst)
        if step.which == "outV":
            return ("vertices", rel.src)
        return ("vertices", rel.src | rel.dst)

    # -- mutations ---------------------------------------------------------

    def add_vertex(self, step: tv.AddVStep) -> _State:
        entities = self.vertex_label(step.label)
        if entities is None:
            return ("vertices", self.all_entities)
        self.result.footprint.update(entities)
        for key, value in step.props.items():
            declared = self.catalog.entity_prop_type(entities, key)
            if declared is None:
                self.emit(
                    "QA103",
                    f"{step.label!r} has no property {key!r}",
                )
            else:
                self.value_type(declared, value, key)
        return ("vertices", entities)

    def add_edge(self, step: tv.AddEStep, state: _State) -> _State:
        name = self.catalog.gremlin_edge_labels.get(step.label)
        if name is None:
            self.emit("QA102", f"unknown edge label {step.label!r}")
            return ("edge", None)
        rel = self.catalog.relationships[name]
        self.result.footprint.add(rel.name)
        for key, value in step.props.items():
            declared = rel.props.get(key)
            if declared is None:
                self.emit(
                    "QA103",
                    f"edge {rel.name!r} has no property {key!r}",
                )
            else:
                self.value_type(declared, value, key)
        return ("edge", rel)
