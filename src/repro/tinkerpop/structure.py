"""The Gremlin Structure API: element handles and the provider SPI."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Vertex:
    """A vertex handle; state lives in the provider."""

    id: Any

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"v[{self.id}]"


@dataclass(frozen=True)
class Edge:
    id: Any

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"e[{self.id}]"


class GraphProvider(ABC):
    """What a backend must implement to be TinkerPop-compliant here.

    Implementations charge their own storage/network costs; the traversal
    engine charges only ``step_eval`` per traverser per step.
    """

    #: human-readable backend name (shows up in benchmark reports)
    name: str = "provider"

    # -- reads ----------------------------------------------------------------

    @abstractmethod
    def vertices(self, label: str | None = None) -> Iterator[Any]:
        """All vertex ids (optionally filtered by label)."""

    @abstractmethod
    def vertex_label(self, vid: Any) -> str:
        ...

    @abstractmethod
    def vertex_props(self, vid: Any) -> dict[str, Any]:
        ...

    @abstractmethod
    def edge_props(self, eid: Any) -> dict[str, Any]:
        ...

    @abstractmethod
    def edge_label(self, eid: Any) -> str:
        ...

    @abstractmethod
    def edge_endpoints(self, eid: Any) -> tuple[Any, Any]:
        """``(out_vertex_id, in_vertex_id)`` of an edge."""

    @abstractmethod
    def adjacent(
        self, vid: Any, direction: str, label: str | None
    ) -> Iterator[tuple[Any, Any]]:
        """``(edge_id, other_vertex_id)`` pairs; direction in out/in/both."""

    @abstractmethod
    def lookup(self, label: str, key: str, value: Any) -> list[Any]:
        """Vertex ids by indexed property equality."""

    @abstractmethod
    def has_lookup_index(self, label: str, key: str) -> bool:
        ...

    # -- writes -----------------------------------------------------------------

    @abstractmethod
    def create_vertex(self, label: str, props: dict[str, Any]) -> Any:
        ...

    @abstractmethod
    def create_edge(
        self, label: str, out_vid: Any, in_vid: Any, props: dict[str, Any]
    ) -> Any:
        ...

    def set_vertex_prop(self, vid: Any, key: str, value: Any) -> None:
        raise NotImplementedError(f"{self.name} cannot update properties")

    # -- stats ----------------------------------------------------------------------

    def size_bytes(self) -> int:
        return 0


class Graph:
    """Entry point mirroring ``graph.traversal()``."""

    def __init__(self, provider: GraphProvider) -> None:
        self.provider = provider

    def traversal(self) -> "GraphTraversalSource":
        return GraphTraversalSource(self.provider)


class GraphTraversalSource:
    """``g`` — spawns traversals."""

    def __init__(self, provider: GraphProvider) -> None:
        self.provider = provider

    def V(self, vid: Any = None) -> "Traversal":
        from repro.tinkerpop.traversal import Traversal

        return Traversal(self.provider).V(vid)

    def addV(self, label: str) -> "Traversal":
        from repro.tinkerpop.traversal import Traversal

        return Traversal(self.provider).addV(label)
