"""TinkerPop3 analogue: Gremlin Structure API + traversal machinery.

* :mod:`repro.tinkerpop.structure` — the provider SPI (`GraphProvider`)
  and element handles; any backend implementing the SPI is
  "TinkerPop-compliant" (the Neo4j adapter, Sqlg, and both Titan
  backends all do).
* :mod:`repro.tinkerpop.traversal` — ``g.V().has(...).out(...).values(...)``
  style traversals, evaluated step by step.  Each step turns into
  *provider calls*; for remote backends every call pays round-trip and
  per-element costs — the paper's "multiple small requests" pathology.
* :mod:`repro.tinkerpop.server` — the Gremlin Server: submit-a-script
  round trips, per-element GraphSON serialization, a bounded worker pool,
  and the overload behaviour that made the paper drop complex queries
  from the concurrent mix.
"""

from repro.tinkerpop.structure import Edge, Graph, GraphProvider, Vertex
from repro.tinkerpop.traversal import P, Traversal, anon
from repro.tinkerpop.server import GremlinServer, GremlinServerError

__all__ = [
    "GraphProvider",
    "Graph",
    "Vertex",
    "Edge",
    "Traversal",
    "P",
    "anon",
    "GremlinServer",
    "GremlinServerError",
]
