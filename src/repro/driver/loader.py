"""Data-ingestion harnesses (Table 4 and Appendix A).

Sequential loading measures the LDBC Gremlin loading utility one phase at
a time (all vertices, then all edges) so vertex/s and edge/s can be
reported separately, as Table 4 does.

Concurrent loading replays the same work from N simulated loader
processes on the discrete-event simulator, with per-backend write
contention models:

* Titan-C / Cassandra — log-structured writes, no shared latch: the only
  system that scales with loaders (Appendix A's finding);
* Titan-B / BerkeleyDB — a global writer latch held for the whole write,
  plus lock-thrashing penalties under queueing (its degradation);
* Sqlg / Postgres — the commit critical section serializes the tail of
  every write (transactional locking limits scaling).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.connectors.gremlin import (
    EmbeddedLoader,
    iter_edge_specs,
    iter_vertex_specs,
)
from repro.simclock import (
    Acquire,
    CostModel,
    Release,
    Resource,
    Simulator,
    Timeout,
    meter,
)
from repro.snb.datagen import SnbDataset
from repro.sqlg import SqlgProvider
from repro.tinkerpop.structure import GraphProvider


@dataclass
class LoadReport:
    system: str
    loaders: int
    vertices: int
    edges: int
    vertex_seconds: float  # simulated
    edge_seconds: float

    @property
    def total_minutes(self) -> float:
        return (self.vertex_seconds + self.edge_seconds) / 60.0

    @property
    def vertices_per_second(self) -> float:
        return self.vertices / self.vertex_seconds if self.vertex_seconds else 0.0

    @property
    def edges_per_second(self) -> float:
        return self.edges / self.edge_seconds if self.edge_seconds else 0.0


def sequential_load(
    provider: GraphProvider,
    dataset: SnbDataset,
    model: CostModel | None = None,
) -> LoadReport:
    """Single-loader ingestion via embedded Gremlin traversals."""
    model = model or CostModel()
    embedded = EmbeddedLoader(provider)
    vertex_specs = list(iter_vertex_specs(dataset))
    edge_specs = list(iter_edge_specs(dataset))
    with meter() as vertex_ledger:
        for spec in vertex_specs:
            embedded.add_vertex(spec)
    with meter() as edge_ledger:
        for spec in edge_specs:
            embedded.add_edge(spec)
    return LoadReport(
        system=provider.name,
        loaders=1,
        vertices=len(vertex_specs),
        edges=len(edge_specs),
        vertex_seconds=vertex_ledger.cost_us(model) / 1e6,
        edge_seconds=edge_ledger.cost_us(model) / 1e6,
    )


def _write_policy(provider: GraphProvider) -> str:
    if getattr(provider, "serializes_writers", False):
        return "exclusive"  # Titan-B: BerkeleyDB writer serialization
    if isinstance(provider, SqlgProvider):
        return "commit"  # Postgres: commit critical section
    return "none"  # Cassandra LSM: concurrent appends


def concurrent_load(
    provider: GraphProvider,
    dataset: SnbDataset,
    loaders: int,
    model: CostModel | None = None,
    *,
    chunk: int = 16,
) -> LoadReport:
    """N-loader ingestion on the discrete-event simulator."""
    if loaders < 1:
        raise ValueError("need at least one loader")
    model = model or CostModel()
    embedded = EmbeddedLoader(provider)
    policy = _write_policy(provider)

    def run_phase(items: list, do_item) -> float:
        sim = Simulator()
        latch = Resource(capacity=1, name="writer-latch")

        def loader(slice_items: list):
            for start in range(0, len(slice_items), chunk):
                batch = slice_items[start : start + chunk]
                with meter() as ledger:
                    for item in batch:
                        do_item(item)
                cost_us = model.cost_us(ledger.counters)
                if policy == "none":
                    yield Timeout(cost_us)
                elif policy == "exclusive":
                    # lock-thrash penalty grows with the queue (deadlock
                    # retries / lock-table churn in BerkeleyDB)
                    penalty = 1500.0 * latch.queue_depth
                    yield Acquire(latch)
                    yield Timeout(cost_us + penalty)
                    yield Release(latch)
                else:  # commit: tail of the write is serialized
                    yield Timeout(cost_us * 0.4)
                    yield Acquire(latch)
                    yield Timeout(cost_us * 0.6)
                    yield Release(latch)

        for i in range(loaders):
            sim.spawn(loader(items[i::loaders]), name=f"loader-{i}")
        return sim.run() / 1e6  # seconds

    vertex_specs = list(iter_vertex_specs(dataset))
    edge_specs = list(iter_edge_specs(dataset))
    vertex_seconds = run_phase(vertex_specs, embedded.add_vertex)
    edge_seconds = run_phase(edge_specs, embedded.add_edge)
    return LoadReport(
        system=provider.name,
        loaders=loaders,
        vertices=len(vertex_specs),
        edges=len(edge_specs),
        vertex_seconds=vertex_seconds,
        edge_seconds=edge_seconds,
    )
