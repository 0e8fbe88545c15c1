"""The real-time interactive workload runner (Figure 3).

Architecture (the paper's Figure 1): update operations are produced into
a Kafka topic; a single dedicated writer consumes them and executes update
transactions against the SUT while N concurrent readers run the reduced
query mix.  Everything runs on the discrete-event simulator; operation
service times come from the cost ledgers.

Per-system contention models (each the mechanism the paper identifies):

* **Gremlin systems** — every request needs a Gremlin Server worker
  (bounded pool).  When the request queue exceeds the limit, the server
  crashes and all subsequent requests fail (Section 4.4).
* **Titan-B** — its embedded BerkeleyDB serializes *all* operations
  through a store latch; under 32 readers + writer it collapses.
* **Neo4j** — a background checkpointer periodically stalls the write
  path in proportion to the dirty volume ("sudden drops due to
  checkpointing"); reads continue.
* **SQL / SPARQL systems** — writers pay their measured WAL/index/column
  maintenance costs; no extra serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.benchmark import WorkloadParams
from repro.core.connectors.base import Connector, OperationFailed
from repro.core.connectors.gremlin import GremlinConnector
from repro.core.metrics import LatencyRecorder, ThroughputWindow
from repro.driver.workload import QueryMix
from repro.kafka import Broker, Consumer, Producer
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

UPDATES_TOPIC = "snb-updates"


@dataclass
class InteractiveConfig:
    readers: int = 32
    duration_ms: float = 2_000.0  # simulated
    window_ms: float = 100.0
    cores: int = 32
    seed: int = 7
    mix: list[tuple[str, int]] | None = None
    #: ``snapshot`` (MVCC: readers never take the read/write latch) or
    #: ``read-committed`` (writers exclude readers while applying)
    isolation_level: str = "snapshot"
    checkpoint_interval_ms: float = 500.0
    checkpoint_stall_us_per_record: float = 400.0
    max_update_events: int | None = None
    #: events the writer polls and applies per update transaction; 1 is
    #: the paper's per-event writer (:meth:`Connector.apply_update`), >1
    #: drains each poll through :meth:`Connector.apply_update_batch`
    #: (group commit: one WAL flush per batch)
    write_batch_size: int = 1

    def __post_init__(self) -> None:
        if self.write_batch_size < 1:
            raise ValueError("write_batch_size must be >= 1")


@dataclass
class InteractiveResult:
    system: str
    readers: int
    duration_ms: float
    read_windows: ThroughputWindow
    write_windows: ThroughputWindow
    read_latency: LatencyRecorder
    write_latency: LatencyRecorder
    read_failures: int = 0
    server_crashed: bool = False
    updates_applied: int = 0
    #: time readers spent blocked on the read/write latch; zero by
    #: construction under snapshot isolation (readers never take it)
    reader_lock_waits: int = 0
    reader_lock_wait_us: float = 0.0

    @property
    def read_throughput(self) -> float:
        return self.read_windows.mean_rate(self.duration_ms)

    @property
    def write_throughput(self) -> float:
        return self.write_windows.mean_rate(self.duration_ms)


class InteractiveWorkloadRunner:
    """Runs Section 4.3's workload against one loaded connector."""

    def __init__(
        self,
        connector: Connector,
        dataset: SnbDataset,
        config: InteractiveConfig | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.connector = connector
        self.dataset = dataset
        self.config = config or InteractiveConfig()
        self.model = cost_model or CostModel()

    # -- the experiment ------------------------------------------------------------

    def run(self) -> InteractiveResult:
        config = self.config
        connector = self.connector
        sim = Simulator()
        result = InteractiveResult(
            system=connector.key,
            readers=config.readers,
            duration_ms=config.duration_ms,
            read_windows=ThroughputWindow(config.window_ms),
            write_windows=ThroughputWindow(config.window_ms),
            read_latency=LatencyRecorder("read"),
            write_latency=LatencyRecorder("write"),
        )

        # Kafka: pre-produce the dependency-ordered update stream
        broker = Broker()
        broker.create_topic(UPDATES_TOPIC)
        producer = Producer(broker)
        events = self.dataset.updates
        if config.max_update_events is not None:
            events = events[: config.max_update_events]
        for event in events:
            producer.send(UPDATES_TOPIC, event, event.creation_ms)
        producer.flush()
        consumer = Consumer(broker, "sut-writer", UPDATES_TOPIC)

        # contention resources
        cpu = Resource(capacity=config.cores, name="cpu")
        is_gremlin = isinstance(connector, GremlinConnector)
        server_pool = None
        if is_gremlin:
            server_pool = Resource(
                capacity=connector.server.worker_pool_size,
                name="gremlin-workers",
            )
        store_latch = None
        if "titan-b-writer" in connector.write_resources:
            store_latch = Resource(capacity=1, name="bdb-latch")
        checkpoint_lock = Resource(capacity=1, name="wal-lock")
        # read-committed: writers exclude readers for the duration of
        # each update transaction (the writer drains every unit of the
        # latch).  Snapshot isolation removes the latch entirely —
        # readers run against immutable versions and never wait.
        connector.set_isolation_level(config.isolation_level)
        rw_latch = None
        if config.isolation_level == "read-committed":
            rw_latch = Resource(
                capacity=max(1, config.readers), name="rw-latch"
            )

        params = WorkloadParams.curate(self.dataset, seed=config.seed)
        mix = QueryMix(params, mix=config.mix, seed=config.seed)
        deadline_us = config.duration_ms * 1000.0

        def execute(op) -> float | None:
            """Run the op for real; returns its simulated cost in us."""
            try:
                with meter() as ledger:
                    op()
            except OperationFailed:
                return None
            return self.model.cost_us(ledger.counters)

        def enter(writing: bool):
            """Take a worker's resources, in the one order all workers use."""
            if is_gremlin:
                if server_pool.queue_depth >= connector.server.queue_limit:
                    connector.server.crash()
                    result.server_crashed = True
                yield Acquire(server_pool)
            if store_latch is not None:
                yield Acquire(store_latch)
            if rw_latch is not None and writing:
                # the writer takes every unit: no reader runs beside it
                for _ in range(rw_latch.capacity):
                    yield Acquire(rw_latch)
            elif rw_latch is not None:
                queued_us = sim.now_us
                yield Acquire(rw_latch)
                waited_us = sim.now_us - queued_us
                if waited_us > 0.0:
                    result.reader_lock_waits += 1
                    result.reader_lock_wait_us += waited_us
            if writing:
                yield Acquire(checkpoint_lock)
            yield Acquire(cpu)

        def leave(writing: bool):
            """Release what :func:`enter` took, in reverse order."""
            yield Release(cpu)
            if writing:
                yield Release(checkpoint_lock)
            if rw_latch is not None:
                for _ in range(rw_latch.capacity if writing else 1):
                    yield Release(rw_latch)
            if store_latch is not None:
                yield Release(store_latch)
            if is_gremlin:
                yield Release(server_pool)

        def reader():
            while sim.now_us < deadline_us:
                read_op = mix.draw()
                yield from enter(writing=False)
                cost_us = execute(lambda: read_op.execute(connector))
                if cost_us is None:
                    result.read_failures += 1
                    cost_us = 1000.0  # failed request still burns time
                else:
                    result.read_latency.record(cost_us / 1000.0)
                    result.read_windows.record(
                        (sim.now_us + cost_us) / 1000.0
                    )
                yield Timeout(cost_us)
                yield from leave(writing=False)

        batch_size = config.write_batch_size
        if batch_size == 1:
            def apply(events: list) -> None:
                connector.apply_update(events[0])
        else:
            apply = connector.apply_update_batch

        def writer():
            """One update transaction per poll of ``batch_size`` events."""
            while sim.now_us < deadline_us:
                batch = consumer.poll(batch_size)
                if not batch:
                    return
                events = [record.value for record in batch]
                yield from enter(writing=True)
                cost_us = execute(lambda: apply(events))
                if cost_us is not None:
                    per_event_us = cost_us / len(events)
                    for _ in events:
                        result.updates_applied += 1
                        result.write_latency.record(per_event_us / 1000.0)
                        result.write_windows.record(
                            (sim.now_us + cost_us) / 1000.0
                        )
                else:
                    cost_us = 1000.0
                yield Timeout(cost_us)
                yield from leave(writing=True)
                consumer.commit()

        def checkpointer():
            """Periodic flushes stall the write path (Neo4j)."""
            while sim.now_us < deadline_us:
                yield Timeout(config.checkpoint_interval_ms * 1000.0)
                flushed = self.connector.checkpoint_pages()
                if flushed <= 0:
                    continue
                stall_us = flushed * config.checkpoint_stall_us_per_record
                yield Acquire(checkpoint_lock)
                yield Timeout(stall_us)
                yield Release(checkpoint_lock)

        for i in range(config.readers):
            sim.spawn(reader(), name=f"reader-{i}")
        sim.spawn(writer(), name="writer")
        if connector.key == "neo4j-cypher":
            sim.spawn(checkpointer(), name="checkpointer")
        sim.run(until_us=deadline_us + 50_000.0)
        return result
