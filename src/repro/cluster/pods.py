"""Shard pods: the primary (with its CDC tap) and lag-tracked replicas.

Every mutation of a shard — routed client writes *and* coordinator ghost
materializations — funnels through :meth:`ShardPrimary.apply`, which
applies the event to the primary engine and produces it to the shard's
own partition of the CDC topic.  One partition per shard is the whole
ordering story: a replica consuming exactly that partition replays the
identical per-shard event sequence (the neo4j-cdc-sync pipeline's
single-partition pitfall, made structural instead of accidental).

Replicas measure staleness as consumer lag in records; a bounded-
staleness read first drains the replica to within the caller's budget,
charging the catch-up work to the read that demanded the freshness.
"""

from __future__ import annotations

from repro.core.connectors.base import Connector
from repro.kafka import Broker, Consumer, Producer
from repro.snb.schema import UpdateEvent

#: the change-data-capture topic (one partition per shard)
CDC_TOPIC = "snb-cdc"


class ShardPrimary:
    """One shard's authoritative engine plus its change-data-capture tap."""

    def __init__(
        self,
        shard_id: int,
        engine: Connector,
        producer: Producer,
        *,
        topic: str = CDC_TOPIC,
    ) -> None:
        self.shard_id = shard_id
        self.engine = engine
        self.producer = producer
        self.topic = topic
        #: per-shard applied-event order (what each partition must mirror)
        self.applied: list[UpdateEvent] = []

    def apply(self, event: UpdateEvent) -> None:
        """Apply one event and emit it to this shard's CDC partition."""
        self.engine.apply_update(event)
        self.producer.send(
            self.topic,
            key=self.shard_id,
            value=event,
            timestamp_ms=event.creation_ms,
            partition=self.shard_id,
        )
        self.applied.append(event)


class ReadReplica:
    """A shard replica: bootstrapped from the snapshot, fed by CDC."""

    def __init__(
        self,
        shard_id: int,
        replica_id: int,
        engine: Connector,
        broker: Broker,
        *,
        topic: str = CDC_TOPIC,
    ) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.engine = engine
        self.consumer = Consumer(
            broker,
            group=f"replica-{shard_id}-{replica_id}",
            topic=topic,
            partitions=[shard_id],
        )
        self.events_applied = 0

    def staleness(self) -> int:
        """Committed-but-unapplied CDC records (the replica's lag)."""
        return self.consumer.lag()

    def catch_up(self, budget: int = 0) -> int:
        """Drain CDC until lag <= ``budget``; returns events applied.

        ``budget`` is the bounded-staleness knob: 0 demands a fully fresh
        replica, ``k`` tolerates up to ``k`` unapplied records.  The poll
        and apply work lands on whatever ledger is active — a read that
        demands freshness pays for it.
        """
        applied = 0
        while self.consumer.lag() > budget:
            for record in self.consumer.poll():
                self.engine.apply_update(record.value)
                applied += 1
            self.consumer.commit()
        self.events_applied += applied
        return applied
