"""The broker: named topics of append-only partition logs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.simclock.ledger import charge


@dataclass(frozen=True)
class Record:
    """One committed record."""

    topic: str
    partition: int
    offset: int
    key: Any
    value: Any
    timestamp_ms: int


class _PartitionLog:
    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[Record] = []

    @property
    def end_offset(self) -> int:
        return len(self.records)


class _Topic:
    def __init__(self, name: str, partitions: int) -> None:
        if partitions < 1:
            raise ValueError("a topic needs at least one partition")
        self.name = name
        self.partitions = [_PartitionLog() for _ in range(partitions)]


class Broker:
    """A single-node broker; durability is charged per appended record."""

    def __init__(self) -> None:
        self._topics: dict[str, _Topic] = {}

    def create_topic(self, name: str, partitions: int = 1) -> None:
        if name in self._topics:
            raise ValueError(f"topic {name!r} already exists")
        self._topics[name] = _Topic(name, partitions)

    def partition_count(self, topic: str) -> int:
        return len(self._topic(topic).partitions)

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise KeyError(f"no topic {name!r}") from None

    # -- broker-side operations (called by clients) ----------------------------

    def append(
        self,
        topic: str,
        partition: int,
        key: Any,
        value: Any,
        timestamp_ms: int,
    ) -> int:
        """Append one record; returns its offset."""
        log = self._topic(topic).partitions[partition]
        charge("wal_append")
        record = Record(
            topic, partition, log.end_offset, key, value, timestamp_ms
        )
        log.records.append(record)
        return record.offset

    def fetch(
        self, topic: str, partition: int, offset: int, max_records: int
    ) -> list[Record]:
        log = self._topic(topic).partitions[partition]
        batch = log.records[offset : offset + max_records]
        charge("value_cpu", len(batch))
        return batch

    def end_offset(self, topic: str, partition: int) -> int:
        return self._topic(topic).partitions[partition].end_offset

    def total_records(self, topic: str) -> int:
        return sum(p.end_offset for p in self._topic(topic).partitions)
