"""The broker: one append-only offset log per named topic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.simclock.ledger import charge


@dataclass(frozen=True)
class Record:
    """One committed record."""

    topic: str
    offset: int
    value: Any
    timestamp_ms: int


class Broker:
    """A single-node broker; durability is charged per appended record.

    It also keeps each consumer group's committed offset per topic, so a
    consumer built later for the same group resumes where it left off.
    """

    def __init__(self) -> None:
        self._logs: dict[str, list[Record]] = {}
        self._committed: dict[tuple[str, str], int] = {}

    def create_topic(self, name: str) -> None:
        if name in self._logs:
            raise ValueError(f"topic {name!r} already exists")
        self._logs[name] = []

    def _log(self, topic: str) -> list[Record]:
        try:
            return self._logs[topic]
        except KeyError:
            raise KeyError(f"no topic {topic!r}") from None

    # -- broker-side operations (called by clients) ----------------------------

    def append(self, topic: str, value: Any, timestamp_ms: int) -> int:
        """Append one record; returns its offset."""
        log = self._log(topic)
        charge("wal_append")
        record = Record(topic, len(log), value, timestamp_ms)
        log.append(record)
        return record.offset

    def fetch(self, topic: str, offset: int, max_records: int) -> list[Record]:
        batch = self._log(topic)[offset : offset + max_records]
        charge("value_cpu", len(batch))
        return batch

    def end_offset(self, topic: str) -> int:
        return len(self._log(topic))

    def commit(self, group: str, topic: str, offset: int) -> None:
        self._committed[group, topic] = offset

    def committed(self, group: str, topic: str) -> int:
        """The group's committed offset; 0 before its first commit."""
        return self._committed.get((group, topic), 0)
