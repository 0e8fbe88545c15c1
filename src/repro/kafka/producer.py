"""Producer: hash-partitioned, batched sends."""

from __future__ import annotations

import zlib
from typing import Any

from repro.kafka.broker import Broker
from repro.simclock.ledger import charge


class Producer:
    """Buffers records and pays one round trip per flushed batch."""

    def __init__(self, broker: Broker, batch_size: int = 16) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.broker = broker
        self.batch_size = batch_size
        self._buffer: list[tuple[str, int, Any, Any, int]] = []
        self.records_sent = 0

    def send(
        self,
        topic: str,
        key: Any,
        value: Any,
        timestamp_ms: int = 0,
    ) -> None:
        """Queue one record; flushes automatically at the batch size.

        The partition is derived from ``key`` by hash.
        """
        partition = self._partition_for(topic, key)
        self._buffer.append((topic, partition, key, value, timestamp_ms))
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def _partition_for(self, topic: str, key: Any) -> int:
        count = self.broker.partition_count(topic)
        if key is None:
            return self.records_sent % count
        return zlib.crc32(str(key).encode()) % count

    def flush(self) -> None:
        if not self._buffer:
            return
        charge("client_rtt")
        for topic, partition, key, value, ts in self._buffer:
            self.broker.append(topic, partition, key, value, ts)
            self.records_sent += 1
        self._buffer.clear()
