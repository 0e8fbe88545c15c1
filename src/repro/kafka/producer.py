"""Producer: batched sends."""

from __future__ import annotations

from typing import Any

from repro.kafka.broker import Broker
from repro.simclock.ledger import charge

#: records buffered before a send flushes them in one round trip
BATCH_SIZE = 64


class Producer:
    """Buffers records and pays one round trip per flushed batch."""

    def __init__(self, broker: Broker) -> None:
        self.broker = broker
        self._buffer: list[tuple[str, Any, int]] = []

    def send(self, topic: str, value: Any, timestamp_ms: int = 0) -> None:
        """Queue one record; flushes automatically at :data:`BATCH_SIZE`."""
        self._buffer.append((topic, value, timestamp_ms))
        if len(self._buffer) >= BATCH_SIZE:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        charge("client_rtt")
        for topic, value, ts in self._buffer:
            self.broker.append(topic, value, ts)
        self._buffer.clear()
