"""Consumer: offset-tracked polling over all partitions of a topic."""

from __future__ import annotations

from repro.kafka.broker import Broker, Record
from repro.simclock.ledger import charge


class Consumer:
    """One consumer in a named group (one consumer per group here).

    Polls partitions round-robin from the last *committed* offsets;
    :meth:`commit` advances them.  Two consumers in different groups see
    independent offset cursors over the same log.
    """

    def __init__(
        self,
        broker: Broker,
        group: str,
        topic: str,
        *,
        max_poll_records: int = 64,
    ) -> None:
        self.broker = broker
        self.group = group
        self.topic = topic
        self.max_poll_records = max_poll_records
        count = broker.partition_count(topic)
        self._partitions = range(count)
        self._committed = [0] * count
        self._position = [0] * count
        self.records_consumed = 0

    def poll(self, max_records: int | None = None) -> list[Record]:
        """Fetch up to ``max_records`` across partitions (one round trip).

        ``max_records`` defaults to the consumer's configured
        ``max_poll_records`` (the Kafka property of the same name).
        """
        if max_records is None:
            max_records = self.max_poll_records
        charge("client_rtt")
        out: list[Record] = []
        for partition in self._partitions:
            if len(out) >= max_records:
                break
            batch = self.broker.fetch(
                self.topic,
                partition,
                self._position[partition],
                max_records - len(out),
            )
            self._position[partition] += len(batch)
            out.extend(batch)
        self.records_consumed += len(out)
        return out

    def commit(self) -> None:
        """Mark everything polled so far as processed."""
        charge("client_rtt")
        self._committed = list(self._position)

    def seek_to_committed(self) -> None:
        """Rewind to the committed offsets (re-deliver uncommitted)."""
        self._position = list(self._committed)

    def lag(self) -> int:
        """Records available but not yet polled."""
        return sum(
            self.broker.end_offset(self.topic, p) - self._position[p]
            for p in self._partitions
        )
