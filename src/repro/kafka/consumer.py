"""Consumer: offset-tracked polling of one topic for one group."""

from __future__ import annotations

from repro.kafka.broker import Broker, Record
from repro.simclock.ledger import charge


class Consumer:
    """One consumer in a named group (one consumer per group here).

    It starts at the group's committed offset and polls forward from
    there; :meth:`commit` stores its position as the group's offset.  A
    new consumer for the group therefore re-delivers whatever was polled
    but not committed, and consumers in different groups see independent
    offsets over the same log.
    """

    def __init__(self, broker: Broker, group: str, topic: str) -> None:
        self.broker = broker
        self.group = group
        self.topic = topic
        self._position = broker.committed(group, topic)

    def poll(self, max_records: int) -> list[Record]:
        """Fetch up to ``max_records`` in offset order (one round trip)."""
        charge("client_rtt")
        batch = self.broker.fetch(self.topic, self._position, max_records)
        self._position += len(batch)
        return batch

    def commit(self) -> None:
        """Mark everything polled so far as processed."""
        charge("client_rtt")
        self.broker.commit(self.group, self.topic, self._position)

    def lag(self) -> int:
        """Records available but not yet polled."""
        return self.broker.end_offset(self.topic) - self._position
