"""Kafka analogue: the update-stream transport of the benchmark architecture.

The paper's contribution #1 routes LDBC update operations through a Kafka
queue so a dedicated writer ingests them in real time while readers hit
the SUT concurrently.  This package provides the broker (one ordered
offset log per topic, plus each consumer group's committed offset), the
producer, and the consumer that the workload driver uses.
"""

from repro.kafka.broker import Broker, Record
from repro.kafka.producer import Producer
from repro.kafka.consumer import Consumer

__all__ = ["Broker", "Record", "Producer", "Consumer"]
