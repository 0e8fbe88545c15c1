"""Tests for the Kafka analogue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kafka import Broker, Consumer, Producer
from repro.kafka.producer import BATCH_SIZE


@pytest.fixture()
def broker():
    b = Broker()
    b.create_topic("updates")
    return b


def produce(broker, count):
    producer = Producer(broker)
    for i in range(count):
        producer.send("updates", f"v{i}", timestamp_ms=i)
    producer.flush()


class TestBroker:
    def test_create_topic_once(self, broker):
        with pytest.raises(ValueError):
            broker.create_topic("updates")

    def test_append_assigns_offsets(self, broker):
        assert broker.append("updates", "v0", 1) == 0
        assert broker.append("updates", "v1", 2) == 1
        assert broker.end_offset("updates") == 2

    def test_fetch_range(self, broker):
        for i in range(10):
            broker.append("updates", f"v{i}", i)
        batch = broker.fetch("updates", 3, 4)
        assert [r.value for r in batch] == ["v3", "v4", "v5", "v6"]
        assert [r.offset for r in batch] == [3, 4, 5, 6]

    def test_unknown_topic(self, broker):
        with pytest.raises(KeyError):
            broker.append("nope", "v", 0)


class TestProducer:
    def test_batching_defers_until_flush(self, broker):
        producer = Producer(broker)
        for i in range(5):
            producer.send("updates", f"v{i}")
        assert broker.end_offset("updates") == 0
        producer.flush()
        assert broker.end_offset("updates") == 5

    def test_auto_flush_at_batch_size(self, broker):
        producer = Producer(broker)
        for i in range(BATCH_SIZE):
            producer.send("updates", f"v{i}")
        assert broker.end_offset("updates") == BATCH_SIZE


class TestConsumer:
    def test_poll_sees_all_records_in_partition_order(self, broker):
        produce(broker, 20)
        consumer = Consumer(broker, "g1", "updates")
        seen = []
        while True:
            batch = consumer.poll(7)
            if not batch:
                break
            seen.extend(batch)
        assert [r.value for r in seen] == [f"v{i}" for i in range(20)]
        assert [r.offset for r in seen] == list(range(20))
        assert [r.timestamp_ms for r in seen] == list(range(20))

    def test_groups_are_independent(self, broker):
        produce(broker, 3)
        a = Consumer(broker, "a", "updates")
        assert len(a.poll(2)) == 2
        a.commit()
        # the same group resumes at its committed offset ...
        resumed = Consumer(broker, "a", "updates")
        assert [r.offset for r in resumed.poll(5)] == [2]
        # ... while a new group starts at the beginning of the log
        b = Consumer(broker, "b", "updates")
        assert [r.offset for r in b.poll(5)] == [0, 1, 2]

    def test_new_consumer_resumes_at_committed_offset(self, broker):
        produce(broker, 4)
        consumer = Consumer(broker, "g", "updates")
        consumer.poll(2)
        consumer.commit()
        consumer.poll(2)  # polled, never committed: the consumer "dies"
        restarted = Consumer(broker, "g", "updates")
        redelivered = restarted.poll(2)
        assert [r.offset for r in redelivered] == [2, 3]
        assert restarted.poll(2) == []

    def test_lag(self, broker):
        produce(broker, 6)
        consumer = Consumer(broker, "g", "updates")
        assert consumer.lag() == 6
        consumer.poll(4)
        assert consumer.lag() == 2

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 100), max_size=200),
        st.integers(1, 9),
    )
    def test_everything_produced_is_consumed_once(self, values, poll_size):
        broker = Broker()
        broker.create_topic("t")
        producer = Producer(broker)
        for value in values:
            producer.send("t", value)
        producer.flush()
        consumer = Consumer(broker, "g", "t")
        seen = []
        while True:
            batch = consumer.poll(poll_size)
            if not batch:
                break
            seen.extend(r.value for r in batch)
        assert seen == values
