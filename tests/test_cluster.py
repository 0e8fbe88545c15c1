"""Cluster layer tests: partitioning, parity, CDC ordering, staleness.

The load-bearing properties:

* **ghost closure** — every per-shard sub-dataset is reference-closed,
  so stock engines (including the Cypher/Gremlin loaders that
  dereference endpoints eagerly) load it without danglers;
* **parity** — the scatter/gather coordinator answers the whole read
  catalog identically to a single-node engine, before and after the
  update stream, on relational and graph backends alike;
* **CDC ordering** — interleaved updates against different shards never
  reorder *within* a shard's topic-partition (the neo4j-cdc-sync
  single-partition pitfall, regression-tested);
* **bounded staleness** — replica lag is measured, bounded by the
  configured budget at read time, and zero after a full sync;
* **deadlock freedom** — cross-shard writes take their shard locks in
  one globally sorted order.
"""

import pytest

from repro.cluster import (
    CDC_TOPIC,
    ClusterConnector,
    partition_dataset,
    shard_of,
)
from repro.core import make_connector
from repro.core.benchmark import WorkloadParams
from repro.kafka import Broker, Consumer, Producer
from repro.simclock.costmodel import CostModel
from repro.simclock.ledger import charge, isolated, meter
from repro.snb import GeneratorConfig, generate
from repro.snb.schema import Knows

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=13)
SHARDS = 3

READ_CATALOG = [
    ("point_lookup", "person"),
    ("one_hop", "person"),
    ("two_hop", "person"),
    ("person_profile", "person"),
    ("person_recent_posts", "person"),
    ("person_friends", "person"),
    ("complex_two_hop", "person"),
    ("friends_recent_posts", "person"),
    ("message_content", "message"),
    ("message_creator", "message"),
    ("message_forum", "message"),
    ("message_replies", "message"),
]


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


@pytest.fixture(scope="module")
def params(dataset):
    return WorkloadParams.curate(dataset, count=6, seed=3)


# -- partitioning ------------------------------------------------------------


class TestPartitioning:
    def test_every_person_lives_on_its_hash_shard(self, dataset):
        part = partition_dataset(dataset, SHARDS)
        for person in dataset.persons:
            home = shard_of(person.id, SHARDS)
            assert person.id in part.persons_at[home]
            assert any(
                p.id == person.id for p in part.shards[home].persons
            )

    def test_knows_edges_on_both_endpoint_homes(self, dataset):
        part = partition_dataset(dataset, SHARDS)
        for knows in dataset.knows:
            for s in {
                shard_of(knows.person1, SHARDS),
                shard_of(knows.person2, SHARDS),
            }:
                shard = part.shards[s]
                assert any(
                    k.person1 == knows.person1
                    and k.person2 == knows.person2
                    for k in shard.knows
                )

    def test_shards_are_reference_closed(self, dataset):
        """No shard contains an entity whose references are missing."""
        part = partition_dataset(dataset, SHARDS)
        for shard in part.shards:
            persons = {p.id for p in shard.persons}
            forums = {f.id for f in shard.forums}
            messages = {p.id for p in shard.posts} | {
                c.id for c in shard.comments
            }
            for k in shard.knows:
                assert {k.person1, k.person2} <= persons
            for f in shard.forums:
                assert f.moderator in persons
            for m in shard.memberships:
                assert m.person in persons and m.forum in forums
            for p in shard.posts:
                assert p.creator in persons and p.forum in forums
            for c in shard.comments:
                assert c.creator in persons
                assert c.reply_of in messages
                assert c.root_post in messages
            for like in shard.likes:
                assert like.person in persons
                assert like.message in messages

    def test_comment_mirrored_at_parent_home(self, dataset):
        part = partition_dataset(dataset, SHARDS)
        for comment in dataset.comments:
            parent_home = part.directory.home[comment.reply_of]
            assert comment.id in part.messages_at[parent_home]


# -- scatter/gather parity ---------------------------------------------------


def _catalog_answers(connector, params):
    answers = {}
    for op, kind in READ_CATALOG:
        ids = (
            params.person_ids if kind == "person" else params.message_ids
        )
        for i in ids:
            answers[(op, i)] = getattr(connector, op)(i)
    for pair in params.path_pairs:
        answers[("shortest_path", pair)] = connector.shortest_path(*pair)
    return answers


@pytest.mark.parametrize("backend", ["postgres-sql", "neo4j-cypher"])
def test_cluster_matches_single_node(backend, dataset, params):
    single = make_connector(backend)
    single.load(dataset)
    cluster = ClusterConnector(backend, shards=SHARDS)
    cluster.load(dataset)
    assert _catalog_answers(cluster, params) == _catalog_answers(
        single, params
    )


def test_cluster_matches_single_node_after_updates(dataset, params):
    single = make_connector("postgres-sql")
    single.load(dataset)
    cluster = ClusterConnector("postgres-sql", shards=SHARDS, replicas=1)
    cluster.load(dataset)
    for event in dataset.updates:
        single.apply_update(event)
        cluster.apply_update(event)
    assert _catalog_answers(cluster, params) == _catalog_answers(
        single, params
    )
    # replica-served reads agree once replicas are fully fresh
    cluster.set_read_preference("replica", 0)
    assert _catalog_answers(cluster, params) == _catalog_answers(
        single, params
    )


def test_batched_writes_match_single_applies(dataset, params):
    one_by_one = ClusterConnector("postgres-sql", shards=SHARDS)
    one_by_one.load(dataset)
    batched = ClusterConnector("postgres-sql", shards=SHARDS)
    batched.load(dataset)
    events = dataset.updates[:200]
    for event in events:
        one_by_one.apply_update(event)
    batched.apply_update_batch(events)
    assert _catalog_answers(batched, params) == _catalog_answers(
        one_by_one, params
    )


# -- CDC ordering (the neo4j-cdc-sync single-partition pitfall) ---------------


def test_interleaved_shard_updates_never_reorder_within_partition(dataset):
    """Per-shard CDC order must equal per-shard apply order, exactly.

    The SNIPPETS.md neo4j-cdc-sync pipeline preserved order only
    because it used a single partition; with multiple partitions,
    correctness requires each shard's changes to be pinned to the
    shard's own partition.  Interleave the update stream across shards
    and assert each partition replays its shard's apply sequence with
    no events reordered, dropped, or leaked to another partition.
    """
    cluster = ClusterConnector("postgres-sql", shards=SHARDS)
    cluster.load(dataset)
    for event in dataset.updates[:400]:
        cluster.apply_update(event)
    broker = cluster._broker
    for s in range(SHARDS):
        records = broker.fetch(CDC_TOPIC, s, 0, 1_000_000)
        assert [r.value for r in records] == cluster.primaries[s].applied
        assert all(r.key == s for r in records)


def test_replicas_replay_identical_per_shard_streams(dataset, params):
    cluster = ClusterConnector("postgres-sql", shards=SHARDS, replicas=2)
    cluster.load(dataset)
    for event in dataset.updates[:300]:
        cluster.apply_update(event)
    cluster.sync_replicas(0)
    primary_answers = _catalog_answers(cluster, params)
    cluster.set_read_preference("replica", 0)
    assert _catalog_answers(cluster, params) == primary_answers


# -- bounded staleness --------------------------------------------------------


def test_staleness_measured_and_bounded_by_budget(dataset):
    budget = 5
    cluster = ClusterConnector(
        "postgres-sql",
        shards=SHARDS,
        replicas=1,
        read_preference="replica",
        staleness_budget=budget,
    )
    cluster.load(dataset)
    pid = dataset.persons[0].id
    for event in dataset.updates[:150]:
        cluster.apply_update(event)
    assert cluster.max_staleness() > budget  # lag actually accumulated
    cluster.one_hop(pid)  # a replica read drains its pod to the budget
    served = shard_of(pid, SHARDS)
    assert cluster.replica_staleness()[(served, 0)] <= budget
    cluster.sync_replicas(0)
    assert cluster.max_staleness() == 0


def test_consumer_partition_assignment_is_enforced():
    broker = Broker()
    broker.create_topic("t", partitions=3)
    producer = Producer(broker, batch_size=1)
    for i in range(9):
        producer.send("t", key=i, value=i, partition=i % 3)
    consumer = Consumer(broker, "g", "t", partitions=[1])
    got = consumer.poll(100)
    assert [r.value for r in got] == [1, 4, 7]
    assert all(r.partition == 1 for r in got)
    assert consumer.lag() == 0  # other partitions don't count
    with pytest.raises(ValueError):
        Consumer(broker, "g2", "t", partitions=[3])


# -- locking ------------------------------------------------------------------


def test_cross_shard_writes_lock_shards_in_sorted_order(dataset):
    cluster = ClusterConnector("postgres-sql", shards=SHARDS)
    cluster.load(dataset)
    order: list[tuple] = []
    inner = cluster.locks.acquire

    def spy(txn_id, resource, mode):
        order.append(resource)
        return inner(txn_id, resource, mode)

    cluster.locks.acquire = spy
    persons = dataset.persons
    by_shard = {shard_of(p.id, SHARDS): p.id for p in persons}
    assert len(by_shard) == SHARDS, "dataset too small to span shards"
    shards = sorted(by_shard)
    # a friendship spanning the two *highest* shards, then one spanning
    # all the way down: each acquisition run must still be ascending
    for a, b in [(shards[2], shards[1]), (shards[2], shards[0])]:
        order.clear()
        cluster.add_friendship(
            Knows(by_shard[a], by_shard[b], creation_date=1)
        )
        shard_locks = [r for r in order if r[0] == "shard"]
        assert shard_locks == sorted(shard_locks)
        assert {s for _, s in shard_locks} == {a, b}


# -- shared gremlin closure cache (pods of one shard) -------------------------


def test_replica_pods_share_gremlin_closure_cache(dataset):
    cluster = ClusterConnector("neo4j-gremlin", shards=2, replicas=1)
    cluster.load(dataset)
    primary = cluster.primaries[0].engine
    replica = cluster.replicas[0][0].engine
    assert replica.server._closure_cache is primary.server._closure_cache
    # warm the primary, then serve the same query shape from the
    # replica: the shared cache means no recompilation on the replica
    pid = next(
        p.id for p in dataset.persons if shard_of(p.id, 2) == 0
    )
    cluster.one_hop(pid)
    cache = primary.server._closure_cache
    hits, misses = cache.stats().hits, cache.stats().misses
    cluster.set_read_preference("replica", 0)
    assert cluster.one_hop(pid) == cluster.primaries[0].engine.one_hop(pid)
    assert cache.stats().misses == misses  # replica never recompiled
    assert cache.stats().hits > hits


# -- engine modes reach every pod ------------------------------------------------


def _pod_engines(cluster):
    yield from (primary.engine for primary in cluster.primaries)
    yield from (r.engine for pods in cluster.replicas for r in pods)


def _counters_of_one_read(engine, dataset):
    with meter() as ledger:
        engine.one_hop(dataset.persons[0].id)
    return ledger.counters


def test_modes_and_caching_set_before_load_reach_every_pod(dataset):
    # regression: the pods do not exist before load(), and the parent
    # commit's fan-out setters silently configured none of them
    cluster = ClusterConnector("neo4j-gremlin", shards=2, replicas=1)
    cluster.set_execution_mode("interpreted")
    cluster.set_isolation_level("read-committed")
    cluster.load(dataset)
    engines = list(_pod_engines(cluster))
    assert len(engines) == 4
    for engine in engines:
        counters = _counters_of_one_read(engine, dataset)
        assert "step_eval" in counters  # the read ran interpreted,
        assert "compiled_exec" not in counters
        assert "ts_alloc" not in counters  # and without a snapshot


def test_mode_flipped_after_load_is_observed_by_a_replica(dataset):
    cluster = ClusterConnector("neo4j-gremlin", shards=2, replicas=1)
    cluster.load(dataset)
    replica = cluster.replicas[0][0].engine
    assert "compiled_exec" in _counters_of_one_read(replica, dataset)
    cluster.set_execution_mode("interpreted")
    assert "compiled_exec" not in _counters_of_one_read(replica, dataset)
    cluster.set_execution_mode("compiled")
    assert "compiled_exec" in _counters_of_one_read(replica, dataset)


def test_isolation_level_after_load_reaches_sqlg_pods_backing_db(dataset):
    # sqlg's backing Database keeps private options (trajectory
    # finding 5), so the cluster must call each pod's own setter
    cluster = ClusterConnector("sqlg", shards=2, replicas=1)
    cluster.load(dataset)
    cluster.set_isolation_level("read-committed")
    engines = list(_pod_engines(cluster))
    assert len(engines) == 4
    for engine in engines:
        assert engine.provider.db.options.isolation_level == "read-committed"
        assert "ts_alloc" not in _counters_of_one_read(engine, dataset)
    with pytest.raises(ValueError):
        cluster.set_isolation_level("chaos")
    for engine in engines:
        assert engine.provider.db.options.isolation_level == "read-committed"


# -- cost accounting -----------------------------------------------------------


def test_isolated_ledger_suspends_ambient():
    with meter() as ambient:
        charge("cache_hit")
        with isolated() as inner:
            charge("cache_hit", 5)
        assert inner.counters == {"cache_hit": 5}
    assert ambient.counters == {"cache_hit": 1}


def test_scatter_charges_critical_path_not_sum(dataset):
    cluster = ClusterConnector("postgres-sql", shards=SHARDS)
    cluster.load(dataset)
    model = CostModel()
    pid = dataset.persons[0].id
    with meter() as ledger:
        cluster.two_hop(pid)
    counters = ledger.counters
    assert counters["shard_rtt"] >= 1
    assert counters["scatter_wait_us"] > 0
    # the ambient wait is the max of the per-pod busy times, so it can
    # never exceed the total work the pods did
    assert counters["scatter_wait_us"] <= sum(
        cluster.scatter.busy_us.values()
    )
    # engine-level charges stayed on the pods' isolated ledgers: the
    # ambient ledger sees only the cluster's own counters
    assert set(counters) <= {
        "shard_msg",
        "shard_rtt",
        "scatter_wait_us",
        "gather_item",
    }
    assert ledger.cost_us(model) > 0
