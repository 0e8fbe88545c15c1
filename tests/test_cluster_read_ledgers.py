"""The cluster coordinator's read ledgers, pinned to the last bit.

Each pinned read goes through the coordinator's routing (one home shard,
or a scatter wave per BFS level) and prices its sub-calls on the
critical path.  A change to that routing, to the scatter accounting or
to the replica read path that moves a counter, the order counters first
appear in, or a priced wait shows here.
"""

import pytest

from repro.cluster import ClusterConnector
from repro.simclock import meter
from repro.snb import GeneratorConfig, generate

#: (backend, read preference) -> op -> ledger counters in first-charge
#: order, for one call each in the order listed, on a fresh 2-shard,
#: 1-replica cluster loaded at SF3 / 16,000, seed 13
PINNED = {
    ("postgres-sql", "primary"): {
        "point_lookup": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 487.7300000000001),
        ],
        "one_hop": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 515.34),
        ],
        "two_hop": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 1653.0),
            ("gather_item", 20.0),
        ],
        "shortest_path": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 1653.0),
            ("gather_item", 30.0),
        ],
        "person_profile": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 487.7300000000001),
        ],
    },
    ("postgres-sql", "replica"): {
        "point_lookup": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 487.7300000000001),
        ],
        "one_hop": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 515.34),
        ],
        "two_hop": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 1653.0),
            ("gather_item", 20.0),
        ],
        "shortest_path": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 1653.0),
            ("gather_item", 30.0),
        ],
        "person_profile": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 487.7300000000001),
        ],
    },
    ("neo4j-gremlin", "primary"): {
        "point_lookup": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 12126.850000000002),
        ],
        "one_hop": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 12156.260000000002),
        ],
        "two_hop": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 16162.74),
            ("gather_item", 20.0),
        ],
        "shortest_path": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 6010.92),
            ("gather_item", 30.0),
        ],
        "person_profile": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 13129.81),
        ],
    },
    ("neo4j-gremlin", "replica"): {
        "point_lookup": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 12126.850000000002),
        ],
        "one_hop": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 12156.260000000002),
        ],
        "two_hop": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 16162.74),
            ("gather_item", 20.0),
        ],
        "shortest_path": [
            ("shard_msg", 3.0),
            ("shard_rtt", 2.0),
            ("scatter_wait_us", 6010.92),
            ("gather_item", 30.0),
        ],
        "person_profile": [
            ("shard_msg", 1.0),
            ("shard_rtt", 1.0),
            ("scatter_wait_us", 13129.81),
        ],
    },
}


@pytest.fixture(scope="module")
def tiny():
    return generate(
        GeneratorConfig(scale_factor=3, scale_divisor=16000, seed=13)
    )


@pytest.mark.parametrize("backend, preference", sorted(PINNED))
def test_cluster_read_ledgers_are_pinned(tiny, backend, preference):
    cluster = ClusterConnector(
        backend, shards=2, replicas=1, read_preference=preference
    )
    cluster.load(tiny)
    start = tiny.knows[0].person1
    args = {
        "point_lookup": (start,),
        "one_hop": (start,),
        "two_hop": (start,),
        "shortest_path": (start, tiny.persons[-1].id),
        "person_profile": (start,),
    }
    ledgers = {}
    for op, op_args in args.items():
        with meter() as ledger:
            getattr(cluster, op)(*op_args)
        ledgers[op] = list(ledger.counters.items())
    assert ledgers == PINNED[(backend, preference)]
