"""Every SUT's ``load()`` ledger, pinned to the last bit.

A load runs each store's write path once per element: B+tree and hash
index inserts, the row codec and slotted pages, column appends, the LSM
memtable and its flushes, triple interning, the SQL INSERT statement
path and ANALYZE.  A change to any of them that moves a counter, the
order counters first appear in, the priced total or the modelled store
size shows here.
"""

import pytest

from repro.core import SUT_KEYS, make_connector
from repro.simclock import CostModel, meter
from repro.snb import GeneratorConfig, generate

#: system -> (ledger counters in first-charge order, ``float.hex`` of
#: ``cost_us(CostModel())``, ``size_bytes()``) after ``load()`` at
#: SF3 / 16,000, seed 13
PINNED = {
    "neo4j-cypher": (
        [
            ("record_write", 8568.0),
            ("index_insert", 690.0),
            ("graph_analyze", 1.0),
        ],
        "0x1.0ea0000000000p+13",
        180635,
    ),
    "neo4j-gremlin": (
        [
            ("step_eval", 5942.0),
            ("record_write", 8568.0),
            ("index_insert", 670.0),
        ],
        "0x1.181e666666667p+13",
        179141,
    ),
    "titan-c": (
        [
            ("step_eval", 5942.0),
            ("lock_rtt", 670.0),
            ("backend_rtt", 6612.0),
            ("lsm_memtable_op", 6612.0),
            ("wal_append", 6612.0),
            ("lsm_compaction_item", 6612.0),
        ],
        "0x1.366d319999999p+21",
        596443,
    ),
    "titan-b": (
        [
            ("step_eval", 5942.0),
            ("bdb_page", 17195.0),
            ("wal_append", 6612.0),
            ("index_probe", 6612.0),
            ("index_node", 34390.0),
            ("index_insert", 6612.0),
        ],
        "0x1.2949b33333334p+16",
        596443,
    ),
    "sqlg": (
        [
            ("step_eval", 5942.0),
            ("client_rtt", 3316.0),
            ("sql_exec", 3316.0),
            ("sql_parse", 3316.0),
            ("txn_begin", 3316.0),
            ("lock_acquire", 3316.0),
            ("buffer_hit", 3353.0),
            ("tuple_cpu", 3316.0),
            ("index_insert", 8568.0),
            ("wal_append", 3316.0),
            ("txn_commit", 3316.0),
            ("wal_fsync", 3316.0),
        ],
        "0x1.adf6b26666667p+20",
        440192,
    ),
    "postgres-sql": (
        [
            ("txn_begin", 1.0),
            ("buffer_hit", 2016.0),
            ("tuple_cpu", 3936.0),
            ("index_insert", 2848.0),
            ("wal_append", 1968.0),
            ("txn_commit", 1.0),
            ("wal_fsync", 1.0),
            ("sql_analyze", 1.0),
            ("value_cpu", 8012.0),
        ],
        "0x1.dac51eb851eb9p+13",
        242176,
    ),
    "virtuoso-sql": (
        [
            ("txn_begin", 1.0),
            ("column_append", 8012.0),
            ("index_insert", 2848.0),
            ("wal_append", 1968.0),
            ("txn_commit", 1.0),
            ("wal_fsync", 1.0),
            ("sql_analyze", 1.0),
            ("column_seek", 74.0),
            ("column_value", 8012.0),
        ],
        "0x1.bc25a3d70a3d7p+18",
        118372,
    ),
    "virtuoso-sparql": (
        [
            ("sparql_parse", 1.0),
            ("sparql_translate", 1.0),
            ("hash_probe", 25422.0),
            ("index_probe", 8475.0),
            ("index_node", 92061.0),
            ("index_insert", 25422.0),
            ("page_write", 8474.0),
            ("wal_append", 8474.0),
            ("wal_fsync", 1.0),
            ("sparql_analyze", 1.0),
            ("value_cpu", 8474.0),
        ],
        "0x1.3cb07ee147ae2p+20",
        653291,
    ),
}


@pytest.fixture(scope="module")
def tiny():
    return generate(
        GeneratorConfig(scale_factor=3, scale_divisor=16000, seed=13)
    )


def test_every_system_is_pinned():
    assert sorted(PINNED) == sorted(SUT_KEYS)


@pytest.mark.parametrize("system", sorted(PINNED))
def test_load_ledger_is_pinned(tiny, system):
    connector = make_connector(system)
    with meter() as ledger:
        connector.load(tiny)
    counters, cost_hex, size = PINNED[system]
    assert list(ledger.counters.items()) == counters
    assert ledger.cost_us(CostModel()).hex() == cost_hex
    assert connector.size_bytes() == size
