"""``LAYER_OF``: which cost-model section every ledger counter belongs to.

``repro/simclock/costmodel.py`` groups ``DEFAULT_WEIGHTS`` under six
section comments; this map makes that grouping data, so a simulated
latency can be split by layer.  It is checked against the weights when
the benchmark starts: a counter the map does not place, or a mapped
name the cost model does not price, fails the run — the same contract
``CostModel(strict=True)`` already enforces for unknown weights.

Nothing here depends on the benchmark; the module can move into
``repro.simclock`` unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.simclock.costmodel import DEFAULT_WEIGHTS, CostModel

#: the section comments of ``costmodel.py``, in file order
LAYERS = (
    "storage",
    "querylang",
    "clientserver",
    "cluster",
    "durability",
    "mvcc",
)

LAYER_OF: dict[str, str] = {
    # --- storage primitives
    "page_read": "storage",
    "page_write": "storage",
    "buffer_hit": "storage",
    "cache_hit": "storage",
    "record_read": "storage",
    "record_write": "storage",
    "index_probe": "storage",
    "index_insert": "storage",
    "index_node": "storage",
    "tuple_cpu": "storage",
    "tuple_vec": "storage",
    "vector_setup": "storage",
    "value_cpu": "storage",
    "hash_probe": "storage",
    "column_seek": "storage",
    "column_value": "storage",
    "column_append": "storage",
    "column_update": "storage",
    "lsm_memtable_op": "storage",
    "lsm_sstable_probe": "storage",
    "lsm_bloom_check": "storage",
    "lsm_compaction_item": "storage",
    "bdb_page": "storage",
    # --- query language processing
    "sql_parse": "querylang",
    "sql_plan": "querylang",
    "sql_exec": "querylang",
    "sql_analyze": "querylang",
    "graph_analyze": "querylang",
    "sparql_analyze": "querylang",
    "sql_row": "querylang",
    "cypher_parse": "querylang",
    "cypher_plan": "querylang",
    "cypher_exec": "querylang",
    "cypher_row": "querylang",
    "sparql_parse": "querylang",
    "sparql_translate": "querylang",
    "transitive_row": "querylang",
    "gremlin_compile": "querylang",
    "step_eval": "querylang",
    "closure_compile": "querylang",
    "compiled_exec": "querylang",
    # --- client / server
    "client_rtt": "clientserver",
    "server_rtt": "clientserver",
    "backend_rtt": "clientserver",
    "serialize_item": "clientserver",
    "result_row": "clientserver",
    # --- cluster scatter / gather
    "shard_rtt": "cluster",
    "shard_msg": "cluster",
    "scatter_wait_us": "cluster",
    "gather_item": "cluster",
    # --- durability / concurrency
    "wal_append": "durability",
    "wal_fsync": "durability",
    "lock_acquire": "durability",
    "lock_rtt": "durability",
    "txn_begin": "durability",
    "txn_commit": "durability",
    # --- MVCC snapshot reads
    "ts_alloc": "mvcc",
    "version_check": "mvcc",
    "version_walk": "mvcc",
}


class LayerMapError(KeyError):
    """``LAYER_OF`` and the cost model's weights disagree."""


def check_layer_map(
    weights: Mapping[str, float] = DEFAULT_WEIGHTS,
    layer_of: Mapping[str, str] = LAYER_OF,
) -> None:
    """Fail unless every priced counter has exactly one known layer."""
    unmapped = sorted(set(weights) - set(layer_of))
    unknown = sorted(set(layer_of) - set(weights))
    bad_layer = sorted(
        name for name, layer in layer_of.items() if layer not in LAYERS
    )
    problems = []
    if unmapped:
        problems.append(f"counters without a layer: {unmapped}")
    if unknown:
        problems.append(f"mapped counters the cost model lacks: {unknown}")
    if bad_layer:
        problems.append(f"counters mapped to an unknown layer: {bad_layer}")
    if problems:
        raise LayerMapError("; ".join(problems))


def split_us(
    counters: Mapping[str, float], model: CostModel
) -> dict[str, float]:
    """Simulated microseconds of ``counters`` per layer (all six keys)."""
    split = dict.fromkeys(LAYERS, 0.0)
    for name, cost_us in model.breakdown_us(counters).items():
        split[LAYER_OF[name]] += cost_us
    return split
