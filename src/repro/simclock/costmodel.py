"""Cost model: converts named work counters into simulated microseconds.

The weights below are the single calibration point of the whole
reproduction.  They are rough per-unit costs of primitive operations on the
paper's testbed-class hardware (2.6 GHz cores, data resident in memory,
10 GbE between driver and SUT).  Engines never sleep and never consult the
wall clock; they count work, and the cost model prices it.

Weight groups:

* storage primitives (pages, records, index probes, column segments, LSM)
* query-language processing (parse/plan/compile, per-row runtime overhead)
* client/server communication (native wire protocol vs. Gremlin Server)
* durability and concurrency (WAL, fsync, lock round trips)

Calibration notes live in EXPERIMENTS.md; the *shape* of every result
(orderings, crossovers, orders of magnitude) is produced by counted work,
not by per-system fudge factors.
"""

from __future__ import annotations

from collections.abc import Mapping

#: Default per-unit costs in microseconds.
DEFAULT_WEIGHTS: dict[str, float] = {
    # --- storage primitives -------------------------------------------------
    "page_read": 120.0,       # read a page from disk (cold)
    "page_write": 140.0,      # write a page back to disk
    "buffer_hit": 0.35,       # find a page in the buffer pool
    "cache_hit": 0.3,         # serve a derived result from an engine cache
    "record_read": 0.12,      # fetch a fixed-size store record by offset
    "record_write": 0.25,     # update a fixed-size store record
    "index_probe": 1.1,       # full root-to-leaf descent, nodes cached
    "index_insert": 2.2,      # insert into a B+tree / hash index
    "index_node": 0.25,       # touch one index node during a descent/scan
    "tuple_cpu": 0.25,        # push one tuple through one operator (row
                              # engines: tuple-at-a-time interpretation)
    "tuple_vec": 0.05,        # same, inside a vectorized batch (Virtuoso)
    "vector_setup": 18.0,     # dispatch overhead per vectorized batch
    "value_cpu": 0.02,        # touch one cell / property value
    "hash_probe": 0.35,       # probe an in-memory hash table
    "column_seek": 2.2,       # position into a column segment (per column)
    "column_value": 0.08,     # read the next value within a positioned
                              # column (vectorized sequential access)
    "column_append": 55.0,    # append one value to a column: dictionary
                              # coding + positional index maintenance (the
                              # per-column insert overhead that makes
                              # columnar stores "suffer under transactional
                              # workloads with frequent updates")
    "column_update": 45.0,    # out-of-place update bookkeeping per column
    "lsm_memtable_op": 0.7,   # memtable insert / lookup
    "lsm_sstable_probe": 22.0,  # binary search + block read in one sstable
    "lsm_bloom_check": 0.25,  # bloom filter membership test
    "lsm_compaction_item": 0.6,  # merge one entry during compaction
    "bdb_page": 2.0,          # touch one BerkeleyDB btree page (embedded)
    # --- query language processing ------------------------------------------
    "sql_parse": 40.0,
    "sql_plan": 45.0,
    "sql_exec": 80.0,         # per-statement executor setup (snapshot,
                              # portal, plan instantiation)
    "sql_analyze": 5000.0,    # ANALYZE: full-scan statistics refresh
    "graph_analyze": 5000.0,  # property-graph statistics refresh
    "sparql_analyze": 5000.0,  # triple-store statistics refresh
    "sql_row": 0.4,           # per result row through the SQL executor top
    "cypher_parse": 220.0,
    "cypher_plan": 260.0,
    "cypher_exec": 2000.0,    # per-statement runtime setup (txn begin,
                              # interpreted pipeline construction; the
                              # Neo4j-2.3-era fixed overhead visible in
                              # the paper's 9 ms point lookups)
    "cypher_row": 7.0,        # interpreted Cypher runtime per intermediate row
    "sparql_parse": 90.0,
    "sparql_translate": 450.0,  # SPARQL -> SQL translation per query
    "transitive_row": 15.0,   # one frontier row through Virtuoso's
                              # transitive derived-table pipeline
    "gremlin_compile": 11000.0,  # script evaluation / traversal compilation
    "step_eval": 0.9,         # advance one traverser through one step
    "closure_compile": 150.0,  # specialize one cached plan into a chain of
                               # vectorized kernel closures (constants,
                               # offsets and accessors pre-bound)
    "compiled_exec": 40.0,    # per-statement setup of a compiled query
                              # (txn begin + closure dispatch; replaces the
                              # interpreted pipeline construction)
    # --- client / server ------------------------------------------------------
    "client_rtt": 95.0,       # native wire protocol round trip (10 GbE)
    "server_rtt": 900.0,      # Gremlin Server websocket round trip + framing
    "backend_rtt": 260.0,     # TitanDB -> Cassandra thrift round trip
    "serialize_item": 6.0,    # GraphSON-serialize one element
    "result_row": 0.4,        # ship one row on a native protocol
    # --- cluster scatter / gather ---------------------------------------------
    # Nothing charges these four.  They stay because the trajectory's
    # layer map checks at start-up that every counter it maps has a
    # weight here.
    "shard_rtt": 95.0,        # driver -> shard round trip (same fabric as
                              # client_rtt; one per scatter *wave*, the
                              # fan-out requests overlap on the wire)
    "shard_msg": 5.0,         # marshal one sub-request/sub-reply of a
                              # scatter wave (per shard contacted)
    "scatter_wait_us": 1.0,   # one simulated microsecond waiting on the
                              # slowest shard of a wave (critical path;
                              # units are the max of the per-shard costs)
    "gather_item": 0.02,      # merge one row through the k-way gather
    # --- durability / concurrency --------------------------------------------
    "wal_append": 0.9,        # append one WAL record (buffered)
    "wal_fsync": 300.0,       # force the WAL (group-commit amortized)
    "lock_acquire": 1.3,      # local lock manager acquisition
    "lock_rtt": 1200.0,       # Titan distributed-lock round trip + wait
    "txn_begin": 2.0,
    "txn_commit": 4.0,
    # --- MVCC snapshot reads ---------------------------------------------------
    "ts_alloc": 0.1,          # allocate a read timestamp from the oracle
    "version_check": 0.01,    # test one record's visibility against a
                              # snapshot (stamp/tombstone comparison)
    "version_walk": 0.05,     # step once down a version chain to an older
                              # committed value
}


class CostModel:
    """Prices a counter mapping into simulated microseconds.

    Parameters
    ----------
    overrides:
        Optional per-weight overrides, merged over :data:`DEFAULT_WEIGHTS`.
    strict:
        When true (default), charging a counter the model does not know is
        an error — this catches typos in counter names early.
    """

    def __init__(
        self,
        overrides: Mapping[str, float] | None = None,
        *,
        strict: bool = True,
    ) -> None:
        self.weights: dict[str, float] = dict(DEFAULT_WEIGHTS)
        if overrides:
            unknown = set(overrides) - set(self.weights)
            if unknown and strict:
                raise KeyError(f"unknown cost weights: {sorted(unknown)}")
            self.weights.update(overrides)
        self.strict = strict

    def weight(self, name: str) -> float:
        """Per-unit cost of counter ``name`` in microseconds."""
        try:
            return self.weights[name]
        except KeyError:
            if self.strict:
                raise KeyError(f"unknown cost counter: {name!r}") from None
            return 0.0

    def cost_us(self, counters: Mapping[str, float]) -> float:
        """Total simulated microseconds for a counter mapping."""
        total = 0.0
        for name, units in counters.items():
            total += self.weight(name) * units
        return total

    def breakdown_us(self, counters: Mapping[str, float]) -> dict[str, float]:
        """Per-counter contribution in microseconds, largest first."""
        parts = {
            name: self.weight(name) * units
            for name, units in counters.items()
            if units
        }
        return dict(sorted(parts.items(), key=lambda kv: -kv[1]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CostModel({len(self.weights)} weights, strict={self.strict})"
