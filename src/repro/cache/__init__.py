"""Shared caching subsystem for the four query dialects and the store.

Every engine in this repo keeps some *derived state* — state that is a
pure function of the base data plus the schema and can therefore go
stale.  This package centralizes both the containers and the protocol
for keeping that state honest.

Invalidation protocol
=====================

There is one invalidation granularity, and every cached piece of
derived state in the repo uses it:

**Epoch.**  The owner keeps an integer epoch alongside an
:class:`~repro.cache.lru.EpochKeyedCache`.  Entries are stamped with
the epoch current at store time; a lookup whose stamp disagrees with
the current epoch is a miss.  The epoch is bumped whenever the world
the entries were derived from changes *wholesale*:

* DDL — ``CREATE TABLE`` / ``CREATE INDEX`` (access paths change),
* ``ANALYZE`` — statistics swap (cost estimates change),
* planner reconfiguration (``set_join_reordering``),
* bulk load.

Used by: the SQL plan/closure/DML-shape caches
(``relational/engine.py``), the Cypher statement/plan cache
(``graphdb/engine.py``), the SPARQL parse+translate cache
(``rdf/engine.py``) and the Gremlin Server closure cache
(``tinkerpop/server.py``, bumped on restart).

Audit of derived-state sites (staleness hazards)
------------------------------------------------

* SQL ``_stmt_cache`` — parse trees depend only on the SQL text, never
  stale; plain LRU.
* SQL ``_plan_cache`` / ``_closure_cache`` — depend on schema + stats;
  **epoch**, bumped by DDL / ANALYZE / reorder toggle.  A closure is
  stored beside the plan it was compiled from and reused only for that
  very plan object.
* SQL ``_dml_cache`` — the compiled shape of an INSERT / UPDATE / DELETE
  text (an INSERT's is one closure that evaluates, locks, inserts and
  commits; an UPDATE's or DELETE's its assignment functions, index pick
  and residual predicates).  The index pick depends on which indexes
  exist, so **epoch**, same bumps.  Host-only: nothing is charged for building a
  shape, so no configuration's ledger depends on it and it has no
  ``cache_stats()`` row.
* SQL prepared state of a **non-caching** database
  (``Database(cache_statements=False)``, the Sqlg configuration) — the
  three caches above are filled all the same, as a *host memo*: a hit
  replays the ``sql_parse`` / ``sql_plan`` / ``closure_compile`` charges
  of the prepare it stands for instead of being free.  Replay is only
  honest while a fresh prepare would build the same plan, so these
  entries carry **two** guards: the **epoch**, and a **live-cardinality
  witness** — without ANALYZE statistics the planner costs from
  ``len(table)``, which feeds ``est_rows`` and through it the compiled
  batch sizes, so each plan records the ``(table, len)`` pairs the
  planner consulted (``PlanNode.live_rows``) and is prepared afresh
  once one of them has moved.  (A caching database never checks the
  witness: its modelled plan cache keeps a plan until the epoch moves.)
  For such a database ``cache_stats()`` counts host-memo hits — work
  the Python process skipped — not charges the simulated server saved;
  the ledger still shows one ``sql_parse`` per statement executed.
* Row-storage ``Table._row_cache`` (``relational/table.py``) — the
  decoded latest committed row per RID, a *host memo* like the one
  above: a hit replays the page access (``HeapFile.touch``) and the
  ``tuple_cpu`` / ``value_cpu`` charges of the fetch it stands for.  It
  derives from the record's bytes alone, so it is invalidated
  per-entry by the only two paths that rewrite them, ``update`` and
  ``_remove_physical`` (QA805 fires if neither evicts); a deferred
  delete keeps the bytes and the entry.  Snapshot reads apply ``mvcc.read`` on top, as for a fresh
  fetch.  No ``cache_stats()`` row: no configuration's ledger depends
  on it.
* Cypher ``_stmt_cache`` — the cached object bundles parse *and* plan;
  plans depend on indexes + stats, so the whole cache is **epoch**,
  bumped by ``create_index`` / ``analyze`` (previously never
  invalidated — a real staleness bug this package fixes).
* SPARQL ``_stmt_cache`` — parse+translate depends only on text, but
  the executor's per-pattern cardinality memo depends on stats;
  **epoch** on the memo, cleared when ``analyze`` installs new stats.
* ``GraphStore._label_index`` / ``_indexes`` — maintained *inline* by
  every write (insert updates the index in the same operation), so they
  are never stale by construction; no epoch needed.
* Planner statistics themselves — snapshots by design (ANALYZE
  semantics); consumers must not cache *decisions* derived from them
  past the epoch bump.

Engines expose their counters uniformly through ``cache_stats()``
facades returning :class:`~repro.cache.lru.CacheStats` rows.
"""

from repro.cache.lru import (
    CacheStats,
    EpochKeyedCache,
    LRUCache,
)

__all__ = [
    "CacheStats",
    "EpochKeyedCache",
    "LRUCache",
]
