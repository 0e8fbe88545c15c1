"""The shared caching subsystem: LRU bookkeeping, epoch invalidation,
the engines' uniform ``cache_stats()`` facades, the Gremlin closure
cache, and WAL group commit."""

import pytest

from repro.cache import (
    CacheStats,
    EpochKeyedCache,
    LRUCache,
)
from repro.graphdb import GraphDatabase
from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.options import EngineOptions
from repro.rdf import RdfDatabase
from repro.relational import Database
from repro.simclock import meter
from repro.storage.wal import WriteAheadLog
from repro.tinkerpop import Graph, GremlinServer


class TestLRUCache:
    def test_hit_and_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # touch: "b" is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_peek_does_not_touch_counters_or_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("zzz") is None
        assert (cache.hits, cache.misses) == (0, 0)
        cache.put("c", 3)  # "a" was not touched, so it is evicted
        assert "a" not in cache

    def test_invalidate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate("a")
        assert not cache.invalidate("a")
        assert cache.invalidate_all() == 1
        assert cache.invalidations == 2
        assert len(cache) == 0

    def test_stats_snapshot(self):
        cache = LRUCache(8, name="unit")
        cache.put("k", "v")
        cache.get("k")
        stats = cache.stats()
        assert isinstance(stats, CacheStats)
        assert stats.name == "unit"
        assert (stats.size, stats.capacity) == (1, 8)
        assert stats.hits == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestEpochKeyedCache:
    def test_store_and_lookup(self):
        cache = EpochKeyedCache(4)
        assert cache.lookup("q") is None
        cache.store("q", "plan")
        assert cache.lookup("q") == "plan"

    def test_bump_epoch_invalidates_everything(self):
        cache = EpochKeyedCache(4)
        cache.store("q", "plan")
        cache.bump_epoch()
        assert cache.lookup("q") is None
        assert cache == {}

    def test_stale_stamp_counts_as_a_miss(self):
        cache = EpochKeyedCache(4)
        cache.store("q", "plan")
        cache.epoch += 1  # epoch moved without an explicit clear
        assert cache.lookup("q") is None
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 1  # the stale lookup, not a raw hit

    def test_mapping_protocol_exposes_epoch_value_pairs(self):
        cache = EpochKeyedCache(4)
        cache.store("q", "plan")
        assert "q" in cache
        assert cache["q"] == (cache.epoch, "plan")


class TestWalGroupCommit:
    def test_group_defers_to_one_fsync(self):
        wal = WriteAheadLog()
        with wal.group():
            for i in range(5):
                wal.append(b"rec")
                wal.commit()
        assert wal.fsync_count == 1

    def test_nested_groups_join_the_outermost(self):
        wal = WriteAheadLog()
        with wal.group():
            wal.append(b"a")
            wal.commit()
            with wal.group():
                wal.append(b"b")
                wal.commit()
            wal.append(b"c")
            wal.commit()
        assert wal.fsync_count == 1

    def test_commits_outside_a_group_fsync_each(self):
        wal = WriteAheadLog()
        wal.append(b"a")
        wal.commit()
        wal.append(b"b")
        wal.commit()
        assert wal.fsync_count == 2


class TestEngineFacades:
    def test_sql_engine_reports_statement_and_plan_caches(self):
        db = Database("row")
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (?)", (1,))
        db.query("SELECT id FROM t", ())
        db.query("SELECT id FROM t", ())
        names = {s.name for s in db.cache_stats()}
        assert names == {"sql-statements", "sql-plans", "sql-closures"}
        stats = {s.name: s for s in db.cache_stats()}
        # compiled mode (the default): warm statements hit the closure
        # cache; the plan was still built (and cached) exactly once
        assert stats["sql-closures"].hits >= 1
        assert stats["sql-plans"].misses == 1

    def test_sql_interpreted_mode_hits_plan_cache(self):
        db = Database("row", options=EngineOptions("interpreted"))
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (?)", (1,))
        db.query("SELECT id FROM t", ())
        db.query("SELECT id FROM t", ())
        stats = {s.name: s for s in db.cache_stats()}
        assert stats["sql-plans"].hits >= 1
        assert stats["sql-closures"].hits == 0

    def test_cypher_engine_reports_plan_cache(self):
        db = GraphDatabase()
        db.execute("CREATE (:Person {id: 1})")
        db.execute("MATCH (p:Person) RETURN p.id")
        db.execute("MATCH (p:Person) RETURN p.id")
        stats = {s.name: s for s in db.cache_stats()}
        assert stats["cypher-plans"].hits >= 1

    def test_cypher_create_index_invalidates_cached_plans(self):
        db = GraphDatabase()
        db.execute("CREATE (:Person {id: 1})")
        db.execute("MATCH (p:Person) WHERE p.id = 1 RETURN p.id")
        epoch = db._stmt_cache.epoch
        db.create_index("Person", "id")
        assert db._stmt_cache.epoch > epoch
        assert len(db._stmt_cache) == 0
        # the replanned statement can now use the index, same answer
        rows = db.execute("MATCH (p:Person) WHERE p.id = 1 RETURN p.id")
        assert rows == [(1,)]

    def test_cypher_ddl_analyze_bumps_invalidation_counters(self):
        """The BENCH_cache blind spot: DDL/ANALYZE must surface as
        ``invalidations`` on the plan AND closure caches, not silently
        reset the epoch while the counters stay at zero."""
        db = GraphDatabase()
        db.execute("CREATE (:Person {id: 1})")
        db.execute("MATCH (p:Person) WHERE p.id = 1 RETURN p.id")
        before = {s.name: s.invalidations for s in db.cache_stats()}
        db.create_index("Person", "id")  # DDL path
        db.analyze()  # maintenance path
        after = {s.name: s.invalidations for s in db.cache_stats()}
        assert after["cypher-plans"] > before["cypher-plans"]
        assert after["cypher-closures"] > before["cypher-closures"]

    def test_sparql_engine_reports_statement_cache(self):
        # compiled mode (the default): the warm path resolves straight
        # to the compiled closure; parse happened exactly once
        db = RdfDatabase()
        db.store.add("sn:p1", "snb:firstName", "Alice")
        q = "SELECT ?n WHERE { ?p snb:firstName ?n }"
        db.execute(q)
        db.execute(q)
        stats = {s.name: s for s in db.cache_stats()}
        assert stats["sparql-closures"].hits >= 1
        assert stats["sparql-statements"].misses == 1

    def test_sparql_interpreted_mode_hits_statement_cache(self):
        db = RdfDatabase(options=EngineOptions("interpreted"))
        db.store.add("sn:p1", "snb:firstName", "Alice")
        q = "SELECT ?n WHERE { ?p snb:firstName ?n }"
        db.execute(q)
        db.execute(q)
        stats = {s.name: s for s in db.cache_stats()}
        assert stats["sparql-statements"].hits >= 1
        assert stats["sparql-closures"].hits == 0

    def test_all_facades_return_cachestats_rows(self):
        for facade in (Database("row"), GraphDatabase(), RdfDatabase()):
            for row in facade.cache_stats():
                assert isinstance(row, CacheStats)


class TestGremlinClosureCache:
    def _server(self):
        provider = Neo4jProvider()
        Graph(provider).traversal().addV("person").property(
            "id", 1
        ).iterate()
        return GremlinServer(provider)  # compiled by default

    def test_warm_submit_skips_script_evaluation(self):
        server = self._server()
        build = lambda g: g.V().has("person", "id", 1).values("id")  # noqa: E731
        with meter() as cold:
            first = server.submit(build, cache_key="point_lookup")
        with meter() as warm:
            second = server.submit(build, cache_key="point_lookup")
        assert first == second == [1]
        assert cold.counters["gremlin_compile"] == 1
        assert cold.counters["closure_compile"] == 1
        assert "gremlin_compile" not in warm.counters
        assert warm.counters["compiled_exec"] == 1
        assert "step_eval" not in warm.counters
        stats = {s.name: s for s in server.cache_stats()}
        assert stats["gremlin-closures"].hits == 1

    def test_uncompilable_script_falls_back_per_key(self):
        server = self._server()
        build = lambda g: g.addV("person").property("id", 9)  # noqa: E731
        server.submit(build, cache_key="add_vertex:person")
        with meter() as ledger:
            server.submit(
                lambda g: g.addV("person").property("id", 10),
                cache_key="add_vertex:person",
            )
        # the failed compile is remembered: resubmits reuse bytecode
        assert "closure_compile" not in ledger.counters
        assert ledger.counters["cache_hit"] == 1
        assert ledger.counters["step_eval"] >= 1

    def test_restart_clears_compiled_closures(self):
        server = self._server()
        build = lambda g: g.V().has("person", "id", 1).values("id")  # noqa: E731
        server.submit(build, cache_key="point_lookup")
        server.crash()
        server.restart()
        with meter() as ledger:
            server.submit(build, cache_key="point_lookup")
        assert ledger.counters["gremlin_compile"] == 1
        assert ledger.counters["closure_compile"] == 1
