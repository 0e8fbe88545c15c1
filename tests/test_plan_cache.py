"""Plan-cache invalidation: DDL and ANALYZE must evict stale plans."""

import pytest

from repro.relational import Database
from repro.simclock.ledger import meter


@pytest.fixture
def db():
    database = Database("row")
    database.execute(
        "CREATE TABLE person (id BIGINT PRIMARY KEY, city TEXT)"
    )
    for pid in range(30):
        database.execute(
            "INSERT INTO person VALUES (?, ?)", (pid, f"c{pid % 5}")
        )
    return database


QUERY = "SELECT id FROM person WHERE city = ?"


class TestCaching:
    def test_repeated_query_reuses_the_cached_plan(self, db):
        db.query(QUERY, ("c1",))
        epoch, plan = db._plan_cache[QUERY]
        db.query(QUERY, ("c2",))
        assert db._plan_cache[QUERY] == (epoch, plan)
        assert db._plan_cache[QUERY][1] is plan

    def test_stale_epoch_forces_a_replan(self, db):
        db.query(QUERY, ("c1",))
        _epoch, stale_plan = db._plan_cache[QUERY]
        db._stats_epoch += 1  # epoch moved without an explicit clear
        db.query(QUERY, ("c1",))
        fresh_epoch, fresh_plan = db._plan_cache[QUERY]
        assert fresh_epoch == db._stats_epoch
        assert fresh_plan is not stale_plan


    def test_prepare_is_charged_once_per_text_per_epoch(self, db):
        """A caching database pays parse/plan/compile for a text once,
        and plan/compile again after each epoch bump (the parse tree
        depends on the text alone)."""
        prepare = ("sql_parse", "sql_plan", "closure_compile")

        def charged(param):
            with meter() as ledger:
                db.query(QUERY, (param,))
            counters = ledger.snapshot()
            return tuple(counters.get(name, 0) for name in prepare)

        assert charged("c1") == (1, 1, 1)
        assert charged("c2") == (0, 0, 0)
        # growth alone never re-prepares, even though the plan was
        # costed from the live row count: that is what ANALYZE is for
        for pid in range(30, 400):
            db.execute("INSERT INTO person VALUES (?, ?)", (pid, "c1"))
        assert charged("c1") == (0, 0, 0)
        db.analyze()
        assert charged("c1") == (0, 1, 1)
        assert charged("c2") == (0, 0, 0)


class TestInvalidation:
    def test_create_index_evicts_cached_plans(self, db):
        db.query(QUERY, ("c1",))
        assert QUERY in db._plan_cache
        epoch = db._stats_epoch
        db.execute("CREATE INDEX ON person (city) USING HASH")
        assert db._plan_cache == {}
        assert db._stats_epoch > epoch

    def test_analyze_evicts_cached_plans(self, db):
        db.query(QUERY, ("c1",))
        assert QUERY in db._plan_cache
        epoch = db._stats_epoch
        db.analyze()
        assert db._plan_cache == {}
        assert db._stats_epoch > epoch

    def test_reordering_toggle_evicts_cached_plans(self, db):
        db.query(QUERY, ("c1",))
        epoch = db._stats_epoch
        db.set_join_reordering(False)
        assert db._plan_cache == {}
        assert db._stats_epoch > epoch
        db.set_join_reordering(True)

    def test_plan_made_before_an_index_uses_it_afterward(self, db):
        before = db.explain(QUERY)
        assert "SeqScan" in before
        rows_before = db.query(QUERY, ("c1",))
        db.execute("CREATE INDEX ON person (city) USING HASH")
        after = db.explain(QUERY)
        assert "IndexEqScan" in after
        assert sorted(db.query(QUERY, ("c1",))) == sorted(rows_before)
