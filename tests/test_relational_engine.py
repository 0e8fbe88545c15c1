"""End-to-end tests of the relational Database (both storage engines)."""

import pytest

from repro.relational import Database
from repro.relational.sql.executor import SqlRuntimeError


@pytest.fixture(params=["row", "column"])
def db(request):
    database = Database(request.param)
    database.execute(
        "CREATE TABLE person (id BIGINT PRIMARY KEY, name TEXT, "
        "city TEXT, age INT)"
    )
    database.execute(
        "CREATE TABLE knows (p1 BIGINT, p2 BIGINT, since INT)"
    )
    database.execute("CREATE INDEX ON knows (p1) USING HASH")
    database.execute("CREATE INDEX ON knows (p2) USING HASH")
    people = [
        (1, "alice", "waterloo", 30),
        (2, "bob", "toronto", 35),
        (3, "carol", "waterloo", 28),
        (4, "dave", "montreal", 41),
        (5, "erin", "toronto", 25),
    ]
    for row in people:
        database.execute("INSERT INTO person VALUES (?, ?, ?, ?)", row)
    # undirected 1-2, 2-3, 3-4, 1-5 stored in both directions
    for a, b, since in [(1, 2, 2010), (2, 3, 2012), (3, 4, 2015), (1, 5, 2016)]:
        database.execute("INSERT INTO knows VALUES (?, ?, ?)", (a, b, since))
        database.execute("INSERT INTO knows VALUES (?, ?, ?)", (b, a, since))
    return database


class TestBasicQueries:
    def test_point_lookup(self, db):
        rows = db.query("SELECT name FROM person WHERE id = ?", (3,))
        assert rows == [("carol",)]

    def test_full_scan_filter(self, db):
        rows = db.query("SELECT name FROM person WHERE city = 'waterloo'")
        assert sorted(rows) == [("alice",), ("carol",)]

    def test_projection_expression(self, db):
        rows = db.query("SELECT age + 1 FROM person WHERE id = 1")
        assert rows == [(31,)]

    def test_select_star(self, db):
        rows = db.query("SELECT * FROM person WHERE id = 2")
        assert rows == [(2, "bob", "toronto", 35)]

    def test_order_by_limit(self, db):
        rows = db.query("SELECT name FROM person ORDER BY age DESC LIMIT 2")
        assert rows == [("dave",), ("bob",)]

    def test_order_by_alias(self, db):
        rows = db.query(
            "SELECT name, age * 2 AS doubled FROM person "
            "ORDER BY doubled LIMIT 1"
        )
        assert rows == [("erin", 50)]

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT city FROM person")
        assert sorted(rows) == [("montreal",), ("toronto",), ("waterloo",)]

    def test_in_list(self, db):
        rows = db.query("SELECT name FROM person WHERE id IN (1, 4)")
        assert sorted(rows) == [("alice",), ("dave",)]

    def test_empty_result(self, db):
        assert db.query("SELECT id FROM person WHERE id = 999") == []

    def test_query_on_dml_raises(self, db):
        with pytest.raises(TypeError):
            db.query("INSERT INTO person VALUES (9, 'x', 'y', 1)")


class TestJoins:
    def test_one_hop(self, db):
        rows = db.query(
            "SELECT p.name FROM knows k JOIN person p ON p.id = k.p2 "
            "WHERE k.p1 = ?",
            (1,),
        )
        assert sorted(rows) == [("bob",), ("erin",)]

    def test_two_hop_excluding_source(self, db):
        rows = db.query(
            "SELECT DISTINCT p.name FROM knows k1 "
            "JOIN knows k2 ON k2.p1 = k1.p2 "
            "JOIN person p ON p.id = k2.p2 "
            "WHERE k1.p1 = ? AND k2.p2 <> ?",
            (1, 1),
        )
        assert sorted(rows) == [("carol",)]

    def test_left_join_keeps_unmatched(self, db):
        db.execute("INSERT INTO person VALUES (6, 'zed', 'ottawa', 99)")
        rows = db.query(
            "SELECT p.name, k.p2 FROM person p "
            "LEFT JOIN knows k ON k.p1 = p.id WHERE p.id = 6"
        )
        assert rows == [("zed", None)]

    def test_join_without_index_uses_hash(self, db):
        # join on a non-indexed column still works
        rows = db.query(
            "SELECT p2.name FROM person p1 "
            "JOIN person p2 ON p2.city = p1.city "
            "WHERE p1.id = 1 AND p2.id <> 1"
        )
        assert rows == [("carol",)]

    def test_explain_shows_index_join(self, db):
        plan = db.explain(
            "SELECT p.name FROM knows k JOIN person p ON p.id = k.p2 "
            "WHERE k.p1 = ?"
        )
        assert "IndexEqScan" in plan
        assert "IndexNLJoin" in plan


class TestAggregates:
    def test_count_star(self, db):
        assert db.query("SELECT COUNT(*) FROM person") == [(5,)]

    def test_count_star_empty(self, db):
        assert db.query("SELECT COUNT(*) FROM person WHERE id = 0") == [(0,)]

    def test_group_by(self, db):
        rows = db.query(
            "SELECT city, COUNT(*) AS n FROM person GROUP BY city "
            "ORDER BY n DESC, city"
        )
        assert rows == [
            ("toronto", 2),
            ("waterloo", 2),
            ("montreal", 1),
        ]

    def test_min_max_avg_sum(self, db):
        rows = db.query(
            "SELECT MIN(age), MAX(age), SUM(age), AVG(age) FROM person"
        )
        assert rows == [(25, 41, 159, 159 / 5)]

    def test_count_distinct(self, db):
        assert db.query("SELECT COUNT(DISTINCT city) FROM person") == [(3,)]

    def test_non_grouped_column_rejected(self, db):
        from repro.relational.sql.planner import PlanError

        with pytest.raises(PlanError):
            db.query("SELECT name, COUNT(*) FROM person GROUP BY city")


class TestDML:
    def test_insert_returns_rowcount(self, db):
        assert db.execute(
            "INSERT INTO person VALUES (10, 'x', 'y', 1)"
        ) == 1
        assert db.query("SELECT name FROM person WHERE id = 10") == [("x",)]

    def test_update_via_index(self, db):
        n = db.execute("UPDATE person SET age = 31 WHERE id = 1")
        assert n == 1
        assert db.query("SELECT age FROM person WHERE id = 1") == [(31,)]

    def test_update_via_scan(self, db):
        n = db.execute(
            "UPDATE person SET city = 'kitchener' WHERE city = 'waterloo'"
        )
        assert n == 2

    def test_update_indexed_column_repoints_index(self, db):
        db.execute("UPDATE person SET id = 100 WHERE id = 5")
        assert db.query("SELECT name FROM person WHERE id = 100") == [("erin",)]
        assert db.query("SELECT name FROM person WHERE id = 5") == []

    def test_delete(self, db):
        assert db.execute("DELETE FROM knows WHERE p1 = 1") == 2
        assert db.query("SELECT COUNT(*) FROM knows WHERE p1 = 1") == [(0,)]

    def test_delete_everything(self, db):
        assert db.execute("DELETE FROM knows") == 8
        assert db.query("SELECT COUNT(*) FROM knows") == [(0,)]

    def test_pk_null_rejected(self, db):
        with pytest.raises(ValueError):
            db.execute("INSERT INTO person VALUES (NULL, 'x', 'y', 1)")


class TestTransactions:
    def test_commit_groups_fsyncs(self, db):
        before = db.wal.fsync_count
        with db.transaction():
            db.execute("INSERT INTO person VALUES (20, 'a', 'b', 1)")
            db.execute("INSERT INTO person VALUES (21, 'c', 'd', 2)")
        assert db.wal.fsync_count == before + 1

    def test_abort_rolls_back_insert(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("INSERT INTO person VALUES (30, 'gone', 'x', 1)")
                raise RuntimeError("boom")
        assert db.query("SELECT id FROM person WHERE id = 30") == []

    def test_abort_rolls_back_update(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("UPDATE person SET age = 99 WHERE id = 1")
                raise RuntimeError("boom")
        assert db.query("SELECT age FROM person WHERE id = 1") == [(30,)]

    def test_abort_rolls_back_delete(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("DELETE FROM person WHERE id = 1")
                raise RuntimeError("boom")
        assert db.query("SELECT name FROM person WHERE id = 1") == [("alice",)]

    def test_nested_transaction_rejected(self, db):
        with db.transaction():
            with pytest.raises(RuntimeError):
                with db.transaction():
                    pass


class TestAutocommitFailureReleasesLocks:
    """A storage-layer failure mid-DML must abort the autocommit txn.

    Before the fix (flagged by QA802) the exception propagated past
    ``auto.commit()`` and the row lock leaked forever: any retry of
    the same statement then died with a LockConflict against a
    transaction that no longer existed.
    """

    @staticmethod
    def _fail_once(monkeypatch, table, method):
        real = getattr(table, method)
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("simulated storage failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(table, method, flaky)

    def _no_locks_held(self, db):
        return all(
            not held for held in db.txns.locks._held_by_txn.values()
        )

    def test_failed_insert(self, db, monkeypatch):
        table = db.catalog.table("person")
        self._fail_once(monkeypatch, table, "insert")
        with pytest.raises(RuntimeError, match="storage failure"):
            db.execute(
                "INSERT INTO person VALUES (?, 'zed', 'x', 1)", (9,)
            )
        assert self._no_locks_held(db)
        # the retry re-acquires ('person', 9) — leaked, it would
        # raise LockConflict here
        db.execute("INSERT INTO person VALUES (?, 'zed', 'x', 1)", (9,))
        assert db.query("SELECT name FROM person WHERE id = 9") == [
            ("zed",)
        ]

    def test_failed_update(self, db, monkeypatch):
        table = db.catalog.table("person")
        self._fail_once(monkeypatch, table, "update")
        with pytest.raises(RuntimeError, match="storage failure"):
            db.execute("UPDATE person SET age = 99 WHERE id = 1")
        assert self._no_locks_held(db)
        db.execute("UPDATE person SET age = 99 WHERE id = 1")
        assert db.query("SELECT age FROM person WHERE id = 1") == [(99,)]

    def test_failed_delete(self, db, monkeypatch):
        table = db.catalog.table("person")
        self._fail_once(monkeypatch, table, "delete")
        with pytest.raises(RuntimeError, match="storage failure"):
            db.execute("DELETE FROM person WHERE id = 5")
        assert self._no_locks_held(db)
        db.execute("DELETE FROM person WHERE id = 5")
        assert db.query("SELECT id FROM person WHERE id = 5") == []


class TestRejectedInsert:
    """A row with a wrong-typed value or a duplicate primary key is
    refused whole: nothing of it is stored, indexed or logged (a column
    table used to keep the columns before the bad one one entry longer,
    and a duplicate key's row stayed in the heap or column table)."""

    @staticmethod
    def _state(table):
        if table.storage == "row":
            stored = (table._heap.record_count, table._heap.page_count)
        else:
            stored = [
                list(column.data) for column in table._cols._columns.values()
            ]
        indexes = {
            column: sorted(index.items())
            for column, index in table._indexes.items()
        }
        return len(table), stored, indexes, table.wal.last_lsn

    @pytest.mark.parametrize("storage", ["row", "column"])
    def test_table_insert(self, storage):
        db = Database(storage)
        db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT, c INT)")
        db.execute("CREATE INDEX ON t (c)")
        table = db.catalog.table("t")
        table.insert((1, "x", 10))
        before = self._state(table)
        with pytest.raises(TypeError, match="expected int, got str"):
            table.insert((2, "y", "not an int"))
        assert self._state(table) == before
        handle = table.insert((3, "z", 30))
        assert table.fetch(handle) == (3, "z", 30)
        assert len(table) == 2

    def test_sql_insert(self, db):
        table = db.catalog.table("person")
        before = self._state(table)
        with pytest.raises(TypeError):
            db.execute(
                "INSERT INTO person VALUES (?, ?, ?, ?)", (9, "zed", "x", "y")
            )
        assert self._state(table) == before
        assert not any(db.txns.locks._held_by_txn.values())
        db.execute(
            "INSERT INTO person VALUES (?, ?, ?, ?)", (9, "zed", "x", 1)
        )
        assert db.query("SELECT name, age FROM person WHERE id = 9") == [
            ("zed", 1)
        ]

    @pytest.mark.parametrize("storage", ["row", "column"])
    def test_table_insert_duplicate_key(self, storage):
        db = Database(storage)
        db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b TEXT, c INT)")
        db.execute("CREATE INDEX ON t (c)")
        table = db.catalog.table("t")
        table.insert((1, "x", 10))
        before = self._state(table)
        with pytest.raises(KeyError, match="duplicate key"):
            table.insert((1, "dup", 20))
        assert self._state(table) == before
        assert db.query("SELECT a, b, c FROM t") == [(1, "x", 10)]
        handle = table.insert((2, "y", 20))
        assert table.fetch(handle) == (2, "y", 20)
        assert len(table) == 2

    def test_sql_insert_duplicate_key(self, db):
        table = db.catalog.table("person")
        before = self._state(table)
        with pytest.raises(KeyError, match="duplicate key"):
            db.execute(
                "INSERT INTO person VALUES (?, ?, ?, ?)", (1, "dup", "x", 2)
            )
        assert self._state(table) == before
        assert not any(db.txns.locks._held_by_txn.values())
        assert db.query("SELECT id FROM person WHERE name = 'dup'") == []
        db.execute(
            "INSERT INTO person VALUES (?, ?, ?, ?)", (9, "dup", "x", 2)
        )
        assert db.query("SELECT id FROM person WHERE name = 'dup'") == [
            (9,)
        ]


class TestRecursiveCTE:
    def test_counter(self, db):
        rows = db.query(
            "WITH RECURSIVE r (n) AS ("
            "SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 5"
            ") SELECT n FROM r ORDER BY n"
        )
        assert rows == [(1,), (2,), (3,), (4,), (5,)]

    def test_bfs_shortest_path(self, db):
        rows = db.query(
            "WITH RECURSIVE bfs (node, depth) AS ("
            "  SELECT k.p2, 1 FROM knows k WHERE k.p1 = ?"
            "  UNION"
            "  SELECT k.p2, b.depth + 1 FROM bfs b "
            "    JOIN knows k ON k.p1 = b.node WHERE b.depth < 8"
            ") SELECT MIN(depth) FROM bfs WHERE node = ?",
            (1, 4),
        )
        assert rows == [(3,)]

    def test_union_distinct_terminates_on_cycle(self, db):
        # reachability over the cyclic undirected graph
        rows = db.query(
            "WITH RECURSIVE reach (node) AS ("
            "  SELECT k.p2 FROM knows k WHERE k.p1 = ?"
            "  UNION"
            "  SELECT k.p2 FROM reach r JOIN knows k ON k.p1 = r.node"
            ") SELECT COUNT(*) FROM reach",
            (1,),
        )
        assert rows == [(5,)]  # everyone incl. the start (1 is reachable back)

    def test_runaway_recursion_capped(self, db):
        with pytest.raises(SqlRuntimeError):
            db.query(
                "WITH RECURSIVE r (n) AS ("
                "SELECT 1 UNION ALL SELECT n + 1 FROM r"
                ") SELECT COUNT(*) FROM r"
            )


class TestShortestPathBuiltin:
    def test_requires_transitive_support(self, db):
        with pytest.raises(Exception):
            db.query(
                "SELECT shortest_path_len('knows', 'p1', 'p2', ?, ?)", (1, 4)
            )

    @pytest.fixture()
    def vdb(self):
        database = Database("column", transitive_support=True)
        database.execute("CREATE TABLE knows (p1 BIGINT, p2 BIGINT)")
        database.execute("CREATE INDEX ON knows (p1) USING HASH")
        database.execute("CREATE INDEX ON knows (p2) USING HASH")
        for a, b in [(1, 2), (2, 3), (3, 4), (1, 5), (6, 7)]:
            database.execute("INSERT INTO knows VALUES (?, ?)", (a, b))
            database.execute("INSERT INTO knows VALUES (?, ?)", (b, a))
        return database

    def test_direct_edge(self, vdb):
        assert vdb.query(
            "SELECT shortest_path_len('knows', 'p1', 'p2', ?, ?)", (1, 2)
        ) == [(1,)]

    def test_multi_hop(self, vdb):
        assert vdb.query(
            "SELECT shortest_path_len('knows', 'p1', 'p2', ?, ?)", (1, 4)
        ) == [(3,)]

    def test_same_node(self, vdb):
        assert vdb.query(
            "SELECT shortest_path_len('knows', 'p1', 'p2', ?, ?)", (3, 3)
        ) == [(0,)]

    def test_unreachable_returns_null(self, vdb):
        assert vdb.query(
            "SELECT shortest_path_len('knows', 'p1', 'p2', ?, ?)", (1, 7)
        ) == [(None,)]


class TestCatalogErrors:
    def test_unknown_table(self, db):
        with pytest.raises(KeyError):
            db.query("SELECT x FROM missing")

    def test_duplicate_table(self, db):
        with pytest.raises(ValueError):
            db.execute("CREATE TABLE person (id INT)")

    def test_unknown_column(self, db):
        with pytest.raises(SqlRuntimeError):
            db.query("SELECT bogus FROM person")

    def test_size_bytes_grows(self, db):
        before = db.size_bytes()
        for i in range(100, 160):
            db.execute(
                "INSERT INTO person VALUES (?, 'p', 'c', 1)", (i,)
            )
        assert db.size_bytes() > before
