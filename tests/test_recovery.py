"""Crash-recovery tests: rebuild a database from its write-ahead log."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database
from repro.simclock.ledger import meter
from repro.sqlg import SqlgProvider


def seeded_db(storage="row"):
    db = Database(storage)
    db.execute(
        "CREATE TABLE person (id BIGINT PRIMARY KEY, name TEXT, age INT)"
    )
    db.execute("CREATE INDEX ON person (name) USING HASH")
    for pid, name, age in [(1, "a", 30), (2, "b", 40), (3, "c", 50)]:
        db.execute("INSERT INTO person VALUES (?, ?, ?)", (pid, name, age))
    return db


class TestRecovery:
    @pytest.mark.parametrize("storage", ["row", "column"])
    def test_inserts_survive(self, storage):
        db = seeded_db(storage)
        recovered = Database.recover(db.wal, storage=storage)
        assert recovered.query(
            "SELECT id, name, age FROM person ORDER BY id"
        ) == [(1, "a", 30), (2, "b", 40), (3, "c", 50)]

    def test_indexes_rebuilt(self):
        db = seeded_db()
        recovered = Database.recover(db.wal)
        table = recovered.catalog.table("person")
        assert table.has_index("id")
        assert table.has_index("name")
        assert recovered.query(
            "SELECT id FROM person WHERE name = 'b'"
        ) == [(2,)]

    def test_updates_and_deletes_survive(self):
        db = seeded_db()
        db.execute("UPDATE person SET age = 99 WHERE id = 2")
        db.execute("DELETE FROM person WHERE id = 1")
        recovered = Database.recover(db.wal)
        assert recovered.query(
            "SELECT id, age FROM person ORDER BY id"
        ) == [(2, 99), (3, 50)]

    def test_unsynced_tail_is_lost(self):
        db = seeded_db()
        # bypass autocommit: append a record without forcing the log
        db.catalog.table("person").insert((9, "ghost", 1))
        assert db.wal.unsynced_records == 1
        recovered = Database.recover(db.wal)
        assert recovered.query("SELECT id FROM person WHERE id = 9") == []

    def test_aborted_transaction_not_replayed_as_committed_state(self):
        db = seeded_db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("INSERT INTO person VALUES (7, 'x', 1)")
                raise RuntimeError("crash before commit")
        recovered = Database.recover(db.wal)
        # the insert and its compensating delete both replay (or neither
        # was made durable): the row must not exist either way
        assert recovered.query("SELECT id FROM person WHERE id = 7") == []

    def test_recovered_database_accepts_new_writes(self):
        db = seeded_db()
        recovered = Database.recover(db.wal)
        recovered.execute("INSERT INTO person VALUES (4, 'd', 60)")
        assert recovered.query("SELECT COUNT(*) FROM person") == [(4,)]
        # and the recovered WAL now logs again: recover the recovery
        twice = Database.recover(recovered.wal)
        assert twice.query("SELECT COUNT(*) FROM person") == [(4,)]

    def test_recovered_sqlg_database_still_charges_every_prepare(self):
        """``cache_statements`` is configuration like ``storage``: a
        recovered Sqlg backing database must keep charging re-parse and
        re-plan per statement, not turn into a caching one."""
        provider = SqlgProvider()
        provider.define_vertex_label("person", {"id": int, "name": str})
        provider.create_vertex("person", {"id": 1, "name": "a"})
        recovered = Database.recover(
            provider.db.wal, cache_statements=False
        )
        sql = "SELECT name FROM v_person WHERE id = ?"
        for _ in range(2):
            with meter() as ledger:
                assert recovered.query(sql, (1,)) == [("a",)]
            charged = ledger.snapshot()
            assert charged["sql_parse"] == charged["sql_plan"] == 1
        # the default stays a caching database
        cached = Database.recover(provider.db.wal)
        cached.query(sql, (1,))
        with meter() as ledger:
            cached.query(sql, (1,))
        assert "sql_parse" not in ledger.snapshot()

    def test_unknown_record_rejected(self):
        db = seeded_db()
        db.wal.append(b'["flurble", "person", []]')
        db.wal.commit()
        with pytest.raises(ValueError):
            Database.recover(db.wal)

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(0, 20),
                st.integers(0, 100),
            ),
            max_size=40,
        )
    )
    def test_recovery_matches_original(self, ops):
        db = Database("row")
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)")
        live: set[int] = set()
        for op, key, value in ops:
            if op == "insert" and key not in live:
                db.execute("INSERT INTO t VALUES (?, ?)", (key, value))
                live.add(key)
            elif op == "update" and key in live:
                db.execute("UPDATE t SET v = ? WHERE id = ?", (value, key))
            elif op == "delete" and key in live:
                db.execute("DELETE FROM t WHERE id = ?", (key,))
                live.discard(key)
        recovered = Database.recover(db.wal)
        original = db.query("SELECT id, v FROM t ORDER BY id")
        assert recovered.query("SELECT id, v FROM t ORDER BY id") == original
