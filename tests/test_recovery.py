"""Crash-recovery tests: rebuild a database from its write-ahead log."""

import marshal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_connector
from repro.relational import Database
from repro.relational.table import read_wal_record, wal_record
from repro.simclock.ledger import meter
from repro.snb import GeneratorConfig, generate
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
        db.wal.append(wal_record("flurble", "person", ()))
        db.wal.commit()
        with pytest.raises(ValueError, match="unknown WAL record"):
            Database.recover(db.wal)

    @pytest.mark.parametrize(
        "raw",
        [
            # the JSON records of the earlier log format: read as
            # marshal, "[" would claim a list of ~1.9e9 items
            b'["flurble", "person", []]',
            b'["insert", "person", [4, "d", 60]]',
            b"",
            # a record's header with its body cut off
            wal_record("insert", "person", (4, "d", 60))[:12],
            # a marshalled tuple of the wrong arity
            marshal.dumps(("insert", "person"), 2),
        ],
    )
    def test_foreign_bytes_raise_value_error(self, raw):
        db = seeded_db()
        db.wal.append(raw)
        db.wal.commit()
        with pytest.raises(ValueError):
            Database.recover(db.wal)

    def test_records_decode_to_their_values(self):
        db = seeded_db()
        db.execute("UPDATE person SET age = 99 WHERE id = 2")
        db.execute("DELETE FROM person WHERE id = 1")
        records = [read_wal_record(raw) for raw in db.wal.durable_records()]
        assert records[0] == (
            "create_table",
            "person",
            (("id", "int"), ("name", "text"), ("age", "int")),
            "id",
        )
        assert records[1] == ("create_index", "person", "name", "hash")
        assert records[2:] == [
            ("insert", "person", (1, "a", 30)),
            ("insert", "person", (2, "b", 40)),
            ("insert", "person", (3, "c", 50)),
            ("update", "person", ((2, "b", 40), [2, "b", 99])),
            ("delete", "person", (1, "a", 30)),
        ]

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete"]),
                st.integers(0, 20),
                # every column type, each of them NULL at times; text
                # reaches past ASCII (surrogates cannot be UTF-8)
                st.tuples(
                    st.none() | st.integers(-(2**63), 2**63 - 1),
                    st.none()
                    | st.text(
                        st.characters(blacklist_categories=("Cs",)),
                        max_size=8,
                    ),
                    st.none() | st.floats(allow_nan=False),
                    st.none() | st.booleans(),
                ),
            ),
            max_size=40,
        )
    )
    def test_recovery_matches_original(self, ops):
        db = Database("row")
        db.execute(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, v INT, s TEXT, "
            "f DOUBLE, b BOOL)"
        )
        live: set[int] = set()
        for op, key, value in ops:
            if op == "insert" and key not in live:
                db.execute(
                    "INSERT INTO t VALUES (?, ?, ?, ?, ?)", (key, *value)
                )
                live.add(key)
            elif op == "update" and key in live:
                db.execute(
                    "UPDATE t SET v = ?, s = ?, f = ?, b = ? WHERE id = ?",
                    (*value, key),
                )
            elif op == "delete" and key in live:
                db.execute("DELETE FROM t WHERE id = ?", (key,))
                live.discard(key)
        recovered = Database.recover(db.wal)
        sql = "SELECT id, v, s, f, b FROM t ORDER BY id"
        assert recovered.query(sql) == db.query(sql)


@pytest.fixture(scope="module")
def tiny():
    return generate(
        GeneratorConfig(scale_factor=3, scale_divisor=16000, seed=13)
    )


@pytest.mark.parametrize(
    "system", ["postgres-sql", "virtuoso-sql", "sqlg"]
)
def test_full_load_recovers_every_table(tiny, system):
    """A whole SNB load, row store, column store and Sqlg's backing
    database alike, replays from its log into the same tables."""
    connector = make_connector(system)
    connector.load(tiny)
    (db,) = connector.sanitize_targets().values()
    assert db.wal.unsynced_records == 0
    recovered = Database.recover(
        db.wal,
        storage=db.catalog.storage,
        transitive_support=db.transitive_support,
    )
    names = db.catalog.table_names()
    assert recovered.catalog.table_names() == names
    rows = 0
    for name in names:
        live = sorted(repr(row) for _, row in db.catalog.table(name).scan())
        replayed = sorted(
            repr(row) for _, row in recovered.catalog.table(name).scan()
        )
        assert replayed == live, name
        rows += len(live)
    assert rows > 1000
