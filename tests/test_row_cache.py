"""Each path that rewrites or removes a stored record keeps a
row-storage ``Table``'s memo honest.

The memo (``Table._row_cache``) is host-only: on a hit the table skips
the slot read and the decode, but still makes the buffer-pool access
and pays ``tuple_cpu`` and ``value_cpu`` the way a fresh fetch would.
Each test runs a small table through one such path twice — once
normally, once with the memo swapped for a mapping that never hits —
and requires equal per-operation ledgers and answers.  The connector
twins live in ``tests/test_prepared_replay.py``.
"""

import pytest

from repro.relational import Database
from repro.simclock.ledger import meter
from repro.storage.heap import SLOT_BITS
from repro.txn import oracle
from tests.test_prepared_replay import _metered, row_memos


def _assert_twins(trace):
    """Run ``trace`` with and without the memo; equal op by op."""
    with row_memos(forget=False) as decoded:
        remembered = trace()
    with row_memos(forget=True) as decoded_fresh:
        fresh = trace()
    assert len(remembered) == len(fresh) > 0
    for got, expected in zip(remembered, fresh):
        assert got == expected, got[0]
    # the comparison is only worth something if the memo was in play
    assert decoded["n"] < decoded_fresh["n"]
    return remembered


SCHEMA = (
    "CREATE TABLE t (id BIGINT PRIMARY KEY, grp BIGINT, note TEXT)",
    "CREATE INDEX ON t (grp) USING HASH",
)
POINT = "SELECT id, grp, note FROM t WHERE id = ?"
GROUP = "SELECT id, note FROM t WHERE grp = ?"
SET_GRP = "UPDATE t SET grp = ? WHERE id = ?"
SET_NOTE = "UPDATE t SET note = ? WHERE id = ?"


def _database(rows, note_bytes=8, **kwargs):
    db = Database("row", **kwargs)
    for sql in SCHEMA:
        db.execute(sql)
    for i in range(rows):
        db.execute(
            "INSERT INTO t VALUES (?, ?, ?)", (i, i % 5, "n" * note_bytes)
        )
    return db


def _handle(db, key):
    (handle,) = db.catalog.table("t").lookup("id", key)
    return handle


def _fetch(table, handle):
    """The row at ``handle``, or ``"KeyError"`` once the record is gone."""
    try:
        return table.fetch(handle)
    except KeyError as exc:
        return type(exc).__name__


def _read_all(ops, db, tag, rows):
    table = db.catalog.table("t")
    for i in range(rows):
        ops.append(_metered((tag, "point", i), lambda: db.query(POINT, (i,))))
    for grp in range(5):
        ops.append(
            _metered((tag, "group", grp), lambda: db.query(GROUP, (grp,)))
        )
    ops.append(
        _metered((tag, "scan"), lambda: [row for _h, row in table.scan()])
    )


def test_two_frame_pool_hits_through_misses_and_dirty_evictions():
    rows = 48

    def trace():
        # ~420-byte records: the table spans 3 pages, the pool holds 2
        db = _database(rows, note_bytes=400, buffer_capacity=2)
        by_page = {}
        for i in range(rows):
            by_page.setdefault(_handle(db, i) >> SLOT_BITS, []).append(i)
        assert len(by_page) == 3
        # visit the pages in turn, so every read misses the pool; read
        # one row and dirty a page-mate that is never read, so the read
        # rows stay memoized and each miss evicts a dirty page
        pages = [zip(ids[::2], ids[1::2]) for ids in by_page.values()]
        cycle = [pair for turn in zip(*pages) for pair in turn]
        ops = []
        for rnd in range(3):
            for read, dirty in cycle:
                ops.append(
                    _metered(
                        ("point", rnd, read), lambda: db.query(POINT, (read,))
                    )
                )
                ops.append(
                    _metered(
                        ("dirty", rnd, dirty),
                        lambda: db.execute(SET_GRP, (rnd, dirty)),
                    )
                )
        return ops

    ops = _assert_twins(trace)
    warm = [ledger for label, _a, ledger in ops if label[:2] == ("point", 2)]
    assert sum(ledger.get("page_read", 0) for ledger in warm) > 0
    assert sum(ledger.get("page_write", 0) for ledger in warm) > 0


def test_in_place_and_growing_updates():
    rows = 12

    def trace():
        db = _database(rows)
        ops = []
        _read_all(ops, db, "before", rows)
        kept, old = _handle(db, 3), _handle(db, 4)
        ops.append(_metered("in-place", lambda: db.execute(SET_GRP, (9, 3))))
        ops.append(_metered("same rid", lambda: _handle(db, 3) == kept))
        ops.append(
            _metered("grow", lambda: db.execute(SET_NOTE, ("x" * 300, 4)))
        )
        moved = _handle(db, 4)
        table = db.catalog.table("t")
        ops.append(_metered("moved", lambda: moved != old))
        ops.append(_metered("old rid", lambda: _fetch(table, old)))
        ops.append(_metered("new rid", lambda: _fetch(table, moved)))
        _read_all(ops, db, "after", rows)
        return ops

    ops = {label: answer for label, answer, _l in _assert_twins(trace)}
    assert ops[("after", "point", 3)] == [(3, 9, "n" * 8)]
    assert ops[("after", "point", 4)] == [(4, 4, "x" * 300)]
    assert ops["same rid"] is True and ops["moved"] is True
    assert ops["old rid"] == "KeyError"
    assert ops["new rid"] == (4, 4, "x" * 300)


def test_physical_delete():
    rows = 10

    def trace():
        db = _database(rows)
        table = db.catalog.table("t")
        gone = _handle(db, 6)
        ops = []
        _read_all(ops, db, "before", rows)
        ops.append(
            _metered(
                "delete", lambda: db.execute("DELETE FROM t WHERE id = 6")
            )
        )
        ops.append(_metered("fetch", lambda: _fetch(table, gone)))
        _read_all(ops, db, "after", rows)
        return ops

    ops = {label: answer for label, answer, _l in _assert_twins(trace)}
    assert ops["fetch"] == "KeyError"
    assert ops[("after", "point", 6)] == []


def test_deferred_delete_under_a_held_snapshot_then_reclaim():
    rows = 10

    def trace():
        db = _database(rows)
        table = db.catalog.table("t")
        gone = _handle(db, 2)
        ops = []
        with oracle.held_snapshot():
            _read_all(ops, db, "before", rows)
            ops.append(
                _metered(
                    "delete", lambda: db.execute("DELETE FROM t WHERE id = 2")
                )
            )
            # the tombstoned record's bytes are unchanged: memo stays
            ops.append(_metered("held", lambda: _fetch(table, gone)))
            _read_all(ops, db, "held", rows)
        ops.append(_metered("gc", lambda: table.mvcc.gc()))
        ops.append(_metered("fetch", lambda: _fetch(table, gone)))
        _read_all(ops, db, "after", rows)
        return ops

    ops = {label: answer for label, answer, _l in _assert_twins(trace)}
    assert ops["held"] == (2, 2, "n" * 8)
    assert ops[("held", "point", 2)] == [(2, 2, "n" * 8)]
    assert ops["gc"] >= 1
    assert ops["fetch"] == "KeyError"
    assert ops[("after", "point", 2)] == []


def test_abort_undoes_insert_update_and_delete():
    rows = 10

    def aborted(db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("INSERT INTO t VALUES (?, ?, ?)", (99, 1, "new"))
                db.execute(SET_GRP, (7, 1))
                db.execute(SET_NOTE, ("y" * 300, 2))
                db.execute("DELETE FROM t WHERE id = 3")
                assert db.query(POINT, (2,)) == [(2, 2, "y" * 300)]
                raise RuntimeError("abort")

    def trace():
        db = _database(rows)
        ops = []
        _read_all(ops, db, "before", rows)
        ops.append(_metered("aborted", lambda: aborted(db)))
        ops.append(_metered("99", lambda: db.query(POINT, (99,))))
        _read_all(ops, db, "after", rows)
        return ops

    ops = {label: answer for label, answer, _l in _assert_twins(trace)}
    for i in range(rows):
        assert ops[("after", "point", i)] == ops[("before", "point", i)]
    assert ops["99"] == []


def test_recover_replays_into_fresh_tables():
    rows = 10

    def trace():
        db = _database(rows)
        db.execute(SET_GRP, (8, 1))
        db.execute(SET_NOTE, ("z" * 300, 2))
        db.execute("DELETE FROM t WHERE id = 3")
        _read_all([], db, "warm", rows)
        ops = []
        recovered = []
        ops.append(
            _metered(
                "recover",
                lambda: recovered.append(Database.recover(db.wal)),
            )
        )
        _read_all(ops, recovered[0], "recovered", rows)
        return ops

    ops = {label: answer for label, answer, _l in _assert_twins(trace)}
    assert ops[("recovered", "point", 1)] == [(1, 8, "n" * 8)]
    assert ops[("recovered", "point", 2)] == [(2, 2, "z" * 300)]
    assert ops[("recovered", "point", 3)] == []


# -- host work: what is replayed is not redone ----------------------------


def test_warm_refetch_decodes_nothing():
    with row_memos(forget=False) as decoded:
        db = _database(10)
        table = db.catalog.table("t")
        handle = _handle(db, 5)
        with meter() as cold:
            row = table.fetch(handle)
        assert decoded["n"] == 1
        with meter() as warm:
            assert table.fetch(handle) is row
        db.query(POINT, (5,))
        assert decoded["n"] == 1
    assert warm.snapshot() == cold.snapshot() == {
        "buffer_hit": 1,
        "tuple_cpu": 1,
        "value_cpu": 3,
    }
