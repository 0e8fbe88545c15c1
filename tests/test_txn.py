"""Tests for the lock manager and transaction lifecycle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.txn import (
    DeadlockError,
    LockConflict,
    LockManager,
    LockMode,
    Transaction,
    TransactionManager,
    TxnState,
)
from repro.relational import Database
from repro.simclock.ledger import Ledger, metered
from repro.storage import WriteAheadLog

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


class TestLockManager:
    def test_shared_locks_are_compatible(self):
        lm = LockManager()
        lm.acquire(1, "row", S)
        lm.acquire(2, "row", S)
        assert set(lm.holders("row")) == {1, 2}

    def test_exclusive_conflicts_with_shared(self):
        lm = LockManager()
        lm.acquire(1, "row", S)
        with pytest.raises(LockConflict) as info:
            lm.acquire(2, "row", X)
        assert info.value.holders == {1}

    def test_exclusive_conflicts_with_exclusive(self):
        lm = LockManager()
        lm.acquire(1, "row", X)
        assert not lm.try_acquire(2, "row", X)

    def test_shared_blocked_by_exclusive(self):
        lm = LockManager()
        lm.acquire(1, "row", X)
        with pytest.raises(LockConflict):
            lm.acquire(2, "row", S)

    def test_reacquire_is_noop(self):
        lm = LockManager()
        lm.acquire(1, "row", X)
        lm.acquire(1, "row", X)
        lm.acquire(1, "row", S)  # weaker request under X: fine
        assert lm.holders("row") == {1: X}

    def test_upgrade_succeeds_when_sole_holder(self):
        lm = LockManager()
        lm.acquire(1, "row", S)
        lm.acquire(1, "row", X)
        assert lm.holders("row") == {1: X}

    def test_acquire_many_sorts_and_dedups(self):
        lm = LockManager()
        order: list[object] = []
        original = lm.acquire

        def recording(txn_id, resource, mode):
            order.append(resource)
            return original(txn_id, resource, mode)

        lm.acquire = recording
        lm.acquire_many(1, ["b", "a", "c", "a"], X)
        assert order == ["a", "b", "c"]
        for resource in ("a", "b", "c"):
            assert lm.holders(resource) == {1: X}

    def test_acquire_many_sorts_tuple_resources(self):
        lm = LockManager()
        order: list[object] = []
        original = lm.acquire

        def recording(txn_id, resource, mode):
            order.append(resource)
            return original(txn_id, resource, mode)

        lm.acquire = recording
        lm.acquire_many(1, [("knows", 9), ("knows", 10), ("knows", 2)], X)
        # repr-sorted: ('knows', 10) < ('knows', 2) < ('knows', 9)
        assert order == sorted(order, key=repr)
        assert len(order) == 3

    def test_acquire_many_conflicts_like_acquire(self):
        lm = LockManager()
        lm.acquire(2, "b", X)
        with pytest.raises(LockConflict):
            lm.acquire_many(1, ["a", "b"], X)

    def test_upgrade_blocked_by_other_reader(self):
        lm = LockManager()
        lm.acquire(1, "row", S)
        lm.acquire(2, "row", S)
        with pytest.raises(LockConflict):
            lm.acquire(1, "row", X)

    def test_release_all_frees_resources(self):
        lm = LockManager()
        lm.acquire(1, "a", X)
        lm.acquire(1, "b", S)
        assert lm.release_all(1) == 2
        assert lm.try_acquire(2, "a", X)
        assert lm.locks_held(1) == set()

    def test_deadlock_detected(self):
        lm = LockManager()
        lm.register_wait(1, {2})
        lm.register_wait(2, {3})
        with pytest.raises(DeadlockError) as info:
            lm.register_wait(3, {1})
        assert set(info.value.cycle) >= {1, 3}

    def test_self_wait_ignored(self):
        lm = LockManager()
        lm.register_wait(1, {1})  # no cycle, no crash

    def test_clear_wait(self):
        lm = LockManager()
        lm.register_wait(1, {2})
        lm.clear_wait(1)
        lm.register_wait(2, {1})  # would be a cycle if 1->2 remained

    def test_release_clears_incoming_waits(self):
        lm = LockManager()
        lm.register_wait(1, {2})
        lm.release_all(2)
        lm.register_wait(2, {1})  # 1 no longer waits on 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.sampled_from(["a", "b", "c"]),
                st.sampled_from([S, X]),
            ),
            max_size=40,
        )
    )
    def test_invariant_no_incompatible_holders(self, requests):
        lm = LockManager()
        for txn, res, mode in requests:
            lm.try_acquire(txn, res, mode)
            holders = lm.holders(res)
            modes = list(holders.values())
            if X in modes:
                assert len(holders) == 1


class TestTransactionManager:
    def test_begin_returns_active_txn(self):
        tm = TransactionManager()
        txn = tm.begin()
        assert isinstance(txn, Transaction)
        assert txn.state is TxnState.ACTIVE

    def test_txn_ids_increase(self):
        tm = TransactionManager()
        assert tm.begin().txn_id < tm.begin().txn_id

    def test_commit_releases_locks(self):
        tm = TransactionManager()
        txn = tm.begin()
        tm.locks.acquire(txn.txn_id, "row", X)
        txn.commit()
        assert txn.state is TxnState.COMMITTED
        assert tm.locks.try_acquire(999, "row", X)
        assert tm.committed == 1

    def test_abort_runs_undo_in_reverse(self):
        tm = TransactionManager()
        txn = tm.begin()
        trace = []
        txn.on_abort(lambda: trace.append("first"))
        txn.on_abort(lambda: trace.append("second"))
        txn.abort()
        assert trace == ["second", "first"]
        assert txn.state is TxnState.ABORTED
        assert tm.aborted == 1

    def test_commit_discards_undo(self):
        tm = TransactionManager()
        txn = tm.begin()
        trace = []
        txn.on_abort(lambda: trace.append("x"))
        txn.commit()
        assert trace == []

    def test_double_commit_rejected(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.commit()

    def test_abort_after_commit_rejected(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.abort()

    def test_on_abort_requires_active(self):
        tm = TransactionManager()
        txn = tm.begin()
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.on_abort(lambda: None)

    def test_commit_forces_wal(self):
        wal = WriteAheadLog()
        tm = TransactionManager(wal=wal)
        txn = tm.begin()
        wal.append(b"change")
        txn.commit()
        assert wal.fsync_count == 1
        assert wal.unsynced_records == 0


class _FsyncFails(dict):
    """Ledger counters that raise when a commit charges its fsync."""

    def __missing__(self, name):
        return 0.0

    def __setitem__(self, name, units):
        if name == "wal_fsync":
            raise OSError("injected fsync failure")
        super().__setitem__(name, units)


class TestFaultInsideCommit:
    """A fault while an autocommit statement commits propagates, and
    still releases the statement's locks: no caller is left to."""

    def _db(self):
        db = Database("row")
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v INT)")
        return db

    def _faulting(self):
        ledger = Ledger()
        ledger.counters = _FsyncFails()
        return metered(ledger)

    def test_autocommit_insert(self):
        db = self._db()
        with self._faulting(), pytest.raises(OSError):
            db.execute("INSERT INTO t VALUES (?, ?)", (1, 10))
        assert db.txns.locks.holders(("t", 1)) == {}
        assert db.txns.locks._locks == {}
        db.execute("INSERT INTO t VALUES (?, ?)", (2, 20))
        assert db.query("SELECT id FROM t ORDER BY id") == [(1,), (2,)]

    def test_autocommit_update(self):
        db = self._db()
        db.execute("INSERT INTO t VALUES (?, ?)", (1, 10))
        with self._faulting(), pytest.raises(OSError):
            db.execute("UPDATE t SET v = ? WHERE id = ?", (11, 1))
        assert db.txns.locks._locks == {}
        db.execute("UPDATE t SET v = ? WHERE id = ?", (12, 1))
        assert db.query("SELECT v FROM t") == [(12,)]
