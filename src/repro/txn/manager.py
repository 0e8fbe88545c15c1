"""Transaction lifecycle: begin / commit / abort with undo logging."""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.sanitizer import runtime
from repro.simclock.ledger import charge
from repro.storage.wal import WriteAheadLog
from repro.txn.locks import LockManager


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work.  Engines append undo actions as they modify state."""

    def __init__(self, txn_id: int, manager: "TransactionManager") -> None:
        self.txn_id = txn_id
        self._manager = manager
        self.state = TxnState.ACTIVE
        self._undo: list[Callable[[], None]] = []

    def on_abort(self, undo: Callable[[], None]) -> None:
        """Register an action that reverses a modification on abort."""
        self._require_active()
        self._undo.append(undo)

    def commit(self) -> None:
        self._manager.commit(self)

    def abort(self) -> None:
        self._manager.abort(self)

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise RuntimeError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction({self.txn_id}, {self.state.value})"


class TransactionManager:
    """Creates transactions and drives commit/abort protocol.

    When constructed with a WAL, commit forces the log (the ``wal_fsync``
    charge is the dominant per-update durability cost in the Figure 3
    experiment); engines without one (e.g. the Cassandra-backed store)
    pass ``wal=None``.
    """

    def __init__(
        self,
        locks: LockManager | None = None,
        wal: WriteAheadLog | None = None,
    ) -> None:
        self.locks = locks or LockManager()
        self.wal = wal
        self._next_txn_id = 1
        self.committed = 0
        self.aborted = 0

    def begin(self) -> Transaction:
        charge("txn_begin")
        txn = Transaction(self._next_txn_id, self)
        self._next_txn_id += 1
        if runtime.TRACE is not None:
            runtime.TRACE.txn_begin(txn.txn_id)
        return txn

    def commit(self, txn: Transaction) -> None:
        txn._require_active()
        try:
            charge("txn_commit")
            if self.wal is not None:
                self.wal.commit()
            txn.state = TxnState.COMMITTED
            txn._undo.clear()
            if runtime.TRACE is not None:
                runtime.TRACE.txn_commit(txn.txn_id)
        finally:
            # a fault inside commit propagates, but must not leave the
            # statement's locks held: nothing else would release them
            self.locks.release_all(txn.txn_id)
        self.committed += 1

    def abort(self, txn: Transaction) -> None:
        txn._require_active()
        for undo in reversed(txn._undo):
            undo()
        txn.state = TxnState.ABORTED
        txn._undo.clear()
        if runtime.TRACE is not None:
            runtime.TRACE.txn_abort(txn.txn_id)
        self.locks.release_all(txn.txn_id)
        self.aborted += 1
