"""Write-ahead log and checkpointing.

Engines append logical records per modification (``wal_append``) and pay an
``wal_fsync`` at commit.  The log is one append-only byte buffer plus an
array of record end offsets, as a log file is one byte stream: a record
costs its own bytes and eight more, not a Python ``bytes`` object of its
own, and a record's LSN is its 1-based ordinal.  The layout is host
memory only; the simulated cost is one ``wal_append`` per record and one
``wal_fsync`` per commit, whatever the record's size.

The :class:`Checkpointer` flushes dirty buffer pages; the Neo4j-like
engine runs one periodically, and the Figure 3 harness converts each
checkpoint's page count into a write-stall window — reproducing the
paper's observation that "Neo4j's update performance suffers from sudden
drops due to checkpointing".
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from contextlib import contextmanager

from repro.simclock.ledger import charge
from repro.storage.buffer import BufferPool


class WriteAheadLog:
    """An append-only log of opaque records with group commit."""

    def __init__(self, name: str = "wal") -> None:
        self.name = name
        self._log = bytearray()
        # _ends[i] is where record i + 1 (its LSN) ends in _log
        self._ends = array("Q")
        self.fsync_count = 0
        self._last_synced_lsn = 0
        self._deferring = False

    def append(self, record: bytes) -> int:
        """Append one record; returns its LSN (1-based)."""
        charge("wal_append")
        self._log += record
        self._ends.append(len(self._log))
        return len(self._ends)

    def commit(self) -> None:
        """Make everything appended so far durable (one fsync).

        Inside a :meth:`group` block the fsync is deferred: the batch
        becomes durable as a unit when the block exits.
        """
        if self._deferring:
            return
        if self._last_synced_lsn < len(self._ends):
            charge("wal_fsync")
            self.fsync_count += 1
            self._last_synced_lsn = len(self._ends)

    @contextmanager
    def group(self) -> Iterator[None]:
        """Defer intermediate commits: one fsync for the whole batch.

        This is the group-commit half of the batched write pipeline —
        the interactive writer applies a poll's worth of update events
        under one ``group()`` so the batch costs a single ``wal_fsync``
        instead of one per event.  Nested groups join the outermost.
        """
        if self._deferring:
            yield
            return
        self._deferring = True
        try:
            yield
        finally:
            self._deferring = False
            self.commit()

    @property
    def last_lsn(self) -> int:
        return len(self._ends)

    @property
    def unsynced_records(self) -> int:
        return len(self._ends) - self._last_synced_lsn

    def records_since(self, lsn: int) -> list[bytes]:
        """Records after ``lsn`` (for recovery tests)."""
        return self._slice(range(len(self._ends))[lsn:])

    def durable_records(self) -> list[bytes]:
        """Records made durable by a commit — what recovery may replay.

        Appended-but-unsynced records are lost in a crash, exactly as on
        a real system without the final fsync.
        """
        return self._slice(range(self._last_synced_lsn))

    def _slice(self, lsns: range) -> list[bytes]:
        """The records at 0-based positions ``lsns`` (a step-1 range)."""
        log, ends = self._log, self._ends
        start = ends[lsns.start - 1] if lsns.start else 0
        records = []
        for end in ends[lsns.start : lsns.stop]:
            records.append(bytes(log[start:end]))
            start = end
        return records


class Checkpointer:
    """Flushes dirty pages and truncates the log's recovery window."""

    def __init__(self, pool: BufferPool, wal: WriteAheadLog) -> None:
        self.pool = pool
        self.wal = wal
        self.checkpoint_count = 0
        self.last_checkpoint_lsn = 0
        self.last_pages_flushed = 0

    def checkpoint(self) -> int:
        """Flush all dirty pages; returns the number flushed."""
        self.wal.commit()
        flushed = self.pool.flush_all()
        self.checkpoint_count += 1
        self.last_checkpoint_lsn = self.wal.last_lsn
        self.last_pages_flushed = flushed
        return flushed
