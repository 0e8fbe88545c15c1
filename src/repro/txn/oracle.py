"""The MVCC timestamp oracle and snapshot read views.

Writers keep strict two-phase locking (:mod:`repro.txn.locks`); readers
get multi-version snapshots instead of locks.  The oracle hands out a
monotonically increasing logical timestamp: every committed write is
stamped with :meth:`TimestampOracle.advance`, and a reader's *snapshot*
is just the last stamp issued when the read began.  The visibility rule
(:mod:`repro.storage.mvcc`) is then one comparison — a record is visible
when its begin timestamp is at or below the snapshot and it was not
deleted at or before it.

Two usage shapes:

* **per-statement views** — every engine facade wraps each read-only
  statement in :func:`read_view`, so a statement sees one consistent
  snapshot and never takes a lock.  Nested views reuse the enclosing
  snapshot (a facade calling another facade, e.g. Sqlg over SQL).
* **held snapshots** — long-running readers (the GC regression surface,
  ``repro validate --mvcc``) take an explicit snapshot with
  :meth:`TimestampOracle.begin` and run under :func:`reading`; the
  active-snapshot set lower-bounds the garbage-collection watermark so
  their versions are never reclaimed from under them.

The module-level :data:`CURRENT` mirrors the sanitizer's
``runtime.TRACE`` global-hook pattern: stores consult it on their read
paths with a cheap ``is None`` check, so the machinery costs nothing
when no snapshot is active.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.simclock.ledger import charge

#: isolation levels every facade accepts
ISOLATION_LEVELS = ("snapshot", "read-committed")


def check_isolation_level(level: str) -> str:
    """Validate and return ``level`` (shared by every facade setter)."""
    if level not in ISOLATION_LEVELS:
        raise ValueError(
            f"unknown isolation level: {level!r} "
            f"(expected one of {ISOLATION_LEVELS})"
        )
    return level


@dataclass(frozen=True)
class Snapshot:
    """An immutable read view: everything stamped <= ``read_ts``."""

    read_ts: int


class TimestampOracle:
    """Issues write stamps and tracks the active snapshot set."""

    def __init__(self) -> None:
        self._last = 0
        #: read_ts -> number of active snapshots holding it
        self._active: dict[int, int] = {}

    # -- write side ---------------------------------------------------------

    def advance(self) -> int:
        """Allocate the stamp for one committed write."""
        self._last += 1
        return self._last

    def last(self) -> int:
        """The most recent stamp issued (the freshest possible view)."""
        return self._last

    # -- read side ----------------------------------------------------------

    def begin(self) -> Snapshot:
        """Open a snapshot at the current stamp."""
        charge("ts_alloc")
        snapshot = Snapshot(self._last)
        self._active[snapshot.read_ts] = (
            self._active.get(snapshot.read_ts, 0) + 1
        )
        return snapshot

    def release(self, snapshot: Snapshot) -> None:
        """Close a snapshot opened with :meth:`begin`."""
        count = self._active.get(snapshot.read_ts, 0)
        if count <= 1:
            self._active.pop(snapshot.read_ts, None)
        else:
            self._active[snapshot.read_ts] = count - 1

    def active_count(self) -> int:
        return sum(self._active.values())

    def oldest_active(self) -> int | None:
        """The smallest read_ts still held, or None when idle."""
        return min(self._active) if self._active else None

    def watermark(self) -> int:
        """Versions at or below this stamp are invisible to no one.

        With active snapshots this is the oldest held read timestamp
        (nothing an active reader might still need may be collected);
        idle, it is simply the latest stamp.
        """
        oldest = self.oldest_active()
        return self._last if oldest is None else oldest


#: the process-wide oracle (the simulation is single-process)
ORACLE = TimestampOracle()

#: the snapshot the current read runs under, or None (stores check this
#: on every read path; the common no-snapshot case is one ``is`` test)
CURRENT: Snapshot | None = None


def snapshots_active() -> bool:
    """Whether any snapshot is open (write paths stamp only if so)."""
    return bool(ORACLE._active)


def read_mode() -> str:
    """The protection mode recorded on traced read events.

    ``"snapshot"`` reads are immune to read/write races by construction
    (they never observe in-flight writes); bare ``""`` reads are race
    candidates for the QA601 lockset/happens-before analysis.
    """
    return "snapshot" if CURRENT is not None else ""


@contextmanager
def reading(snapshot: Snapshot) -> Iterator[Snapshot]:
    """Run the block's reads under an already-open snapshot."""
    global CURRENT
    previous = CURRENT
    CURRENT = snapshot
    try:
        yield snapshot
    finally:
        CURRENT = previous


@contextmanager
def held_snapshot() -> Iterator[Snapshot]:
    """Hold one snapshot across many statements (a long-running reader).

    While the block runs, every facade-level :func:`read_view` nests
    inside this snapshot, and the GC watermark cannot pass it.
    """
    snapshot = ORACLE.begin()
    try:
        with reading(snapshot):
            yield snapshot
    finally:
        ORACLE.release(snapshot)


@contextmanager
def read_view(level: str = "snapshot") -> Iterator[Snapshot | None]:
    """A per-statement read view at the facade's isolation level.

    Under ``"snapshot"`` this opens a snapshot for the statement (unless
    one is already active — nested facades share the outer view).  Under
    ``"read-committed"`` reads simply observe the latest committed
    state: no snapshot, no locks — the fallback level trades repeatable
    reads for zero versioning overhead.
    """
    if CURRENT is not None or level != "snapshot":
        yield CURRENT
        return
    snapshot = ORACLE.begin()
    try:
        with reading(snapshot):
            yield snapshot
    finally:
        ORACLE.release(snapshot)
