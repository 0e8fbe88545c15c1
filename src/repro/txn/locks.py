"""Two-phase locking: shared/exclusive locks with deadlock detection."""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterable
from typing import Hashable

from repro.sanitizer import runtime
from repro.simclock.ledger import charge


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible_with(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class LockConflict(Exception):
    """Raised when a lock cannot be granted immediately.

    Carries the conflicting holders so the simulation harness can decide how
    long the requester waits (or whether to abort it).
    """

    def __init__(self, resource: Hashable, holders: set[int]) -> None:
        super().__init__(f"lock conflict on {resource!r}; held by {holders}")
        self.resource = resource
        self.holders = holders


class DeadlockError(Exception):
    """Raised when a requested wait would close a cycle of waiters."""

    def __init__(self, cycle: list[int]) -> None:
        super().__init__(f"deadlock among transactions {cycle}")
        self.cycle = cycle


class _LockState:
    __slots__ = ("holders",)

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}


class LockManager:
    """Grants S/X locks to transaction ids; strict two-phase discipline."""

    def __init__(self) -> None:
        self._locks: dict[Hashable, _LockState] = {}
        #: txn -> its resources in acquisition order (a dict, not a set:
        #: release order must not follow the process's hash seed)
        self._held_by_txn: dict[int, dict[Hashable, None]] = defaultdict(
            dict
        )
        self._waits_for: dict[int, set[int]] = defaultdict(set)

    # -- acquisition --------------------------------------------------------

    def acquire(self, txn_id: int, resource: Hashable, mode: LockMode) -> None:
        """Grant the lock or raise :class:`LockConflict`.

        Re-acquiring an already-held lock is a no-op; a SHARED holder asking
        for EXCLUSIVE is upgraded when no other holder exists.
        """
        charge("lock_acquire")
        state = self._locks.get(resource)
        if state is None:
            # unheld: granted outright
            state = self._locks[resource] = _LockState()
        else:
            held = state.holders.get(txn_id)
            if held is LockMode.EXCLUSIVE or held is mode:
                return
            others = {t for t in state.holders if t != txn_id}
            if held is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
                if others:
                    raise LockConflict(resource, others)
                state.holders[txn_id] = LockMode.EXCLUSIVE
                return
            if others and not all(
                mode.compatible_with(state.holders[t]) for t in others
            ):
                raise LockConflict(resource, others)
        state.holders[txn_id] = mode
        self._held_by_txn[txn_id][resource] = None
        if runtime.TRACE is not None:
            runtime.TRACE.lock_acquired(txn_id, resource, mode.value)

    def acquire_many(
        self, txn_id: int, resources: Iterable[Hashable], mode: LockMode
    ) -> None:
        """Acquire several locks in one global sorted order.

        Every multi-resource caller sorting the same way cannot deadlock
        against another such caller: both request locks along the same
        total order.  ``repr`` gives that order for arbitrary (possibly
        mixed-type) resource keys; duplicates collapse to one acquire.
        """
        unique = {repr(resource): resource for resource in resources}
        for key in sorted(unique):
            self.acquire(txn_id, unique[key], mode)

    def try_acquire(
        self, txn_id: int, resource: Hashable, mode: LockMode
    ) -> bool:
        """Like :meth:`acquire` but returns ``False`` instead of raising."""
        try:
            self.acquire(txn_id, resource, mode)
            return True
        except LockConflict:
            return False

    # -- release ---------------------------------------------------------------

    def release_all(self, txn_id: int) -> int:
        """Drop every lock held by ``txn_id``; returns how many."""
        resources = self._held_by_txn.pop(txn_id, {})
        for resource in resources:
            state = self._locks.get(resource)
            if state is not None:
                state.holders.pop(txn_id, None)
                if not state.holders:
                    del self._locks[resource]
            if runtime.TRACE is not None:
                runtime.TRACE.lock_released(txn_id, resource)
        if self._waits_for:
            self._waits_for.pop(txn_id, None)
            for waiters in self._waits_for.values():
                waiters.discard(txn_id)
        return len(resources)

    # -- introspection -----------------------------------------------------------

    def holders(self, resource: Hashable) -> dict[int, LockMode]:
        state = self._locks.get(resource)
        return dict(state.holders) if state else {}

    def locks_held(self, txn_id: int) -> set[Hashable]:
        return set(self._held_by_txn.get(txn_id, ()))

    # -- deadlock detection --------------------------------------------------------

    def register_wait(self, waiter: int, blockers: set[int]) -> None:
        """Record that ``waiter`` waits on ``blockers``; detect cycles.

        Raises :class:`DeadlockError` (leaving the graph unchanged) when the
        new edges would close a cycle.
        """
        new_edges = set(blockers) - {waiter}
        for blocker in new_edges:
            cycle = self._path(blocker, waiter)
            if cycle is not None:
                raise DeadlockError([waiter, *cycle])
        self._waits_for[waiter] |= new_edges

    def clear_wait(self, waiter: int) -> None:
        self._waits_for.pop(waiter, None)

    def _path(self, source: int, target: int) -> list[int] | None:
        """DFS path source -> target in the wait-for graph, if any."""
        stack: list[tuple[int, list[int]]] = [(source, [source])]
        seen = set()
        while stack:
            node, path = stack.pop()
            if node == target:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in self._waits_for.get(node, ()):
                stack.append((nxt, path + [nxt]))
        return None
