"""Statistics-bearing caches shared by every engine.

Two shapes, both built on one size-bounded O(1) LRU:

* :class:`LRUCache` — the base map with ``hits`` / ``misses`` /
  ``evictions`` / ``invalidations`` counters (the buffer pool's
  bookkeeping, generalized to arbitrary keys and values).
* :class:`EpochKeyedCache` — entries are stamped with the owner's
  *statistics/schema epoch*; a lookup against a stale stamp misses, so
  bumping the epoch invalidates everything at once without touching the
  entries (the SQL plan cache's protocol, now shared by all dialects).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CacheStats:
    """One cache's counters, as reported by the engine facades."""

    name: str
    size: int
    capacity: int
    hits: int
    misses: int
    evictions: int
    invalidations: int


_MISSING = object()


class LRUCache:
    """Size-bounded LRU map with hit/miss/eviction/invalidation counters.

    All operations are O(1); eviction drops the least recently *used*
    entry, exactly like the buffer pool's frame table.
    """

    def __init__(self, capacity: int = 1024, *, name: str = "lru") -> None:
        if capacity < 1:
            raise ValueError("cache needs capacity >= 1")
        self.name = name
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __getitem__(self, key: Hashable) -> Any:
        return self._entries[key]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, dict):
            return dict(self._entries) == other
        if isinstance(other, LRUCache):
            return dict(self._entries) == dict(other._entries)
        return NotImplemented

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (counting a hit) or ``default``."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching any counter or order."""
        return self._entries.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        if key in self._entries:
            del self._entries[key]
            self.invalidations += 1
            return True
        return False

    def invalidate_all(self) -> int:
        """Drop every entry; returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name,
            size=len(self._entries),
            capacity=self.capacity,
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            invalidations=self.invalidations,
        )


class EpochKeyedCache:
    """An LRU whose entries are only valid for the current epoch.

    The owner bumps :attr:`epoch` whenever the derived state the entries
    were computed from changes wholesale (DDL, ANALYZE, planner
    reconfiguration); a lookup whose stamp disagrees with the current
    epoch counts as a miss and the caller recomputes.  The mapping
    protocol (``in`` / ``[]`` / ``== {}``) exposes ``(epoch, value)``
    pairs for introspection and tests.
    """

    def __init__(self, capacity: int = 1024, *, name: str = "plans") -> None:
        self._lru = LRUCache(capacity, name=name)
        self.epoch = 0

    # -- mapping-style introspection (entries are (epoch, value)) ---------

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._lru

    def __getitem__(self, key: Hashable) -> tuple[int, Any]:
        return self._lru[key]

    def __eq__(self, other: object) -> bool:
        return self._lru == other

    def get(self, key: Hashable) -> tuple[int, Any] | None:
        """Raw ``(epoch, value)`` entry without epoch filtering."""
        entry = self._lru.peek(key)
        return entry  # type: ignore[no-any-return]

    # -- the epoch-checked protocol ---------------------------------------

    def lookup(self, key: Hashable) -> Any:
        """The cached value, or ``None`` on a miss or a stale stamp."""
        entry = self._lru.get(key)
        if entry is None:
            return None
        stamp, value = entry
        if stamp != self.epoch:
            self._lru.misses += 1
            self._lru.hits -= 1  # the raw get over-counted
            self._lru.invalidate(key)
            return None
        return value

    def store(self, key: Hashable, value: Any) -> None:
        self._lru.put(key, (self.epoch, value))

    def bump_epoch(self) -> int:
        """Invalidate everything at once; returns the new epoch."""
        self.epoch += 1
        self._lru.invalidate_all()
        return self.epoch

    def clear(self) -> int:
        return self._lru.invalidate_all()

    def stats(self) -> CacheStats:
        return self._lru.stats()
