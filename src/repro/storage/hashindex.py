"""Equality-only hash index (PostgreSQL hash / in-memory vertex-id index).

The paper's setup builds indexes on vertex IDs in every system "to prevent
expensive linear scans on initial vertex look-ups"; this is that index for
the relational engines.  Probes charge ``hash_probe``; inserts charge
``index_insert``.  A bucket holds a key's lone value bare, as the B+tree's
leaf slots do.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.simclock.ledger import charge
from repro.storage.btree import _EMPTY, _discard, _Dups


class HashIndex:
    """Maps keys to one or more values with O(1) equality probes."""

    def __init__(self, unique: bool = False, name: str = "") -> None:
        self.unique = unique
        self.name = name
        self._buckets: dict[Any, Any] = {}  # key -> value or _Dups
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, key: Any, value: Any) -> None:
        charge("index_insert")
        slot = self._buckets.get(key, _EMPTY)
        if slot is _EMPTY:
            self._buckets[key] = value
        elif self.unique:
            raise KeyError(f"duplicate key in unique index: {key!r}")
        elif type(slot) is _Dups:
            slot.append(value)
        else:
            self._buckets[key] = _Dups((slot, value))
        self._count += 1

    def search(self, key: Any) -> list[Any]:
        charge("hash_probe")
        slot = self._buckets.get(key, _EMPTY)
        if slot is _EMPTY:
            return []
        return list(slot) if type(slot) is _Dups else [slot]

    def delete(self, key: Any, value: Any = None) -> int:
        charge("hash_probe")
        slot = self._buckets.get(key, _EMPTY)
        if slot is _EMPTY:
            return 0
        removed, rest = _discard(slot, value)
        if rest is _EMPTY:
            del self._buckets[key]
        else:
            self._buckets[key] = rest
        self._count -= removed
        return removed

    def distinct_keys(self) -> int:
        """Distinct key count (statistics collection; no probe charge)."""
        return len(self._buckets)

    def items(self) -> Iterator[tuple[Any, Any]]:
        for key, slot in self._buckets.items():
            if type(slot) is _Dups:
                for value in slot:
                    yield key, value
            else:
                yield key, slot
