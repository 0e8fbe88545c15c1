"""Embedded ordered key-value store (the BerkeleyDB-like Titan backend).

A thin transactional shell over a B+tree of byte keys.  Every operation
charges ``bdb_page`` per tree level (BerkeleyDB touches real pages on each
access, unlike the cached in-heap indexes of the server engines).

Concurrency model: BerkeleyDB's page-level locking degrades to near-serial
execution under concurrent writers.  The store exposes
:attr:`serializes_writers` so the discrete-event harness wraps every write
in a single-capacity resource — this is the mechanism behind Titan-B's
collapse under concurrent load in the paper (Section 4.3, Appendix A).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.simclock.ledger import charge
from repro.storage.btree import BPlusTree


class BDBStore:
    """Ordered byte KV store with duplicate-free keys."""

    #: the DES harness must serialize writers through a single latch
    serializes_writers = True

    def __init__(self, name: str = "bdb") -> None:
        self.name = name
        self._tree = BPlusTree(order=64, unique=False, name=name)
        self._size_bytes = 0

    def __len__(self) -> int:
        return len(self._tree)

    def _charge_pages(self) -> None:
        charge("bdb_page", self._tree.height())

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("BDB keys and values must be bytes")
        self._charge_pages()
        charge("wal_append")
        existing = self._tree.search_or_insert(key, value)
        if existing:
            # an overwrite: the old entry goes, the new one goes in
            self._tree.delete(key)
            self._size_bytes -= len(key) + len(existing[0])
            self._tree.insert(key, value)
        self._size_bytes += len(key) + len(value)

    def get(self, key: bytes) -> bytes | None:
        self._charge_pages()
        values = self._tree.search(key)
        return values[0] if values else None

    def delete(self, key: bytes) -> bool:
        self._charge_pages()
        existing = self._tree.search(key)
        if not existing:
            return False
        self._tree.delete(key)
        self._size_bytes -= len(key) + len(existing[0])
        return True

    def range_scan(
        self, lo: bytes, hi_exclusive: bytes
    ) -> Iterator[tuple[bytes, bytes]]:
        """Keys in ``[lo, hi_exclusive)`` in order.

        Cursor walks touch pages as they go: one ``bdb_page`` charge per
        couple of entries on top of the initial descent.
        """
        self._charge_pages()
        for i, (key, value) in enumerate(
            self._tree.range_scan(lo, hi_exclusive, hi_inclusive=False)
        ):
            if i % 2 == 0:
                charge("bdb_page")
            yield key, value

    def size_bytes(self) -> int:
        return self._size_bytes
