"""Heap files: unordered collections of variable-length records.

A heap file owns a list of slotted pages in a buffer pool and keeps a
simple in-memory free-space map (page id -> bytes free), mirroring
PostgreSQL's FSM.  Records are addressed by a :data:`RID`, which stays
stable across in-place updates.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.simclock.ledger import charge
from repro.storage.buffer import BufferPool
from repro.storage.pages import PAGE_SIZE, SlottedPage

#: a record identifier, the record's physical position: its page id and
#: slot number packed into one int, ``page_id << SLOT_BITS | slot``.  It
#: sorts as the ``(page_id, slot)`` pair does, and takes one int object
#: where a named tuple took three.
RID = int
#: a slot number's width (an 8 KiB page holds under 2,048 slots)
SLOT_BITS = 16
_SLOT_MASK = (1 << SLOT_BITS) - 1


class HeapFile:
    """A bag of records with insert/fetch/update/delete/scan."""

    def __init__(self, pool: BufferPool, name: str = "heap") -> None:
        self.pool = pool
        self.name = name
        self.page_ids: list[int] = []
        self._free_space: dict[int, int] = {}
        # pages recently seen with free room; checked newest-first so the
        # common insert path is O(1) instead of scanning the whole file
        self._candidates: list[int] = []
        self.record_count = 0

    # -- write path -------------------------------------------------------------

    def insert(self, record: bytes) -> RID:
        if len(record) > PAGE_SIZE - 64:
            raise ValueError(
                f"record of {len(record)} bytes exceeds page capacity"
            )
        page_id = self._find_page_with_space(len(record))
        page = self.pool.get_page(page_id)
        slot = page.insert(record)
        self.pool.mark_dirty(page_id)
        self._free_space[page_id] = page.free_space()
        self.record_count += 1
        charge("tuple_cpu")
        return page_id << SLOT_BITS | slot

    def update(self, rid: RID, record: bytes) -> RID:
        """Update a record; returns its (possibly new) RID."""
        page_id = rid >> SLOT_BITS
        page = self.pool.get_page(page_id)
        if page.update_in_place(rid & _SLOT_MASK, record):
            self.pool.mark_dirty(page_id)
            charge("tuple_cpu")
            return rid
        # record grew: delete + reinsert elsewhere
        self._delete(page_id, page, rid & _SLOT_MASK)
        return self.insert(record)

    def delete(self, rid: RID) -> None:
        page_id = rid >> SLOT_BITS
        self._delete(page_id, self.pool.get_page(page_id), rid & _SLOT_MASK)
        charge("tuple_cpu")

    def _delete(self, page_id: int, page: SlottedPage, slot: int) -> None:
        page.delete(slot)
        self.pool.mark_dirty(page_id)
        self._free_space[page_id] = page.free_space()
        self.record_count -= 1

    # -- read path ---------------------------------------------------------------

    def touch(self, rid: RID) -> bytearray:
        """The storage calls of one fetch: the page access and its
        ``tuple_cpu``; returns the page frame."""
        frame = self.pool.get(rid >> SLOT_BITS)
        charge("tuple_cpu")
        return frame

    def fetch(self, rid: RID) -> bytes:
        return SlottedPage(self.touch(rid)).read(rid & _SLOT_MASK)

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        """Full scan in physical order."""
        for page_id in self.page_ids:
            page = self.pool.get_page(page_id)
            for slot, record in page.records():
                charge("tuple_cpu")
                yield page_id << SLOT_BITS | slot, record

    # -- bookkeeping -----------------------------------------------------------

    def _find_page_with_space(self, needed: int) -> int:
        for page_id in reversed(self._candidates[-4:]):
            if self._free_space.get(page_id, 0) >= needed:
                return page_id
        page_id, page = self.pool.new_page()
        self.page_ids.append(page_id)
        self._free_space[page_id] = page.free_space()
        self._candidates.append(page_id)
        if len(self._candidates) > 16:
            self._candidates = self._candidates[-8:]
        return page_id

    @property
    def page_count(self) -> int:
        return len(self.page_ids)

    def size_bytes(self) -> int:
        return self.page_count * PAGE_SIZE
