"""Disk manager and LRU buffer pool.

The :class:`DiskManager` is the "disk": a map from page id to immutable page
images.  Reading from it charges ``page_read``; writing charges
``page_write``.  The :class:`BufferPool` keeps hot pages in memory (charging
``buffer_hit``) and writes dirty pages back on eviction or flush.

The paper configures every system to hold the whole dataset in RAM, so the
benchmark harness sizes pools generously; the miss path still exists and is
exercised by tests and by the loading experiments.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.simclock.ledger import charge
from repro.storage.pages import PAGE_SIZE, SlottedPage

#: the image of every allocated, never-written page: immutable, so all
#: such pages share it, and :meth:`BufferPool.get` copies it into a frame
_ZERO_PAGE = bytes(PAGE_SIZE)


class DiskManager:
    """Page-granular persistent storage (simulated)."""

    def __init__(self) -> None:
        self._pages: dict[int, bytes] = {}
        self._next_page_id = 0

    def allocate(self) -> int:
        """Allocate a fresh zeroed page; returns its page id."""
        page_id = self._next_page_id
        self._next_page_id += 1
        self._pages[page_id] = _ZERO_PAGE
        return page_id

    def read(self, page_id: int) -> bytes:
        charge("page_read")
        return self._pages[page_id]

    def write(self, page_id: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError("page image must be PAGE_SIZE bytes")
        charge("page_write")
        self._pages[page_id] = bytes(data)

    @property
    def page_count(self) -> int:
        return self._next_page_id

    def size_bytes(self) -> int:
        return self.page_count * PAGE_SIZE


class BufferPool:
    """LRU cache of mutable page frames over a :class:`DiskManager`."""

    def __init__(self, disk: DiskManager, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self._frames: OrderedDict[int, bytearray] = OrderedDict()
        self._dirty: set[int] = set()
        self.hits = 0
        self.misses = 0

    def get(self, page_id: int) -> bytearray:
        """Return the in-memory frame for ``page_id`` (loading if needed)."""
        frame = self._frames.get(page_id)
        if frame is not None:
            charge("buffer_hit")
            self.hits += 1
            self._frames.move_to_end(page_id)
            return frame
        self.misses += 1
        frame = bytearray(self.disk.read(page_id))
        self._frames[page_id] = frame
        if len(self._frames) > self.capacity:
            self._evict_one()
        return frame

    def get_page(self, page_id: int) -> SlottedPage:
        """Convenience: wrap the frame as a :class:`SlottedPage`."""
        return SlottedPage(self.get(page_id))

    def new_page(self) -> tuple[int, SlottedPage]:
        """Allocate a page on disk and return it as an empty slotted page."""
        page_id = self.disk.allocate()
        frame = bytearray(PAGE_SIZE)
        page = SlottedPage(frame)  # writes empty header
        charge("buffer_hit")
        self._frames[page_id] = frame
        self._dirty.add(page_id)
        if len(self._frames) > self.capacity:
            self._evict_one()
        return page_id, page

    def mark_dirty(self, page_id: int) -> None:
        if page_id not in self._frames:
            raise KeyError(f"page {page_id} is not resident")
        self._dirty.add(page_id)

    def dirty_count(self) -> int:
        return len(self._dirty)

    def flush(self, page_id: int) -> None:
        """Write one dirty page back to disk."""
        if page_id in self._dirty:
            self.disk.write(page_id, bytes(self._frames[page_id]))
            self._dirty.discard(page_id)

    def flush_all(self) -> int:
        """Write all dirty pages back; returns how many were flushed."""
        flushed = 0
        for page_id in sorted(self._dirty):
            self.disk.write(page_id, bytes(self._frames[page_id]))
            flushed += 1
        self._dirty.clear()
        return flushed

    def _evict_one(self) -> None:
        # evict the least recently used frame that is not the newest insert
        victim_id, frame = self._frames.popitem(last=False)
        if victim_id in self._dirty:
            self.disk.write(victim_id, bytes(frame))
            self._dirty.discard(victim_id)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
