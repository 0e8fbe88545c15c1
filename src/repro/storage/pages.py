"""Byte-level slotted pages.

Layout (little-endian)::

    +-------------------+----------------------+ ... +------------------+
    | header (4 bytes)  | slot directory       | gap | record data      |
    | n_slots, data_ptr | (offset u16, len u16)|     | grows downward   |
    +-------------------+----------------------+ ... +------------------+

A slot with length 0 is a tombstone; its slot number is never reused so
record IDs stay stable (mirroring PostgreSQL line pointers before vacuum).
"""

from __future__ import annotations

import struct

PAGE_SIZE = 8192

_HEADER = struct.Struct("<HH")  # n_slots, data_ptr
_SLOT = struct.Struct("<HH")  # offset, length


class PageFullError(Exception):
    """Raised when a record does not fit into the remaining free space."""


class SlottedPage:
    """A mutable slotted page over a ``bytearray`` of :data:`PAGE_SIZE`."""

    def __init__(self, buf: bytearray | None = None) -> None:
        if buf is None:
            buf = bytearray(PAGE_SIZE)
        if len(buf) != PAGE_SIZE:
            raise ValueError(f"page buffer must be {PAGE_SIZE} bytes")
        self.buf = buf
        # a freshly zeroed frame has data_ptr == 0, which no real page can
        # have: stamp the empty-page header
        if _HEADER.unpack_from(buf, 0)[1] == 0:
            _HEADER.pack_into(buf, 0, 0, PAGE_SIZE)

    # -- header access --------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return _HEADER.unpack_from(self.buf, 0)[0]

    def _slot(self, slot_no: int) -> tuple[int, int]:
        if not 0 <= slot_no < self.n_slots:
            raise IndexError(f"slot {slot_no} out of range (n={self.n_slots})")
        return _SLOT.unpack_from(self.buf, _HEADER.size + slot_no * _SLOT.size)

    def _set_slot(self, slot_no: int, offset: int, length: int) -> None:
        _SLOT.pack_into(
            self.buf, _HEADER.size + slot_no * _SLOT.size, offset, length
        )

    # -- capacity -----------------------------------------------------------

    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        n_slots, data_ptr = _HEADER.unpack_from(self.buf, 0)
        return max(0, data_ptr - _HEADER.size - (n_slots + 1) * _SLOT.size)

    def fits(self, record: bytes) -> bool:
        return len(record) <= self.free_space()

    # -- record operations ------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert ``record``; returns its slot number."""
        size = len(record)
        if size == 0:
            raise ValueError("empty records are not supported")
        buf = self.buf
        n_slots, data_ptr = _HEADER.unpack_from(buf, 0)
        slot_at = _HEADER.size + n_slots * _SLOT.size
        free = max(0, data_ptr - slot_at - _SLOT.size)
        if size > free:
            raise PageFullError(
                f"record of {size} bytes does not fit ({free} free)"
            )
        offset = data_ptr - size
        buf[offset:data_ptr] = record
        _HEADER.pack_into(buf, 0, n_slots + 1, offset)
        _SLOT.pack_into(buf, slot_at, offset, size)
        return n_slots

    def read(self, slot_no: int) -> bytes:
        """Read the record in ``slot_no``; raises ``KeyError`` if deleted."""
        offset, length = self._slot(slot_no)
        if length == 0:
            raise KeyError(f"slot {slot_no} is deleted")
        return bytes(self.buf[offset : offset + length])

    def delete(self, slot_no: int) -> None:
        """Tombstone ``slot_no``; the space is not reclaimed (no compaction)."""
        self._slot(slot_no)  # bounds check
        self._set_slot(slot_no, 0, 0)

    def update_in_place(self, slot_no: int, record: bytes) -> bool:
        """Overwrite ``slot_no`` if the new record is not larger.

        Returns ``False`` (leaving the page unchanged) when the record has
        grown; the caller must then relocate it.
        """
        offset, length = self._slot(slot_no)
        if length == 0:
            raise KeyError(f"slot {slot_no} is deleted")
        if len(record) > length:
            return False
        self.buf[offset : offset + len(record)] = record
        self._set_slot(slot_no, offset, len(record))
        return True

    def records(self) -> list[tuple[int, bytes]]:
        """All live ``(slot_no, record)`` pairs."""
        out = []
        for slot_no in range(self.n_slots):
            offset, length = self._slot(slot_no)
            if length:
                out.append((slot_no, bytes(self.buf[offset : offset + length])))
        return out

    def live_count(self) -> int:
        return sum(1 for s in range(self.n_slots) if self._slot(s)[1])
