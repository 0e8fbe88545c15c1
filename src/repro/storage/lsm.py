"""Log-structured merge tree (the Cassandra-like storage backend).

Writes go to a memtable and are cheap and lock-free — this is why Titan-C
is the only system whose ingestion *scales* with concurrent loaders in the
paper's Appendix A.  Reads pay for it: a point lookup may probe several
SSTables (bloom filters shortcut most), which is the mechanism behind
Titan-C's slow point lookups in Tables 2–3.

Keys and values are ``bytes``.  Deletes write tombstones; size-tiered
compaction merges all SSTables once their count exceeds a threshold.

Two host-side structures keep the Python work proportional to what an
operation touches; neither changes a charge.  The memtable keeps its
keys in order once a range scan has asked for them, so a scan bisects
to its range instead of walking the whole memtable (a Cassandra memtable
is a sorted skip list for the same reason).  A bloom filter's bits live
in a ``bytearray``, so building an SSTable's filter is linear in its
size.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, insort
from collections.abc import Iterator

from repro.simclock.ledger import charge

_TOMBSTONE = object()


class BloomFilter:
    """k-hash bloom filter using double hashing (two CRC32 evaluations
    derive all k probe positions — the standard Kirsch-Mitzenmacher
    construction, and much cheaper than k independent hashes)."""

    def __init__(self, expected_items: int, bits_per_item: int = 10) -> None:
        self.size = max(64, expected_items * bits_per_item)
        self.num_hashes = 5
        # position ``pos`` is bit ``pos & 7`` of byte ``pos >> 3``; a
        # mutable buffer, because ``|=`` on an int copies the whole filter
        self._bits = bytearray((self.size + 7) // 8)

    def _positions(self, key: bytes) -> Iterator[int]:
        h1 = zlib.crc32(key)
        h2 = zlib.crc32(key, 0x9E3779B9) | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.size

    def add(self, key: bytes) -> None:
        bits = self._bits
        for pos in self._positions(key):
            bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, key: bytes) -> bool:
        charge("lsm_bloom_check")
        bits = self._bits
        return all(
            bits[pos >> 3] >> (pos & 7) & 1 for pos in self._positions(key)
        )


class SSTable:
    """An immutable sorted run of ``(key, value_or_tombstone)`` entries."""

    def __init__(self, entries: list[tuple[bytes, object]]) -> None:
        # entries must arrive sorted by key, unique keys
        self.keys = [k for k, _ in entries]
        self.values = [v for _, v in entries]
        self.bloom = BloomFilter(len(entries) or 1)
        for key in self.keys:
            self.bloom.add(key)

    def __len__(self) -> int:
        return len(self.keys)

    def get(self, key: bytes) -> object | None:
        """Value, ``_TOMBSTONE``, or ``None`` when absent."""
        if not self.bloom.might_contain(key):
            return None
        charge("lsm_sstable_probe")
        idx = bisect_left(self.keys, key)
        if idx < len(self.keys) and self.keys[idx] == key:
            return self.values[idx]
        return None

    def range_from(self, lo: bytes) -> Iterator[tuple[bytes, object]]:
        charge("lsm_sstable_probe")
        idx = bisect_left(self.keys, lo)
        while idx < len(self.keys):
            yield self.keys[idx], self.values[idx]
            idx += 1

    def size_bytes(self) -> int:
        return sum(
            len(k) + (len(v) if isinstance(v, bytes) else 1)
            for k, v in zip(self.keys, self.values)
        )


class LSMTree:
    """Memtable + SSTables with size-tiered compaction."""

    def __init__(
        self,
        memtable_limit: int = 4096,
        max_sstables: int = 6,
        name: str = "lsm",
    ) -> None:
        self.name = name
        self.memtable_limit = memtable_limit
        self.max_sstables = max_sstables
        self._memtable: dict[bytes, object] = {}
        # the memtable's keys in order, built by the first range scan
        # after a flush and kept sorted by the writes from then on
        # (None until then, so loads that never scan never pay for it)
        self._memkeys: list[bytes] | None = None
        self._sstables: list[SSTable] = []  # newest first
        self.flush_count = 0
        self.compaction_count = 0

    # -- write path --------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("LSM keys and values must be bytes")
        self._write(key, value)

    def delete(self, key: bytes) -> None:
        self._write(key, _TOMBSTONE)

    def _write(self, key: bytes, value: object) -> None:
        charge("lsm_memtable_op")
        charge("wal_append")
        if self._memkeys is not None and key not in self._memtable:
            insort(self._memkeys, key)
        self._memtable[key] = value
        if len(self._memtable) >= self.memtable_limit:
            self._flush()

    def _flush(self) -> None:
        entries = sorted(self._memtable.items())
        charge("lsm_compaction_item", len(entries))
        self._sstables.insert(0, SSTable(entries))
        self._memtable = {}
        self._memkeys = None
        self.flush_count += 1
        if len(self._sstables) > self.max_sstables:
            self._compact()

    def _compact(self) -> None:
        """Major compaction: merge every run into one, dropping
        tombstones.  Newer runs shadow older ones."""
        # every entry read is one compaction item
        charge("lsm_compaction_item", sum(map(len, self._sstables)))
        merged: dict[bytes, object] = {}
        # oldest first so newer runs overwrite
        for sstable in reversed(self._sstables):
            merged.update(zip(sstable.keys, sstable.values))
        live = sorted(
            (k, v) for k, v in merged.items() if v is not _TOMBSTONE
        )
        self._sstables = [SSTable(live)] if live else []
        self.compaction_count += 1

    def flush(self) -> None:
        """Force the memtable out (used by loaders before measuring reads)."""
        if self._memtable:
            self._flush()

    # -- read path -------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        charge("lsm_memtable_op")
        if key in self._memtable:
            value = self._memtable[key]
            return None if value is _TOMBSTONE else value  # type: ignore[return-value]
        for sstable in self._sstables:
            value = sstable.get(key)
            if value is not None:
                return None if value is _TOMBSTONE else value  # type: ignore[return-value]
        return None

    def range_scan(
        self, lo: bytes, hi_exclusive: bytes
    ) -> Iterator[tuple[bytes, bytes]]:
        """Merge-scan keys in ``[lo, hi_exclusive)`` across all runs."""
        candidates: dict[bytes, object] = {}
        for sstable in reversed(self._sstables):
            for key, value in sstable.range_from(lo):
                if key >= hi_exclusive:
                    break
                candidates[key] = value
        charge("lsm_memtable_op")
        keys = self._memkeys
        if keys is None:
            keys = self._memkeys = sorted(self._memtable)
        memtable = self._memtable
        start = bisect_left(keys, lo)
        for key in keys[start : bisect_left(keys, hi_exclusive, start)]:
            candidates[key] = memtable[key]
        for key in sorted(candidates):
            value = candidates[key]
            if value is not _TOMBSTONE:
                charge("value_cpu")
                yield key, value  # type: ignore[misc]

    # -- stats --------------------------------------------------------------------

    @property
    def sstable_count(self) -> int:
        return len(self._sstables)

    def size_bytes(self) -> int:
        mem = sum(
            len(k) + (len(v) if isinstance(v, bytes) else 1)
            for k, v in self._memtable.items()
        )
        return mem + sum(s.size_bytes() for s in self._sstables)
