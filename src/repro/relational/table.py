"""Tables: schema + storage engine + secondary indexes.

A :class:`Table` hides the storage layout behind a handle-based API:

* ``row``    — rows serialized by :class:`RowCodec` into a :class:`HeapFile`;
  handles are RIDs and may move when an update grows the record.
* ``column`` — rows live in a :class:`ColumnTable`; handles are stable
  positions, but every touched column charges columnar update costs.

Indexes map column values to handles.  The primary key always gets a unique
hash index (the paper indexes vertex IDs in every system); ``CREATE INDEX``
adds B+tree or hash secondaries.
"""

from __future__ import annotations

import marshal
from collections.abc import Iterator, Mapping, Sequence
from typing import Any

from repro.simclock.ledger import charge
from repro.storage.btree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.codec import ColumnType, Row, RowCodec
from repro.storage.column import ColumnTable
from repro.storage.hashindex import HashIndex
from repro.storage.heap import RID, HeapFile
from repro.storage.mvcc import VersionStore
from repro.storage.wal import WriteAheadLog
from repro.txn import oracle

_TYPE_ALIASES = {
    "int": ColumnType.INT,
    "integer": ColumnType.INT,
    "bigint": ColumnType.INT,
    "timestamp": ColumnType.INT,
    "float": ColumnType.FLOAT,
    "double": ColumnType.FLOAT,
    "real": ColumnType.FLOAT,
    "text": ColumnType.TEXT,
    "varchar": ColumnType.TEXT,
    "string": ColumnType.TEXT,
    "bool": ColumnType.BOOL,
    "boolean": ColumnType.BOOL,
}


def column_type_from_sql(type_name: str) -> ColumnType:
    try:
        return _TYPE_ALIASES[type_name.lower()]
    except KeyError:
        raise ValueError(f"unsupported SQL type: {type_name!r}") from None


class Table:
    """One relation with either row or columnar storage."""

    def __init__(
        self,
        name: str,
        columns: Sequence[tuple[str, ColumnType]],
        *,
        primary_key: str | None = None,
        storage: str = "row",
        pool: BufferPool | None = None,
        wal: WriteAheadLog | None = None,
    ) -> None:
        if storage not in ("row", "column"):
            raise ValueError(f"unknown storage engine: {storage!r}")
        if storage == "row" and pool is None:
            raise ValueError("row storage requires a buffer pool")
        self.name = name
        self.columns = list(columns)
        self.column_names = [c for c, _ in columns]
        self._col_pos = {c: i for i, c in enumerate(self.column_names)}
        self.primary_key = primary_key
        self.storage = storage
        self.wal = wal
        self._indexes: dict[str, BPlusTree | HashIndex] = {}
        #: row versions keyed by handle; deletes observed by an active
        #: snapshot are deferred here and reclaimed at the GC watermark
        self.mvcc = VersionStore(
            f"{name}-mvcc", on_reclaim=self._reclaim_tombstone
        )

        if storage == "row":
            self._codec = RowCodec([t for _, t in columns])
            self._heap = HeapFile(pool, name)  # type: ignore[arg-type]
            #: host memo of decoded heap records, latest committed row
            #: per RID; a hit replays the fetch's charges (``_fetch_raw``)
            self._row_cache: dict[RID, Row] = {}
        else:
            self._cols = ColumnTable(name, columns)

        if primary_key is not None:
            if primary_key not in self._col_pos:
                raise ValueError(
                    f"primary key {primary_key!r} is not a column of {name!r}"
                )
            self._indexes[primary_key] = HashIndex(
                unique=True, name=f"{name}_pk"
            )

    # -- metadata ----------------------------------------------------------------

    def __len__(self) -> int:
        if self.storage == "row":
            return self._heap.record_count
        return len(self._cols)

    def column_position(self, column: str) -> int:
        try:
            return self._col_pos[column]
        except KeyError:
            raise KeyError(
                f"no column {column!r} in table {self.name!r}"
            ) from None

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    def create_index(self, column: str, method: str = "btree") -> None:
        """Build a secondary index over existing rows."""
        if column in self._indexes:
            return
        pos = self.column_position(column)
        index: BPlusTree | HashIndex
        if method == "btree":
            index = BPlusTree(name=f"{self.name}_{column}")
        elif method == "hash":
            index = HashIndex(name=f"{self.name}_{column}")
        else:
            raise ValueError(f"unknown index method: {method!r}")
        # index every physical row, tombstoned ones included: visibility
        # is filtered at lookup time, and the GC reclaim path unindexes
        # deferred deletes from *all* indexes uniformly
        for handle, row in self._scan_raw():
            if row[pos] is not None:
                index.insert(row[pos], handle)
        self._indexes[column] = index

    # -- write path --------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> Any:
        """Insert a row; returns its handle."""
        row = tuple(values)
        if len(row) != len(self.column_names):
            raise ValueError(
                f"row has {len(row)} values, table {self.name!r} has "
                f"{len(self.column_names)} columns"
            )
        if self.primary_key is not None:
            pk_value = row[self._col_pos[self.primary_key]]
            if pk_value is None:
                raise ValueError(f"primary key of {self.name!r} cannot be NULL")
        if self.storage == "row":
            handle = self._heap.insert(self._codec.encode(row))
        else:
            handle = self._cols.append(row)
        try:
            for column, index in self._indexes.items():
                value = row[self._col_pos[column]]
                if value is not None:
                    index.insert(value, handle)
        except Exception:
            # a unique index refused the row: take back what the
            # indexes before it and the store already hold
            self._unstore(row, handle, index)
            raise
        self.mvcc.stamp(handle)
        if self.wal is not None:
            self.wal.append(wal_record("insert", self.name, row))
        return handle

    def _unstore(
        self, row: tuple, handle: Any, failed: BPlusTree | HashIndex
    ) -> None:
        """Undo a half-done :meth:`insert`: every index up to ``failed``
        loses the row's entry, then the store loses the row."""
        for column, index in self._indexes.items():
            if index is failed:
                break
            value = row[self._col_pos[column]]
            if value is not None:
                index.delete(value, handle)
        if self.storage == "row":
            self._heap.delete(handle)
        else:
            self._cols.pop_last()

    def update(self, handle: Any, changes: Mapping[str, Any]) -> Any:
        """Apply ``changes``; returns the (possibly moved) handle."""
        old_row = self._fetch_raw(handle)
        new_row = list(old_row)
        for column, value in changes.items():
            new_row[self.column_position(column)] = value
        self.mvcc.record_update(handle, old_row)
        if self.storage == "row":
            self._row_cache.pop(handle, None)
            new_handle = self._heap.update(
                handle, self._codec.encode(tuple(new_row))
            )
        else:
            self._cols.update(handle, dict(changes))
            new_handle = handle
        if new_handle != handle:
            self.mvcc.move(handle, new_handle)
        for column, index in self._indexes.items():
            pos = self._col_pos[column]
            changed = old_row[pos] != new_row[pos]
            moved = new_handle != handle
            if changed or moved:
                if old_row[pos] is not None:
                    index.delete(old_row[pos], handle)
                if new_row[pos] is not None:
                    index.insert(new_row[pos], new_handle)
        if self.wal is not None:
            self.wal.append(
                wal_record("update", self.name, (old_row, new_row))
            )
        return new_handle

    def delete(self, handle: Any) -> None:
        row = self._fetch_raw(handle)
        if self.mvcc.record_delete(handle):
            # an active snapshot may still see this row: keep it (and
            # its index entries) in place, filtered by visibility, until
            # the GC watermark passes the tombstone
            pass
        else:
            self._remove_physical(handle, row)
        if self.wal is not None:
            self.wal.append(wal_record("delete", self.name, row))

    def undo_delete(self, handle: Any, row: Sequence[Any]) -> Any:
        """Transaction-abort undo of :meth:`delete`; returns the handle.

        A tombstoned row is still physically present — dropping the
        tombstone restores it in place; a physically removed row is
        re-inserted (fresh handle).
        """
        if self.mvcc.undelete(handle):
            return handle
        return self.insert(row)

    def _remove_physical(self, handle: Any, row: tuple) -> None:
        if self.storage == "row":
            self._row_cache.pop(handle, None)
            self._heap.delete(handle)
        else:
            self._cols.delete(handle)
        for column, index in self._indexes.items():
            value = row[self._col_pos[column]]
            if value is not None:
                index.delete(value, handle)

    def _reclaim_tombstone(self, handle: Any) -> None:
        """GC callback: a deferred delete is now invisible to everyone."""
        self._remove_physical(handle, self._fetch_raw(handle))

    # -- read path ---------------------------------------------------------------

    def _fetch_raw(self, handle: Any) -> tuple:
        """The latest committed row, ignoring any snapshot (write paths).

        Row storage decodes each heap record once: a memo hit skips the
        slot read and the decode but still makes the page access and
        pays ``tuple_cpu`` and ``value_cpu`` as a fresh fetch would.
        ``update`` and ``_remove_physical`` are the only writers of a
        stored record, and both drop its entry first; a deferred delete
        leaves the record, and so its entry, in place.
        """
        if self.storage != "row":
            return self._cols.read_row(handle)
        row = self._row_cache.get(handle)
        if row is None:
            row = self._codec.decode(self._heap.fetch(handle))
            self._row_cache[handle] = row
        else:
            self._heap.touch(handle)
            self._codec.charge_decode()
        return row

    def fetch(self, handle: Any) -> tuple:
        row = self._fetch_raw(handle)
        if oracle.CURRENT is not None:
            return self.mvcc.read(handle, row)
        return row

    def fetch_batch(
        self, handles: Sequence[Any], needed: Sequence[str] | None = None
    ) -> list[tuple]:
        """Fetch many rows at once, full schema width.

        Row storage decodes each record (no batching possible on a heap);
        columnar storage uses the vectorized batch path and fills columns
        outside ``needed`` with NULL — the planner passes exactly the
        columns the query references.
        """
        if self.storage == "row" or not handles:
            return [self.fetch(h) for h in handles]
        if any(self.mvcc.stale(h) for h in handles):
            # the batch spans versions the snapshot must not see: fall
            # back to per-record chain walks
            return [self.fetch(h) for h in handles]
        charge("vector_setup")
        names = list(needed) if needed is not None else self.column_names
        narrow = self._cols.read_batch(list(handles), names)
        if names == self.column_names:
            return narrow
        width = len(self.column_names)
        positions = [self._col_pos[n] for n in names]
        rows = []
        for values in narrow:
            row: list[Any] = [None] * width
            for pos, value in zip(positions, values):
                row[pos] = value
            rows.append(tuple(row))
        return rows

    def lookup_batch(
        self, column: str, values: Sequence[Any]
    ) -> dict[Any, list[Any]]:
        """Index probes for a deduplicated batch of keys.

        Duplicate keys are probed once — the batch executor's join
        kernels routinely see repeated outer keys within one batch.
        """
        index = self._indexes.get(column)
        if index is None:
            raise KeyError(f"no index on {self.name}.{column}")
        return {
            value: self._snapshot_index_fixup(
                column,
                self.mvcc.filter_visible(index.search(value)),
                lambda v, want=value: v == want,
            )
            for value in dict.fromkeys(values)
        }

    def fetch_values(self, handle: Any, columns: Sequence[str]) -> tuple:
        """Projection fetch.

        Row storage must decode the whole record; columnar storage touches
        only the requested columns — the layout difference the paper's
        traversal-heavy queries expose.
        """
        if self.storage == "row" or self.mvcc.stale(handle):
            row = self.fetch(handle)
            return tuple(row[self.column_position(c)] for c in columns)
        return self._cols.read_values(handle, list(columns))

    def _scan_raw(self) -> Iterator[tuple[Any, tuple]]:
        """All physical rows, tombstoned ones included (index builds)."""
        if self.storage == "row":
            for rid, record in self._heap.scan():
                yield rid, self._codec.decode(record)
        else:
            yield from self._cols.scan()

    def scan(self) -> Iterator[tuple[Any, tuple]]:
        for handle, row in self._scan_raw():
            if self.mvcc.visible(handle):
                yield handle, self.mvcc.read(handle, row)

    def lookup(self, column: str, value: Any) -> list[Any]:
        """Handles of rows where ``column == value`` via the index."""
        index = self._indexes.get(column)
        if index is None:
            raise KeyError(f"no index on {self.name}.{column}")
        hits = self.mvcc.filter_visible(index.search(value))
        return self._snapshot_index_fixup(column, hits, lambda v: v == value)

    def _snapshot_index_fixup(
        self,
        column: str,
        hits: list[Any],
        matches: Any,
    ) -> list[Any]:
        """Re-check index hits against the snapshot-visible column value.

        Index entries are unversioned: an update after the snapshot began
        re-files the entry under the new value, so a probe by the old
        value misses the row (false negative) and a probe by the new
        value returns a handle whose snapshot row doesn't match (false
        positive).  The keys at risk are exactly ``mvcc.stale_keys()`` —
        every hit among them is value-checked against its snapshot row,
        and every stale visible row missing from ``hits`` is recovered if
        its snapshot value satisfies the predicate.
        """
        stale = self.mvcc.stale_keys()
        if not stale:
            return hits
        pos = self._col_pos[column]

        def snapshot_matches(handle: Any) -> bool:
            value = self.mvcc.read(handle, self._fetch_raw(handle))[pos]
            return value is not None and matches(value)

        return self.mvcc.recheck_stale(hits, stale, snapshot_matches)

    def range_lookup(
        self, column: str, lo: Any, hi: Any, *, hi_inclusive: bool = True
    ) -> Iterator[Any]:
        index = self._indexes.get(column)
        if not isinstance(index, BPlusTree):
            raise KeyError(f"no range index on {self.name}.{column}")
        hits = [
            handle
            for _key, handle in index.range_scan(
                lo, hi, hi_inclusive=hi_inclusive
            )
            if self.mvcc.visible(handle)
        ]
        if hi_inclusive:
            in_range = lambda v: lo <= v <= hi  # noqa: E731
        else:
            in_range = lambda v: lo <= v < hi  # noqa: E731
        yield from self._snapshot_index_fixup(column, hits, in_range)

    # -- stats --------------------------------------------------------------------

    def size_bytes(self) -> int:
        if self.storage == "row":
            base = self._heap.size_bytes()
        else:
            base = self._cols.size_bytes()
        # rough index footprint: 16 bytes/entry
        index_bytes = sum(16 * len(i) for i in self._indexes.values())
        return base + index_bytes


def wal_record(*fields: Any) -> bytes:
    """A logical WAL record: the tuple ``(op, table, ...)`` in marshal
    format version 2, which writes no back-references, so a record's
    bytes depend on its values alone."""
    return marshal.dumps(fields, 2)


def read_wal_record(raw: bytes) -> tuple:
    """Decode one :func:`wal_record`; any other bytes raise ``ValueError``.

    The header is checked first (a version-2 tuple: ``(`` and a
    little-endian 32-bit length of 3 or 4), because ``marshal.loads``
    trusts a container's length and would try to allocate whatever a
    foreign header claims.
    """
    if raw[:1] != b"(" or int.from_bytes(raw[1:5], "little") not in (3, 4):
        raise ValueError(f"not a WAL record: {raw[:16]!r}")
    try:
        return marshal.loads(raw)
    except EOFError as exc:
        raise ValueError(f"truncated WAL record: {exc}") from exc
