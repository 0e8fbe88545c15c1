"""The catalog: tables and indexes of one database instance."""

from __future__ import annotations

from collections.abc import Sequence

from repro.storage.buffer import BufferPool, DiskManager
from repro.storage.codec import ColumnType
from repro.storage.wal import WriteAheadLog
from repro.relational.table import Table


class Catalog:
    """Owns every table of a database and their shared storage services."""

    def __init__(
        self,
        storage: str = "row",
        *,
        buffer_capacity: int = 1 << 16,
        wal: WriteAheadLog | None = None,
    ) -> None:
        if storage not in ("row", "column"):
            raise ValueError(f"unknown storage engine: {storage!r}")
        self.storage = storage
        self.disk = DiskManager()
        self.pool = BufferPool(self.disk, capacity=buffer_capacity)
        self.wal = wal
        self._tables: dict[str, Table] = {}

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, ColumnType]],
        primary_key: str | None = None,
    ) -> Table:
        key = name.lower()
        if key in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(
            key,
            columns,
            primary_key=primary_key,
            storage=self.storage,
            pool=self.pool,
            wal=self.wal,
        )
        self._tables[key] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise KeyError(f"no table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def size_bytes(self) -> int:
        return sum(t.size_bytes() for t in self._tables.values())
