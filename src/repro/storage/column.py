"""Append-optimized column store (the Virtuoso-like storage layout).

Each column is a dense vector; TEXT columns are dictionary-encoded.  Reads
of a few columns are cheap (``column_value`` per cell); point access pays a
positional seek per column (``column_seek``).  Updates are where the layout
hurts: every changed column pays ``column_update`` (out-of-place rewrite +
positional bookkeeping), which is the mechanism behind the paper's finding
that "columnar storage ... is known to suffer under transactional workloads
with frequent updates".
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence

from repro.simclock.ledger import charge
from repro.storage.codec import ColumnType, Row, Value


class _Column:
    """One column vector, dictionary-encoded when TEXT.

    ``append`` and ``set`` take a value already checked against the
    column type: the table checks a whole row (or update) before it
    writes any column, so a rejected one writes none.
    """

    __slots__ = ("name", "ctype", "accepts", "data", "dictionary", "codes")

    def __init__(self, name: str, ctype: ColumnType) -> None:
        self.name = name
        self.ctype = ctype
        self.accepts = ctype.accepts
        self.data: list[Value] = []  # raw values, or dict codes for TEXT
        self.dictionary: dict[str, int] = {} if ctype is ColumnType.TEXT else {}
        self.codes: list[str] = []  # code -> string

    def append(self, value: Value) -> None:
        """Store ``value`` at the next position (the table charges the
        ``column_append``)."""
        if self.ctype is ColumnType.TEXT and value is not None:
            code = self.dictionary.get(value)
            if code is None:
                code = len(self.codes)
                self.dictionary[value] = code
                self.codes.append(value)
            self.data.append(code)
        else:
            self.data.append(value)

    def get(self, pos: int) -> Value:
        charge("column_value")
        raw = self.data[pos]
        if self.ctype is ColumnType.TEXT and raw is not None:
            return self.codes[raw]
        return raw

    def set(self, pos: int, value: Value) -> None:
        charge("column_update")
        if self.ctype is ColumnType.TEXT and value is not None:
            code = self.dictionary.get(value)
            if code is None:
                code = len(self.codes)
                self.dictionary[value] = code
                self.codes.append(value)
            self.data[pos] = code
        else:
            self.data[pos] = value

    def pop(self) -> None:
        """Undo the last :meth:`append`, dictionary code included."""
        raw = self.data.pop()
        if (
            self.ctype is ColumnType.TEXT
            and raw == len(self.codes) - 1
            and raw not in self.data
        ):
            del self.dictionary[self.codes.pop()]

    def size_bytes(self) -> int:
        if self.ctype is ColumnType.TEXT:
            dict_bytes = sum(len(s.encode()) + 8 for s in self.codes)
            return 4 * len(self.data) + dict_bytes
        if self.ctype is ColumnType.BOOL:
            return len(self.data)
        return 8 * len(self.data)


class ColumnTable:
    """A table stored column-wise with a delete bitmap."""

    def __init__(
        self,
        name: str,
        columns: Sequence[tuple[str, ColumnType]],
    ) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.name = name
        self.column_names = [c for c, _ in columns]
        self._columns = {c: _Column(c, t) for c, t in columns}
        self._col_index = {c: i for i, (c, _) in enumerate(columns)}
        self._deleted: set[int] = set()
        self.row_count = 0

    def __len__(self) -> int:
        return self.row_count

    @property
    def total_positions(self) -> int:
        """Number of row positions including deleted ones."""
        return len(next(iter(self._columns.values())).data)

    # -- write path --------------------------------------------------------------

    def append(self, row: Sequence[Value]) -> int:
        """Append a row; returns its position."""
        if len(row) != len(self.column_names):
            raise ValueError(
                f"row has {len(row)} values, table has "
                f"{len(self.column_names)} columns"
            )
        columns = self._columns.values()
        for column, value in zip(columns, row):
            if value is not None and not isinstance(value, column.accepts):
                column.ctype.validate(value)  # raises the TypeError
        charge("column_append", len(row))
        for column, value in zip(columns, row):
            column.append(value)
        pos = self.total_positions - 1
        self.row_count += 1
        return pos

    def pop_last(self) -> None:
        """Remove the row the last :meth:`append` stored."""
        for column in self._columns.values():
            column.pop()
        self.row_count -= 1

    def update(self, pos: int, changes: Mapping[str, Value]) -> None:
        self._check_live(pos)
        for name, value in changes.items():
            self._column(name).ctype.validate(value)
        for name, value in changes.items():
            self._columns[name].set(pos, value)

    def delete(self, pos: int) -> None:
        self._check_live(pos)
        charge("column_update")  # delete bitmap maintenance
        self._deleted.add(pos)
        self.row_count -= 1

    # -- read path --------------------------------------------------------------

    def is_live(self, pos: int) -> bool:
        return 0 <= pos < self.total_positions and pos not in self._deleted

    def read_row(self, pos: int) -> Row:
        """Materialize a full row: one positional seek per column."""
        self._check_live(pos)
        values = []
        for name in self.column_names:
            charge("column_seek")
            values.append(self._columns[name].get(pos))
        return tuple(values)

    def read_values(self, pos: int, columns: Sequence[str]) -> Row:
        """Materialize a projection of a row."""
        self._check_live(pos)
        values = []
        for name in columns:
            charge("column_seek")
            values.append(self._column(name).get(pos))
        return tuple(values)

    def read_batch(
        self, positions: Sequence[int], columns: Sequence[str]
    ) -> list[Row]:
        """Vectorized projection fetch: one seek per column for the whole
        batch, then sequential per-value access — the columnar execution
        model that amortizes positional access over many rows."""
        cols = [self._column(n) for n in columns]
        for pos in positions:
            self._check_live(pos)
        out: list[list[Value]] = [[] for _ in positions]
        for col in cols:
            charge("column_seek")
            charge("column_value", len(positions))
            for i, pos in enumerate(positions):
                raw = col.data[pos]
                if col.ctype is ColumnType.TEXT and raw is not None:
                    raw = col.codes[raw]
                out[i].append(raw)
        return [tuple(row) for row in out]

    def scan(
        self, columns: Sequence[str] | None = None
    ) -> Iterator[tuple[int, Row]]:
        """Sequential scan over live positions, projecting ``columns``."""
        names = list(columns) if columns is not None else self.column_names
        cols = [self._column(n) for n in names]
        charge("column_seek", len(cols))
        texts = [col.ctype is ColumnType.TEXT for col in cols]
        for pos in range(self.total_positions):
            if pos in self._deleted:
                continue
            charge("column_value", len(cols))
            row = []
            for col, text in zip(cols, texts):
                raw = col.data[pos]
                row.append(col.codes[raw] if text and raw is not None else raw)
            yield pos, tuple(row)

    def column_values(self, name: str) -> Iterator[tuple[int, Value]]:
        """Scan one column only (the column-store sweet spot)."""
        col = self._column(name)
        charge("column_seek")
        for pos in range(self.total_positions):
            if pos not in self._deleted:
                yield pos, col.get(pos)

    # -- helpers ----------------------------------------------------------------

    def _column(self, name: str) -> _Column:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r} in table {self.name!r}"
            ) from None

    def _check_live(self, pos: int) -> None:
        if not 0 <= pos < self.total_positions:
            raise IndexError(f"position {pos} out of range")
        if pos in self._deleted:
            raise KeyError(f"position {pos} is deleted")

    def size_bytes(self) -> int:
        return sum(c.size_bytes() for c in self._columns.values())
