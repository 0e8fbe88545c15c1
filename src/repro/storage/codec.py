"""Schema-driven row serialization.

Rows are Python tuples; the codec packs them to bytes for slotted-page
storage and back.  Wire format per column: one null byte followed by the
typed payload (fixed-width for scalars, length-prefixed UTF-8 for text).
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Sequence

from repro.simclock.ledger import charge

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
# a present value: its null byte (1) and payload in one pack
_SOME_I64 = struct.Struct("<Bq")
_SOME_F64 = struct.Struct("<Bd")
_SOME_U32 = struct.Struct("<BI")

#: one column value: the four scalar wire types, or SQL NULL
Value = int | float | str | bool | None

#: one stored row: a fixed-width tuple of column values
Row = tuple[Value, ...]


class ColumnType(enum.Enum):
    """Supported column types (a pragmatic subset of SQL types)."""

    INT = "int"        # 64-bit signed integer (also used for timestamps)
    FLOAT = "float"    # IEEE-754 double
    TEXT = "text"      # UTF-8 string
    BOOL = "bool"

    def validate(self, value: object) -> None:
        """Raise ``TypeError`` when ``value`` does not match this type."""
        if value is not None and not isinstance(value, self.accepts):
            raise TypeError(
                f"expected {_STORES[self][1]}, got {type(value).__name__}"
            )

    @property
    def accepts(self) -> type | tuple[type, ...]:
        """The Python types a column of this type stores (an INT column
        takes a bool, a FLOAT column an int).  Hot paths read it once
        per column: an enum member hashes in Python code."""
        return _STORES[self][0]


#: column type -> (the Python types it stores, their name in errors)
_STORES: dict[ColumnType, tuple[type | tuple[type, ...], str]] = {
    ColumnType.INT: (int, "int"),
    ColumnType.FLOAT: ((int, float), "float"),
    ColumnType.TEXT: (str, "str"),
    ColumnType.BOOL: (bool, "bool"),
}
_INT, _FLOAT, _TEXT = ColumnType.INT, ColumnType.FLOAT, ColumnType.TEXT


class RowCodec:
    """Packs and unpacks rows for a fixed column-type signature."""

    def __init__(self, types: Sequence[ColumnType]) -> None:
        if not types:
            raise ValueError("a row needs at least one column")
        self.types = tuple(types)
        self._accepts = tuple(ctype.accepts for ctype in self.types)

    def encode(self, row: Sequence[Value]) -> bytes:
        """Pack ``row``; a value of the wrong type raises ``TypeError``."""
        if len(row) != len(self.types):
            raise ValueError(
                f"row has {len(row)} values, schema has {len(self.types)}"
            )
        parts: list[bytes] = []
        append = parts.append
        for ctype, accepts, value in zip(self.types, self._accepts, row):
            if value is None:
                append(b"\x00")
            elif not isinstance(value, accepts):
                ctype.validate(value)  # raises the TypeError
            elif ctype is _INT:
                append(_SOME_I64.pack(1, value))
            elif ctype is _TEXT:
                payload = value.encode("utf-8")  # type: ignore[union-attr]
                append(_SOME_U32.pack(1, len(payload)))
                append(payload)
            elif ctype is _FLOAT:
                append(_SOME_F64.pack(1, float(value)))
            else:  # BOOL
                append(b"\x01\x01" if value else b"\x01\x00")
        return b"".join(parts)

    def charge_decode(self) -> None:
        """The simulated cost of decoding one record: per-value CPU."""
        charge("value_cpu", len(self.types))

    def decode(self, data: bytes) -> Row:
        self.charge_decode()
        values: list[Value] = []
        pos = 0
        for ctype in self.types:
            present = data[pos]
            pos += 1
            if not present:
                values.append(None)
                continue
            if ctype is ColumnType.INT:
                values.append(_I64.unpack_from(data, pos)[0])
                pos += 8
            elif ctype is ColumnType.FLOAT:
                values.append(_F64.unpack_from(data, pos)[0])
                pos += 8
            elif ctype is ColumnType.BOOL:
                values.append(bool(data[pos]))
                pos += 1
            else:  # TEXT
                (length,) = _U32.unpack_from(data, pos)
                pos += 4
                values.append(data[pos : pos + length].decode("utf-8"))
                pos += length
        if pos != len(data):
            raise ValueError("trailing bytes after row payload")
        return tuple(values)
