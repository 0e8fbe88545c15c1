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
        if value is None:
            return
        if self is ColumnType.INT and not isinstance(value, int):
            raise TypeError(f"expected int, got {type(value).__name__}")
        if self is ColumnType.FLOAT and not isinstance(value, (int, float)):
            raise TypeError(f"expected float, got {type(value).__name__}")
        if self is ColumnType.TEXT and not isinstance(value, str):
            raise TypeError(f"expected str, got {type(value).__name__}")
        if self is ColumnType.BOOL and not isinstance(value, bool):
            raise TypeError(f"expected bool, got {type(value).__name__}")


class RowCodec:
    """Packs and unpacks rows for a fixed column-type signature."""

    def __init__(self, types: Sequence[ColumnType]) -> None:
        if not types:
            raise ValueError("a row needs at least one column")
        self.types = tuple(types)

    def encode(self, row: Sequence[Value]) -> bytes:
        if len(row) != len(self.types):
            raise ValueError(
                f"row has {len(row)} values, schema has {len(self.types)}"
            )
        parts: list[bytes] = []
        for ctype, value in zip(self.types, row):
            ctype.validate(value)
            if value is None:
                parts.append(b"\x00")
                continue
            parts.append(b"\x01")
            if ctype is ColumnType.INT:
                parts.append(_I64.pack(value))
            elif ctype is ColumnType.FLOAT:
                parts.append(_F64.pack(float(value)))
            elif ctype is ColumnType.BOOL:
                parts.append(b"\x01" if value else b"\x00")
            else:  # TEXT
                payload = value.encode("utf-8")
                parts.append(_U32.pack(len(payload)))
                parts.append(payload)
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
