"""The Sqlg provider: property graph emulated over SQL tables.

Schema mapping (as in real Sqlg): one table per vertex label
(``v_<label>``) and one per edge label (``e_<label>`` with ``out_id`` /
``in_id`` endpoint columns plus endpoint label columns, since SNB
messages may be posts or comments).  Vertex ids are the SNB global ids.

Every SPI call issues SQL through the embedded database *and* charges a
``client_rtt`` — Sqlg runs inside the Gremlin Server and talks JDBC to
Postgres, so each small request pays the wire.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any

from repro.relational.engine import Database
from repro.simclock.ledger import charge
from repro.tinkerpop.structure import GraphProvider

_SQL_TYPES = {int: "BIGINT", str: "TEXT", float: "FLOAT", bool: "BOOL"}


def _insert_sql(table: str, schema: list[str]) -> str:
    placeholders = ", ".join("?" for _ in schema)
    return f"INSERT INTO {table} VALUES ({placeholders})"


class SqlgProvider(GraphProvider):
    name = "sqlg"

    def __init__(self, db: Database | None = None) -> None:
        self.db = db or Database(
            "row", name="sqlg-postgres", cache_statements=False
        )
        self._vertex_schemas: dict[str, list[str]] = {}
        self._edge_schemas: dict[str, list[str]] = {}
        #: label -> its INSERT text, built once when the label is defined
        self._vertex_insert: dict[str, str] = {}
        self._edge_insert: dict[str, str] = {}
        self._vertex_label_cache: dict[Any, str] = {}
        self._next_eid = 0

    # -- schema ------------------------------------------------------------------

    def define_vertex_label(
        self, label: str, columns: Mapping[str, type]
    ) -> None:
        """Declare a vertex table (Sqlg requires schemas up front)."""
        if label in self._vertex_schemas:
            return
        extra = {name: t for name, t in columns.items() if name != "id"}
        cols = ", ".join(
            f"{name} {_SQL_TYPES[ctype]}" for name, ctype in extra.items()
        )
        suffix = f", {cols}" if cols else ""
        self.db.execute(
            f"CREATE TABLE v_{label} (id BIGINT PRIMARY KEY{suffix})"
        )
        schema = ["id", *extra.keys()]
        self._vertex_schemas[label] = schema
        self._vertex_insert[label] = _insert_sql(f"v_{label}", schema)

    def define_edge_label(
        self, label: str, columns: Mapping[str, type] | None = None
    ) -> None:
        if label in self._edge_schemas:
            return
        columns = columns or {}
        extra = "".join(
            f", {name} {_SQL_TYPES[ctype]}" for name, ctype in columns.items()
        )
        self.db.execute(
            f"CREATE TABLE e_{label} (eid BIGINT PRIMARY KEY, "
            f"out_id BIGINT, in_id BIGINT, out_label TEXT, in_label TEXT"
            f"{extra})"
        )
        self.db.execute(f"CREATE INDEX ON e_{label} (out_id) USING HASH")
        self.db.execute(f"CREATE INDEX ON e_{label} (in_id) USING HASH")
        schema = [
            "eid", "out_id", "in_id", "out_label", "in_label",
            *columns.keys(),
        ]
        self._edge_schemas[label] = schema
        self._edge_insert[label] = _insert_sql(f"e_{label}", schema)

    # -- SPI: reads -----------------------------------------------------------------

    def vertices(self, label: str | None = None) -> Iterator[Any]:
        labels = [label] if label else list(self._vertex_schemas)
        for vlabel in labels:
            charge("client_rtt")
            for (vid,) in self.db.query(f"SELECT id FROM v_{vlabel}"):
                yield (vlabel, vid)

    def vertex_label(self, vid: Any) -> str:
        return vid[0]

    def vertex_props(self, vid: Any) -> dict[str, Any]:
        label, raw_id = vid
        charge("client_rtt")
        rows = self.db.query(
            f"SELECT * FROM v_{label} WHERE id = ?", (raw_id,)
        )
        if not rows:
            raise KeyError(f"no vertex {vid}")
        return {
            col: value
            for col, value in zip(self._vertex_schemas[label], rows[0])
            if value is not None
        }

    def edge_props(self, eid: Any) -> dict[str, Any]:
        label, raw_id = eid
        charge("client_rtt")
        rows = self.db.query(
            f"SELECT * FROM e_{label} WHERE eid = ?", (raw_id,)
        )
        if not rows:
            raise KeyError(f"no edge {eid}")
        skip = {"eid", "out_id", "in_id", "out_label", "in_label"}
        return {
            col: value
            for col, value in zip(self._edge_schemas[label], rows[0])
            if col not in skip and value is not None
        }

    def edge_label(self, eid: Any) -> str:
        return eid[0]

    def edge_endpoints(self, eid: Any) -> tuple[Any, Any]:
        label, raw_id = eid
        charge("client_rtt")
        rows = self.db.query(
            f"SELECT out_id, in_id, out_label, in_label FROM e_{label} "
            f"WHERE eid = ?",
            (raw_id,),
        )
        if not rows:
            raise KeyError(f"no edge {eid}")
        out_id, in_id, out_label, in_label = rows[0]
        return (out_label, out_id), (in_label, in_id)

    def adjacent(
        self, vid: Any, direction: str, label: str | None
    ) -> Iterator[tuple[Any, Any]]:
        _vlabel, raw_id = vid
        edge_labels = [label] if label else list(self._edge_schemas)
        for elabel in edge_labels:
            if direction in ("out", "both"):
                charge("client_rtt")
                for eid, other_id, other_label in self.db.query(
                    f"SELECT eid, in_id, in_label FROM e_{elabel} "
                    f"WHERE out_id = ?",
                    (raw_id,),
                ):
                    yield (elabel, eid), (other_label, other_id)
            if direction in ("in", "both"):
                charge("client_rtt")
                for eid, other_id, other_label in self.db.query(
                    f"SELECT eid, out_id, out_label FROM e_{elabel} "
                    f"WHERE in_id = ?",
                    (raw_id,),
                ):
                    yield (elabel, eid), (other_label, other_id)

    def lookup(self, label: str, key: str, value: Any) -> list[Any]:
        charge("client_rtt")
        rows = self.db.query(
            f"SELECT id FROM v_{label} WHERE {key} = ?", (value,)
        )
        return [(label, vid) for (vid,) in rows]

    def has_lookup_index(self, label: str, key: str) -> bool:
        if label not in self._vertex_schemas:
            return False
        return self.db.catalog.table(f"v_{label}").has_index(key)

    # -- SPI: writes -------------------------------------------------------------------

    def create_vertex(self, label: str, props: dict[str, Any]) -> Any:
        schema = self._vertex_schemas[label]
        values = [props.get(col) for col in schema]
        charge("client_rtt")
        self.db.execute(self._vertex_insert[label], values)
        return (label, props["id"])

    def create_edge(
        self, label: str, out_vid: Any, in_vid: Any, props: dict[str, Any]
    ) -> Any:
        schema = self._edge_schemas[label]
        self._next_eid += 1
        eid = self._next_eid
        row = {
            "eid": eid,
            "out_id": out_vid[1],
            "in_id": in_vid[1],
            "out_label": out_vid[0],
            "in_label": in_vid[0],
            **props,
        }
        values = [row.get(col) for col in schema]
        charge("client_rtt")
        self.db.execute(self._edge_insert[label], values)
        return (label, eid)

    def set_vertex_prop(self, vid: Any, key: str, value: Any) -> None:
        label, raw_id = vid
        charge("client_rtt")
        self.db.execute(
            f"UPDATE v_{label} SET {key} = ? WHERE id = ?", (value, raw_id)
        )

    # -- stats ----------------------------------------------------------------------------

    def size_bytes(self) -> int:
        return self.db.size_bytes()
