"""Seeded faults proving the integrity audits actually fire.

Each mode plants exactly one class of corruption — chosen so the run
reports *only* that mode's QA code — against whichever sanitize target
the connector exposes:

==================  =======  =========================================
mode                expects  fault planted
==================  =======  =========================================
dangling-edge       QA701    an edge/FK row pointing at entities that
                             don't exist
index-skew          QA702    an index entry surgically removed (or a
                             bogus one planted) behind the store's back
skip-fsync          QA704    a modification appended to the WAL but
                             never made durable by a commit
==================  =======  =========================================

``applicable_modes`` reports which modes a connector supports given its
target kinds (e.g. ``skip-fsync`` needs an engine with a WAL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.graphdb.store import GraphStore
from repro.rdf.triples import TripleStore, decode_key, encode_key
from repro.relational.engine import Database
from repro.titan.graph import TitanProvider, _encode_value, _pad

#: ids far above anything the datagen emits at test scale
_FRESH = 999_999_001


@dataclass(frozen=True)
class Fault:
    name: str
    expected: frozenset[str]
    #: target kinds the mode can corrupt, in dispatch priority order
    kinds: tuple[str, ...]


FAULTS: dict[str, Fault] = {
    "dangling-edge": Fault(
        "dangling-edge",
        frozenset({"QA701"}),
        ("sql", "sqlg", "graph", "rdf", "titan"),
    ),
    "index-skew": Fault(
        "index-skew",
        frozenset({"QA702"}),
        ("sql", "sqlg", "graph", "rdf", "titan"),
    ),
    "skip-fsync": Fault(
        "skip-fsync", frozenset({"QA704"}), ("wal", "sql", "sqlg")
    ),
}


def applicable_modes(targets: dict[str, Any]) -> list[str]:
    """Fault modes the connector's targets support, in table order."""
    return [
        name
        for name, fault in FAULTS.items()
        if any(kind in targets for kind in fault.kinds)
    ]


def inject(mode: str, targets: dict[str, Any]) -> None:
    """Plant the fault into the highest-priority applicable target."""
    fault = FAULTS[mode]
    for kind in fault.kinds:
        target = targets.get(kind)
        if target is not None:
            _INJECTORS[(mode, kind)](target)
            return
    raise ValueError(
        f"fault {mode!r} is not applicable to targets "
        f"{sorted(targets)}"
    )


# -- helpers ------------------------------------------------------------------


def _first_pk(db: Database, table_name: str) -> Any:
    table = db.catalog.table(table_name)
    pos = table.column_position(table.primary_key or "id")
    for _handle, row in table.scan():
        return row[pos]
    raise LookupError(f"table {table_name} is empty")


# -- dangling-edge -> QA701 ---------------------------------------------------


def _dangling_edge_sql(db: Database) -> None:
    db.catalog.table("knows").insert((_FRESH, _FRESH + 1, 0))
    db.wal.commit()


def _dangling_edge_sqlg(db: Database) -> None:
    table = db.catalog.table("e_knows")
    row: list[Any] = [None] * len(table.column_names)
    row[table.column_position("eid")] = _FRESH + 1
    row[table.column_position("out_id")] = _FRESH
    row[table.column_position("in_id")] = _FRESH + 1
    row[table.column_position("out_label")] = "person"
    row[table.column_position("in_label")] = "person"
    table.insert(tuple(row))
    db.wal.commit()


def _dangling_edge_graph(store: GraphStore) -> None:
    start = store.create_node((), {})
    end = store.create_node((), {})
    store.create_rel("knows", start, end, {})
    # record-level corruption: delete the endpoint behind the API's
    # still-has-relationships check
    store._nodes[end].deleted = True
    store.node_count -= 1


def _dangling_edge_rdf(store: TripleStore) -> None:
    store.add("sn:sanitizeSrc", "snb:knows", "sn:sanitizeGhost")


def _dangling_edge_titan(provider: TitanProvider) -> None:
    provider.create_edge("knows", _FRESH, _FRESH + 1, {})


# -- index-skew -> QA702 ------------------------------------------------------


def _index_skew_sql(db: Database) -> None:
    _drop_pk_index_entry(db, "person")


def _index_skew_sqlg(db: Database) -> None:
    _drop_pk_index_entry(db, "v_person")


def _drop_pk_index_entry(db: Database, table_name: str) -> None:
    table = db.catalog.table(table_name)
    pk = table.primary_key
    assert pk is not None
    pos = table.column_position(pk)
    for handle, row in table.scan():
        table._indexes[pk].delete(row[pos], handle)
        return
    raise LookupError(f"table {table_name} is empty")


def _index_skew_graph(store: GraphStore) -> None:
    for label, ids in store._label_index.items():
        for node_id in sorted(ids):
            ids.discard(node_id)
            return
    raise LookupError("label index is empty")


def _index_skew_rdf(store: TripleStore) -> None:
    # skip rdf:type rows: the dangling-endpoint audit derives its
    # typed-entity set through the POS index, and skewing a type triple
    # would cascade into QA701s
    type_id = store.lookup_term("rdf:type")
    for key, _ in store._spo.items():
        s_id, p_id, o_id = decode_key(key)
        if p_id == type_id:
            continue
        store._pos.delete(encode_key(p_id, o_id, s_id))
        return
    raise LookupError("triple store has no non-type triples")


def _index_skew_titan(provider: TitanProvider) -> None:
    provider._put(
        f"i:person:id:{_encode_value(_FRESH)}:{_pad(_FRESH)}", b""
    )


# -- skip-fsync -> QA704 ------------------------------------------------------


def _skip_fsync_wal(wal: Any) -> None:
    wal.append(b"sanitize: lost update")


def _skip_fsync_sql(db: Database) -> None:
    pid = _first_pk(db, "person")
    db.catalog.table("person_email").insert((pid, "lost@example.org"))
    # no commit: the record is appended but never durable


def _skip_fsync_sqlg(db: Database) -> None:
    table = db.catalog.table("v_person")
    pos = table.column_position(table.primary_key or "id")
    for _handle, row in table.scan():
        fresh = list(row)
        fresh[pos] = _FRESH + 2
        table.insert(tuple(fresh))
        return
    raise LookupError("table v_person is empty")


_INJECTORS: dict[tuple[str, str], Any] = {
    ("dangling-edge", "sql"): _dangling_edge_sql,
    ("dangling-edge", "sqlg"): _dangling_edge_sqlg,
    ("dangling-edge", "graph"): _dangling_edge_graph,
    ("dangling-edge", "rdf"): _dangling_edge_rdf,
    ("dangling-edge", "titan"): _dangling_edge_titan,
    ("index-skew", "sql"): _index_skew_sql,
    ("index-skew", "sqlg"): _index_skew_sqlg,
    ("index-skew", "graph"): _index_skew_graph,
    ("index-skew", "rdf"): _index_skew_rdf,
    ("index-skew", "titan"): _index_skew_titan,
    ("skip-fsync", "wal"): _skip_fsync_wal,
    ("skip-fsync", "sql"): _skip_fsync_sql,
    ("skip-fsync", "sqlg"): _skip_fsync_sqlg,
}
