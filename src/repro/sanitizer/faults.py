"""Seeded faults proving the sanitizer actually fires.

Each mode plants exactly one class of corruption — chosen so the run
reports *only* that mode's QA code — against whichever sanitize target
the connector exposes:

==================  =======  =========================================
mode                expects  fault planted
==================  =======  =========================================
unlocked-write      QA601    two rogue workers mutate one resource
                             with no locks and no ordering
lock-across-commit  QA602    a lock acquired after its transaction
                             committed, never released
unsorted-locks      QA501,   two overlapping transactions take shared
                    QA502    locks on the same pair in opposite orders
lost-update         QA603    two overlapping transactions read-then-
                             write one row; the second write clobbers
                             the first (every access lock-protected,
                             so no QA601 — the *history* is the bug)
non-repeatable-read QA604    one transaction reads a row twice without
                             snapshot protection; a foreign commit
                             lands in between
write-skew          QA605    two snapshot transactions each read what
                             the other writes, then both commit
dangling-edge       QA701    an edge/FK row pointing at entities that
                             don't exist
index-skew          QA702    an index entry surgically removed (or a
                             bogus one planted) behind the store's back
skip-fsync          QA704    a modification appended to the WAL but
                             never made durable by a commit
==================  =======  =========================================

``applicable_modes`` reports which modes a connector supports given its
target kinds (e.g. ``lost-update`` needs a relational engine; lock
modes need an engine with a lock manager).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.graphdb.store import GraphStore
from repro.rdf.triples import TripleStore, decode_key, encode_key
from repro.relational.engine import Database
from repro.sanitizer import runtime
from repro.titan.graph import TitanProvider, _encode_value, _pad
from repro.txn import oracle
from repro.txn.locks import LockMode

#: ids far above anything the datagen emits at test scale
_FRESH = 999_999_001


@dataclass(frozen=True)
class Fault:
    name: str
    expected: frozenset[str]
    #: target kinds the mode can corrupt, in dispatch priority order
    kinds: tuple[str, ...]


FAULTS: dict[str, Fault] = {
    "unlocked-write": Fault(
        "unlocked-write",
        frozenset({"QA601"}),
        ("sql", "sqlg", "graph", "rdf", "titan"),
    ),
    "lock-across-commit": Fault(
        "lock-across-commit", frozenset({"QA602"}), ("sql", "sqlg")
    ),
    "unsorted-locks": Fault(
        "unsorted-locks",
        frozenset({"QA501", "QA502"}),
        ("sql", "sqlg"),
    ),
    "lost-update": Fault("lost-update", frozenset({"QA603"}), ("sql",)),
    "non-repeatable-read": Fault(
        "non-repeatable-read", frozenset({"QA604"}), ("sql",)
    ),
    "write-skew": Fault("write-skew", frozenset({"QA605"}), ("sql",)),
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


# -- unlocked-write -> QA601 --------------------------------------------------


def _unlocked_write_sql(db: Database) -> None:
    # a valid personid keeps the FK audit silent; the final commit
    # keeps the replay audit silent — only the race remains
    pid = _first_pk(db, "person")
    table = db.catalog.table("person_email")
    with runtime.worker("rogue-1"):
        handle = table.insert((pid, "sanitize@example.org"))
    with runtime.worker("rogue-2"):
        table.update(handle, {"email": "sanitize2@example.org"})
    db.wal.commit()


def _unlocked_write_sqlg(db: Database) -> None:
    pid = _first_pk(db, "v_person")
    table = db.catalog.table("e_knows")
    row: list[Any] = [None] * len(table.column_names)
    row[table.column_position("eid")] = _FRESH
    row[table.column_position("out_id")] = pid
    row[table.column_position("in_id")] = pid
    row[table.column_position("out_label")] = "person"
    row[table.column_position("in_label")] = "person"
    with runtime.worker("rogue-1"):
        handle = table.insert(tuple(row))
    with runtime.worker("rogue-2"):
        table.update(handle, {})
    db.wal.commit()


def _unlocked_write_graph(store: GraphStore) -> None:
    with runtime.worker("rogue-1"):
        node_id = store.create_node((), {"sanitizeProbe": 0})
    with runtime.worker("rogue-2"):
        store.set_node_prop(node_id, "sanitizeProbe", 1)


def _unlocked_write_rdf(store: TripleStore) -> None:
    # a property predicate: the dangling-endpoint audit only checks
    # edge-predicate objects, and direct adds don't touch the WAL
    with runtime.worker("rogue-1"):
        store.add("sn:sanitizeProbe", "snb:firstName", "alpha")
    with runtime.worker("rogue-2"):
        store.add("sn:sanitizeProbe", "snb:firstName", "beta")


def _unlocked_write_titan(provider: TitanProvider) -> None:
    with runtime.worker("rogue-1"):
        provider.create_vertex("person", {"id": _FRESH})
    with runtime.worker("rogue-2"):
        provider.set_vertex_prop(_FRESH, "sanitizeProbe", 1)


# -- lock-across-commit -> QA602 ----------------------------------------------


def _lock_across_commit(db: Database) -> None:
    txn = db.txns.begin()
    txn.commit()
    db.txns.locks.acquire(
        txn.txn_id, ("sanitize", "leak"), LockMode.EXCLUSIVE
    )


# -- unsorted-locks -> QA501 + QA502 ------------------------------------------


def _unsorted_locks(db: Database) -> None:
    # shared locks on synthetic resources: the two transactions overlap
    # and close an order cycle without ever conflicting, and the aborts
    # release everything so QA602 stays silent.  The order is data-
    # driven: the *static* QA801/QA502 passes must not flag this
    # deliberate fault — only the runtime detector observing the trace
    # should.
    locks = db.txns.locks
    ordered = [("sanitize", "a"), ("sanitize", "b")]
    t1 = db.txns.begin()
    t2 = db.txns.begin()
    for txn, order in ((t1, ordered), (t2, list(reversed(ordered)))):
        for resource in order:
            locks.acquire(txn.txn_id, resource, LockMode.SHARED)
    t1.abort()
    t2.abort()


# -- snapshot anomalies -> QA603 / QA604 / QA605 ------------------------------
#
# Every access below is individually lock-protected, and sequential
# holds of one lock chain the accesses with happens-before edges — the
# race detector stays silent.  The *transactions* still interleave
# non-serializably (early lock release / snapshot reads), which only
# the history audit can see.


def _anomaly_row(db: Database, email: str) -> Any:
    """A fresh person_email row inserted under an exclusive lock."""
    pid = _first_pk(db, "person")
    table = db.catalog.table("person_email")
    with runtime.worker("anomaly-0"):
        setup = db.txns.begin()
        db.txns.locks.acquire(
            setup.txn_id, ("anomaly", email), LockMode.EXCLUSIVE
        )
        handle = table.insert((pid, email))
        setup.commit()
    return handle


def _lost_update(db: Database) -> None:
    table = db.catalog.table("person_email")
    lock = ("anomaly", "anomaly.r0@example.org")
    handle = _anomaly_row(db, "anomaly.r0@example.org")
    with runtime.worker("anomaly-1"):
        t1 = db.txns.begin()
        with oracle.read_view("snapshot"):
            table.fetch(handle)
    with runtime.worker("anomaly-2"):
        t2 = db.txns.begin()
        with oracle.read_view("snapshot"):
            table.fetch(handle)
        db.txns.locks.acquire(t2.txn_id, lock, LockMode.EXCLUSIVE)
        table.update(handle, {"email": "anomaly.r2@example.org"})
        t2.commit()
    with runtime.worker("anomaly-1"):
        # t1 updates from its stale snapshot: t2's committed write is
        # overwritten without ever having been observed
        db.txns.locks.acquire(t1.txn_id, lock, LockMode.EXCLUSIVE)
        table.update(handle, {"email": "anomaly.r1@example.org"})
        t1.commit()


def _non_repeatable_read(db: Database) -> None:
    table = db.catalog.table("person_email")
    lock = ("anomaly", "anomaly.n0@example.org")
    handle = _anomaly_row(db, "anomaly.n0@example.org")
    with runtime.worker("anomaly-1"):
        t1 = db.txns.begin()
        db.txns.locks.acquire(t1.txn_id, lock, LockMode.SHARED)
        table.fetch(handle)  # bare read: no snapshot protection
        db.txns.locks.release_all(t1.txn_id)  # early release: the bug
    with runtime.worker("anomaly-2"):
        t2 = db.txns.begin()
        db.txns.locks.acquire(t2.txn_id, lock, LockMode.EXCLUSIVE)
        table.update(handle, {"email": "anomaly.n2@example.org"})
        t2.commit()
    with runtime.worker("anomaly-1"):
        db.txns.locks.acquire(t1.txn_id, lock, LockMode.SHARED)
        table.fetch(handle)  # same transaction, different answer
        t1.commit()


def _write_skew(db: Database) -> None:
    table = db.catalog.table("person_email")
    backup_lock = ("anomaly", "anomaly.b0@example.org")
    on_call_lock = ("anomaly", "anomaly.a0@example.org")
    on_call = _anomaly_row(db, "anomaly.a0@example.org")
    backup = _anomaly_row(db, "anomaly.b0@example.org")
    with runtime.worker("anomaly-1"):
        t1 = db.txns.begin()
        with oracle.read_view("snapshot"):
            table.fetch(on_call)
    with runtime.worker("anomaly-2"):
        t2 = db.txns.begin()
        with oracle.read_view("snapshot"):
            table.fetch(backup)
    with runtime.worker("anomaly-1"):
        db.txns.locks.acquire(t1.txn_id, backup_lock, LockMode.EXCLUSIVE)
        table.update(backup, {"email": "anomaly.b1@example.org"})
        t1.commit()
    with runtime.worker("anomaly-2"):
        db.txns.locks.acquire(t2.txn_id, on_call_lock, LockMode.EXCLUSIVE)
        table.update(on_call, {"email": "anomaly.a2@example.org"})
        t2.commit()


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
    ("unlocked-write", "sql"): _unlocked_write_sql,
    ("unlocked-write", "sqlg"): _unlocked_write_sqlg,
    ("unlocked-write", "graph"): _unlocked_write_graph,
    ("unlocked-write", "rdf"): _unlocked_write_rdf,
    ("unlocked-write", "titan"): _unlocked_write_titan,
    ("lock-across-commit", "sql"): _lock_across_commit,
    ("lock-across-commit", "sqlg"): _lock_across_commit,
    ("unsorted-locks", "sql"): _unsorted_locks,
    ("unsorted-locks", "sqlg"): _unsorted_locks,
    ("lost-update", "sql"): _lost_update,
    ("non-repeatable-read", "sql"): _non_repeatable_read,
    ("write-skew", "sql"): _write_skew,
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
