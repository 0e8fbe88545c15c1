"""Post-run data-integrity audits: QA701/QA702/QA704.

Each connector exposes its auditable internals through
``Connector.sanitize_targets()`` — a mapping from a *target kind* to an
engine object.  The auditors walk the engine's primary structures and
its redundant ones (indexes, the WAL) and report every
disagreement:

QA701  dangling edge / foreign-key endpoint
QA702  index entry disagrees with the heap / store row
QA704  WAL / group-commit replay divergence

Target kinds:

``sql``    a relational :class:`~repro.relational.engine.Database`
           holding the SNB schema (FK map below)
``sqlg``   a relational Database holding Sqlg's ``v_*``/``e_*`` tables
``graph``  a :class:`~repro.graphdb.store.GraphStore`
``rdf``    a :class:`~repro.rdf.triples.TripleStore`
``titan``  a :class:`~repro.titan.graph.TitanProvider`
``wal``    a :class:`~repro.storage.wal.WriteAheadLog` whose records
           are opaque (replay compare impossible; un-fsynced appends
           are the divergence proxy)

Audits run with no active cost ledger, so the ``charge`` calls inside
the engines are no-ops and the walk is free in simulated time.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.diagnostics import Diagnostic, SourceLocation, make
from repro.graphdb.store import GraphStore
from repro.rdf.triples import TripleStore, decode_key
from repro.relational.engine import Database
from repro.storage.hashindex import HashIndex
from repro.storage.wal import WriteAheadLog
from repro.titan.graph import TitanProvider, _encode_value, _pad


def _loc(operation: str) -> SourceLocation:
    return SourceLocation("runtime", operation)


def audit_connector(connector: Any) -> list[Diagnostic]:
    """Run every applicable integrity audit for ``connector``."""
    diagnostics: list[Diagnostic] = []
    for kind, target in sorted(connector.sanitize_targets().items()):
        if kind == "sql":
            diagnostics += _audit_sql_fks(target, _SQL_FOREIGN_KEYS)
            diagnostics += _audit_sql_indexes(target)
            diagnostics += _audit_sql_replay(target)
        elif kind == "sqlg":
            diagnostics += _audit_sqlg_edges(target)
            diagnostics += _audit_sql_indexes(target)
            diagnostics += _audit_sql_replay(target)
        elif kind == "graph":
            diagnostics += _audit_graph_store(target)
        elif kind == "rdf":
            diagnostics += _audit_triple_store(target)
        elif kind == "titan":
            diagnostics += _audit_titan(target)
        elif kind == "wal":
            diagnostics += _audit_wal(target)
        else:
            raise ValueError(f"unknown sanitize target kind {kind!r}")
    return diagnostics


# -- relational ---------------------------------------------------------------

#: table -> [(fk column, candidate referenced tables)]; a NULL FK value
#: is never dangling.  Multi-candidate targets model SNB's message
#: polymorphism (a reply/like may point at a post or a comment).
_SQL_FOREIGN_KEYS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "person": [("cityid", ("place",))],
    "person_speaks": [("personid", ("person",))],
    "person_email": [("personid", ("person",))],
    "person_interest": [
        ("personid", ("person",)),
        ("tagid", ("tag",)),
    ],
    "person_studyat": [
        ("personid", ("person",)),
        ("orgid", ("organisation",)),
    ],
    "person_workat": [
        ("personid", ("person",)),
        ("orgid", ("organisation",)),
    ],
    "knows": [("p1", ("person",)), ("p2", ("person",))],
    "forum": [("moderatorid", ("person",))],
    "forum_tag": [("forumid", ("forum",)), ("tagid", ("tag",))],
    "forum_member": [
        ("forumid", ("forum",)),
        ("personid", ("person",)),
    ],
    "post": [
        ("creatorid", ("person",)),
        ("forumid", ("forum",)),
        ("countryid", ("place",)),
    ],
    "post_tag": [("postid", ("post",)), ("tagid", ("tag",))],
    "comment": [
        ("creatorid", ("person",)),
        ("replyof", ("post", "comment")),
        ("rootpost", ("post",)),
        ("countryid", ("place",)),
    ],
    "comment_tag": [("commentid", ("comment",)), ("tagid", ("tag",))],
    "likes": [
        ("personid", ("person",)),
        ("messageid", ("post", "comment")),
    ],
    "tag": [("classid", ("tagclass",))],
    "tagclass": [("subclassof", ("tagclass",))],
    "place": [("partof", ("place",))],
    "organisation": [("placeid", ("place",))],
}


def _pk_values(db: Database, table_name: str) -> set[Any]:
    table = db.catalog.table(table_name)
    pos = (
        table.column_position(table.primary_key)
        if table.primary_key is not None
        else 0
    )
    return {row[pos] for _, row in table.scan()}


def _audit_sql_fks(
    db: Database,
    fk_map: dict[str, list[tuple[str, tuple[str, ...]]]],
) -> list[Diagnostic]:
    """QA701: every FK value resolves to a row in a candidate table."""
    diagnostics: list[Diagnostic] = []
    existing = set(db.catalog.table_names())
    pk_cache: dict[str, set[Any]] = {}
    for table_name, fks in fk_map.items():
        if table_name not in existing:
            continue
        table = db.catalog.table(table_name)
        checks = []
        for column, targets in fks:
            valid: set[Any] = set()
            for target in targets:
                if target not in pk_cache:
                    pk_cache[target] = _pk_values(db, target)
                valid |= pk_cache[target]
            checks.append((table.column_position(column), column, valid))
        for _handle, row in table.scan():
            for pos, column, valid in checks:
                value = row[pos]
                if value is not None and value not in valid:
                    diagnostics.append(
                        make(
                            "QA701",
                            f"{table_name}.{column} = {value!r} "
                            f"references no existing row",
                            _loc(f"integrity:{table_name}"),
                        )
                    )
    return diagnostics


def _audit_sqlg_edges(db: Database) -> list[Diagnostic]:
    """QA701 for Sqlg: ``e_*`` endpoints resolve in their ``v_*``
    tables (the target vertex table comes from the per-row label)."""
    diagnostics: list[Diagnostic] = []
    names = db.catalog.table_names()
    pk_cache: dict[str, set[Any]] = {}
    for name in names:
        if not name.startswith("e_"):
            continue
        table = db.catalog.table(name)
        cols = {
            c: table.column_position(c)
            for c in ("out_id", "in_id", "out_label", "in_label")
        }
        for _handle, row in table.scan():
            for id_col, label_col in (
                ("out_id", "out_label"),
                ("in_id", "in_label"),
            ):
                vid = row[cols[id_col]]
                vtable = f"v_{row[cols[label_col]]}"
                if vid is None:
                    continue
                if vtable not in names:
                    ids: set[Any] = set()
                else:
                    if vtable not in pk_cache:
                        pk_cache[vtable] = _pk_values(db, vtable)
                    ids = pk_cache[vtable]
                if vid not in ids:
                    diagnostics.append(
                        make(
                            "QA701",
                            f"{name}.{id_col} = {vid!r} references no "
                            f"row in {vtable}",
                            _loc(f"integrity:{name}"),
                        )
                    )
    return diagnostics


def _audit_sql_indexes(db: Database) -> list[Diagnostic]:
    """QA702: hash indexes agree with the heap in both directions."""
    diagnostics: list[Diagnostic] = []
    for name in db.catalog.table_names():
        table = db.catalog.table(name)
        rows = {handle: row for handle, row in table.scan()}
        for column, index in table._indexes.items():
            if not isinstance(index, HashIndex):
                continue  # no B+tree secondaries in the SNB schemas
            pos = table.column_position(column)
            loc = _loc(f"integrity:{name}.{column}")
            for key, handle in index.items():
                row = rows.get(handle)
                if row is None:
                    diagnostics.append(
                        make(
                            "QA702",
                            f"index {name}.{column} maps {key!r} to "
                            f"handle {handle!r} but no such row exists",
                            loc,
                        )
                    )
                elif row[pos] != key:
                    diagnostics.append(
                        make(
                            "QA702",
                            f"index {name}.{column} maps {key!r} to a "
                            f"row whose value is {row[pos]!r}",
                            loc,
                        )
                    )
            for handle, row in rows.items():
                value = row[pos]
                if value is None:
                    continue
                if handle not in index.search(value):
                    diagnostics.append(
                        make(
                            "QA702",
                            f"row {value!r} of {name}.{column} is "
                            f"missing from its index",
                            loc,
                        )
                    )
    return diagnostics


def _audit_sql_replay(db: Database) -> list[Diagnostic]:
    """QA704: replaying the durable WAL reproduces the live tables."""
    try:
        replayed = Database.recover(
            db.wal,
            storage=db.catalog.storage,
            transitive_support=db.transitive_support,
            name=f"{db.name}-replay",
        )
    except Exception as exc:  # a broken log is itself a divergence
        return [
            make(
                "QA704",
                f"WAL replay failed: {exc}",
                _loc("integrity:replay"),
            )
        ]
    diagnostics: list[Diagnostic] = []
    live_names = set(db.catalog.table_names())
    replay_names = set(replayed.catalog.table_names())
    for name in sorted(live_names | replay_names):
        if name not in replay_names or name not in live_names:
            diagnostics.append(
                make(
                    "QA704",
                    f"table {name} exists only "
                    f"{'live' if name in live_names else 'in the replay'}",
                    _loc(f"integrity:{name}"),
                )
            )
            continue
        live = sorted(
            repr(row) for _, row in db.catalog.table(name).scan()
        )
        replay = sorted(
            repr(row) for _, row in replayed.catalog.table(name).scan()
        )
        if live != replay:
            diagnostics.append(
                make(
                    "QA704",
                    f"table {name}: {len(live)} live row(s) vs "
                    f"{len(replay)} after WAL replay",
                    _loc(f"integrity:{name}"),
                )
            )
    return diagnostics


# -- property graph -----------------------------------------------------------


def _audit_graph_store(store: GraphStore) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    # QA701: live relationships must join two live nodes
    for rel_id, record in enumerate(store._rels):
        if record.deleted:
            continue
        for endpoint in (record.start, record.end):
            node = (
                store._nodes[endpoint]
                if 0 <= endpoint < len(store._nodes)
                else None
            )
            if node is None or node.deleted:
                diagnostics.append(
                    make(
                        "QA701",
                        f"rel {rel_id} ({record.rel_type}) endpoint "
                        f"{endpoint} is deleted or missing",
                        _loc("integrity:rels"),
                    )
                )

    # QA702: label index and (label, prop) indexes, both directions
    live = {
        node_id: record
        for node_id, record in enumerate(store._nodes)
        if not record.deleted
    }
    for label, ids in store._label_index.items():
        loc = _loc(f"integrity:label:{label}")
        for node_id in sorted(ids):
            record = live.get(node_id)
            if record is None or label not in record.labels:
                diagnostics.append(
                    make(
                        "QA702",
                        f"label index {label} lists node {node_id}, "
                        f"which is deleted or unlabeled",
                        loc,
                    )
                )
    for node_id, record in live.items():
        for label in record.labels:
            if node_id not in store._label_index.get(label, ()):
                diagnostics.append(
                    make(
                        "QA702",
                        f"node {node_id} carries :{label} but is "
                        f"missing from the label index",
                        _loc(f"integrity:label:{label}"),
                    )
                )
    for (label, prop), index in store._indexes.items():
        loc = _loc(f"integrity:{label}.{prop}")
        for value, node_id in index.items():
            record = live.get(node_id)
            if (
                record is None
                or label not in record.labels
                or record.props.get(prop) != value
            ):
                diagnostics.append(
                    make(
                        "QA702",
                        f"index :{label}({prop}) maps {value!r} to "
                        f"node {node_id}, which disagrees",
                        loc,
                    )
                )
        for node_id, record in live.items():
            if label not in record.labels:
                continue
            value = record.props.get(prop)
            if value is not None and node_id not in index.search(value):
                diagnostics.append(
                    make(
                        "QA702",
                        f"node {node_id} ({prop}={value!r}) is missing "
                        f"from index :{label}({prop})",
                        loc,
                    )
                )

    return diagnostics


# -- RDF ----------------------------------------------------------------------

#: predicates whose object must be a typed entity (edge predicates of
#: the SNB vocabulary plus the reified-statement endpoint predicates)
_RDF_EDGE_PREDICATES = frozenset(
    {
        "snb:knows",
        "snb:hasCreator",
        "snb:containerOf",
        "snb:replyOf",
        "snb:rootPost",
        "snb:likes",
        "snb:hasModerator",
        "snb:hasMember",
        "snb:hasTag",
        "snb:hasInterest",
        "snb:isLocatedIn",
        "snb:isPartOf",
        "snb:isSubclassOf",
        "snb:hasType",
        "snb:studyAt",
        "snb:workAt",
        "snb:knowsFrom",
        "snb:knowsTo",
        "snb:memberForum",
        "snb:memberPerson",
        "snb:likePerson",
        "snb:likeMessage",
    }
)


def _audit_triple_store(store: TripleStore) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    # QA701: edge-predicate objects must carry an rdf:type
    typed = {s for s, _p, _o in store.match(None, "rdf:type", None)}
    for s, p, o in store.match(None, None, None):
        if p in _RDF_EDGE_PREDICATES and o not in typed:
            diagnostics.append(
                make(
                    "QA701",
                    f"triple ({s} {p} {o}): object is not a typed "
                    f"entity",
                    _loc("integrity:triples"),
                )
            )

    # QA702: the three covering indexes must hold the same triple set
    spo = {decode_key(key) for key, _ in store._spo.items()}
    pos = {
        (s, p, o)
        for (p, o, s) in (decode_key(key) for key, _ in store._pos.items())
    }
    osp = {
        (s, p, o)
        for (o, s, p) in (decode_key(key) for key, _ in store._osp.items())
    }
    for name, rotated in (("pos", pos), ("osp", osp)):
        if rotated != spo:
            missing = len(spo - rotated)
            extra = len(rotated - spo)
            diagnostics.append(
                make(
                    "QA702",
                    f"covering index {name} disagrees with spo: "
                    f"{missing} missing, {extra} extra",
                    _loc(f"integrity:{name}"),
                )
            )
    return diagnostics


# -- Titan --------------------------------------------------------------------


def _audit_titan(provider: TitanProvider) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    # QA701: both endpoints of every adjacency row must exist (each
    # edge is stored twice; report once per edge id)
    seen_edges: set[str] = set()
    for key, _value in provider._scan("e:"):
        parts = key.split(":")
        if parts[5] in seen_edges:
            continue
        seen_edges.add(parts[5])
        for vid in (parts[1], parts[4]):
            if provider._get(f"v:{vid}") is None:
                diagnostics.append(
                    make(
                        "QA701",
                        f"edge row {key} references missing vertex "
                        f"{int(vid)}",
                        _loc("integrity:edges"),
                    )
                )

    # QA702: composite index entries vs vertex rows, both directions
    for key, _value in provider._scan("i:"):
        parts = key.split(":")
        label, prop, vid = parts[1], parts[2], parts[-1]
        encoded = ":".join(parts[3:-1])
        loc = _loc(f"integrity:index:{label}.{prop}")
        raw = provider._get(f"v:{vid}")
        if raw is None:
            diagnostics.append(
                make(
                    "QA702",
                    f"index entry {key} references missing vertex "
                    f"{int(vid)}",
                    loc,
                )
            )
            continue
        record = json.loads(raw)
        value = record["props"].get(prop)
        if (
            record["label"] != label
            or value is None
            or _encode_value(value) != encoded
        ):
            diagnostics.append(
                make(
                    "QA702",
                    f"index entry {key} disagrees with vertex "
                    f"{int(vid)} ({prop}={value!r})",
                    loc,
                )
            )
    for _key, raw in provider._scan("v:"):
        record = json.loads(raw)
        vid = record["props"]["id"]
        for ilabel, ikey in sorted(provider._indexed):
            if record["label"] != ilabel:
                continue
            value = record["props"].get(ikey)
            if value is None:
                continue
            entry = (
                f"i:{ilabel}:{ikey}:{_encode_value(value)}:{_pad(vid)}"
            )
            if provider._get(entry) is None:
                diagnostics.append(
                    make(
                        "QA702",
                        f"vertex {vid} ({ikey}={value!r}) is missing "
                        f"from index {ilabel}.{ikey}",
                        _loc(f"integrity:index:{ilabel}.{ikey}"),
                    )
                )
    return diagnostics


# -- WAL ----------------------------------------------------------------------


def _audit_wal(wal: WriteAheadLog) -> list[Diagnostic]:
    """QA704 for engines whose WAL records are opaque markers: any
    record appended but never fsynced would be lost on a crash."""
    if wal.unsynced_records == 0:
        return []
    return [
        make(
            "QA704",
            f"{wal.name}: {wal.unsynced_records} record(s) appended "
            f"but never made durable by a commit",
            _loc("integrity:wal"),
        )
    ]
