"""The Titan provider: adjacency encoded in ordered KV rows.

Data model (Titan's vertex-centric layout):

* ``v:<vid>``                                    -> vertex label + props
* ``e:<vid>:<label>:<dir>:<other>:<eid>``        -> edge props (stored
  from *both* endpoints, as Titan duplicates each edge)
* ``i:<label>:<key>:<value>:<vid>``              -> composite index entry

Ids are zero-padded so byte order equals numeric order; adjacency entries
sort by edge label first (Titan's vertex-centric sort order), so a
labelled neighbourhood — in either or both directions — is a single
contiguous range scan: one wide-row slice on Cassandra, one cursor range
on BerkeleyDB.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from typing import Any

from repro.simclock.ledger import charge
from repro.storage.bdb import BDBStore
from repro.storage.lsm import LSMTree
from repro.storage.mvcc import VersionStore
from repro.tinkerpop.structure import GraphProvider

_DIR = {"out": "o", "in": "i"}


def _pad(value: int) -> str:
    return f"{value:020d}"


def _encode_value(value: Any) -> str:
    """Index-key encoding that keeps one type per property orderly."""
    if isinstance(value, int) and not isinstance(value, bool):
        return f"n{value:020d}"
    return f"s{value}"


class TitanProvider(GraphProvider):
    def __init__(
        self,
        backend: LSMTree | BDBStore,
        *,
        name: str = "titan",
        remote_backend: bool = False,
        requires_locking: bool = False,
    ) -> None:
        self.backend = backend
        self.name = name
        self.remote_backend = remote_backend
        self.requires_locking = requires_locking
        self._indexed: set[tuple[str, str]] = set()
        self._next_eid = 0
        # version metadata keyed ("v", vid) / ("e", eid); no deletes in
        # the SPI, so only stamps and property-update chains occur
        self.mvcc = VersionStore(f"{name}-mvcc")
        # Titan's transaction-level vertex cache: repeated property access
        # within a traversal hits this instead of the storage backend
        self._vertex_cache: dict[Any, dict] = {}

    # -- KV plumbing ------------------------------------------------------------

    def _get(self, key: str) -> bytes | None:
        if self.remote_backend:
            charge("backend_rtt")
        return self.backend.get(key.encode())

    def _put(self, key: str, value: bytes) -> None:
        if self.remote_backend:
            charge("backend_rtt")
        self.backend.put(key.encode(), value)

    def _delete(self, key: str) -> None:
        if self.remote_backend:
            charge("backend_rtt")
        self.backend.delete(key.encode())

    def _scan(self, prefix: str) -> Iterator[tuple[str, bytes]]:
        if self.remote_backend:
            charge("backend_rtt")
        lo = prefix.encode()
        hi = prefix.encode() + b"\xff"
        for key, value in self.backend.range_scan(lo, hi):
            yield key.decode(), value

    # -- schema ---------------------------------------------------------------------

    def create_index(self, label: str, key: str) -> None:
        self._indexed.add((label, key))

    def has_lookup_index(self, label: str, key: str) -> bool:
        return (label, key) in self._indexed

    # -- SPI: writes -------------------------------------------------------------------

    def create_vertex(self, label: str, props: dict[str, Any]) -> Any:
        vid = props.get("id")
        if vid is None:
            raise ValueError("Titan vertices need an 'id' property")
        if self.requires_locking and (label, "id") in self._indexed:
            # distributed lock claim + verify round trips on Cassandra
            charge("lock_rtt")
        padded = _pad(vid)
        self._put(
            f"v:{padded}",
            json.dumps({"label": label, "props": props}).encode(),
        )
        self.mvcc.stamp(("v", vid))
        for ilabel, ikey in self._indexed:
            if ilabel == label and props.get(ikey) is not None:
                self._put(
                    f"i:{label}:{ikey}:{_encode_value(props[ikey])}:{padded}",
                    b"",
                )
        return vid

    def create_edge(
        self, label: str, out_vid: Any, in_vid: Any, props: dict[str, Any]
    ) -> Any:
        self._next_eid += 1
        eid = self._next_eid
        payload = json.dumps(props).encode() if props else b"{}"
        # both adjacency keys are built from one padding of each id
        out_p, in_p, eid_p = _pad(out_vid), _pad(in_vid), _pad(eid)
        self._put(f"e:{out_p}:{label}:o:{in_p}:{eid_p}", payload)
        self._put(f"e:{in_p}:{label}:i:{out_p}:{eid_p}", payload)
        self.mvcc.stamp(("e", eid))
        return (eid, label, out_vid, in_vid)

    def set_vertex_prop(self, vid: Any, key: str, value: Any) -> None:
        raw = self._get(f"v:{_pad(vid)}")
        if raw is None:
            raise KeyError(f"no vertex {vid}")
        record = json.loads(raw)
        self.mvcc.record_update(("v", vid), json.loads(raw))
        label = record["label"]
        old = record["props"].get(key)
        record["props"][key] = value
        self._vertex_cache.pop(vid, None)
        self._put(f"v:{_pad(vid)}", json.dumps(record).encode())
        if (label, key) in self._indexed and old != value:
            # re-file the composite-index entry under the new value
            if old is not None:
                self._delete(
                    f"i:{label}:{key}:{_encode_value(old)}:{_pad(vid)}"
                )
            if value is not None:
                self._put(
                    f"i:{label}:{key}:{_encode_value(value)}:{_pad(vid)}",
                    b"",
                )

    # -- SPI: reads ---------------------------------------------------------------------

    def vertices(self, label: str | None = None) -> Iterator[Any]:
        for key, value in self._scan("v:"):
            charge("value_cpu")
            record = json.loads(value)
            vid = record["props"]["id"]
            if (
                label is None or record["label"] == label
            ) and self.mvcc.visible(("v", vid)):
                yield vid

    def _vertex_record(self, vid: Any) -> dict:
        if self.mvcc.stale(("v", vid)):
            # snapshot older than the latest write: serve the covering
            # chain version, bypassing the transaction-level cache
            charge("value_cpu")
            return self.mvcc.read(("v", vid), None)
        cached = self._vertex_cache.get(vid)
        if cached is not None:
            charge("value_cpu")
            return cached
        raw = self._get(f"v:{_pad(vid)}")
        if raw is None:
            raise KeyError(f"no vertex {vid}")
        record = json.loads(raw)
        self._vertex_cache[vid] = record
        return record

    def vertex_label(self, vid: Any) -> str:
        return self._vertex_record(vid)["label"]

    def vertex_props(self, vid: Any) -> dict[str, Any]:
        return self._vertex_record(vid)["props"]

    def edge_props(self, eid: Any) -> dict[str, Any]:
        eid_num, label, out_vid, in_vid = eid
        raw = self._get(
            f"e:{_pad(out_vid)}:{label}:o:{_pad(in_vid)}:{_pad(eid_num)}"
        )
        if raw is None:
            raise KeyError(f"no edge {eid}")
        return json.loads(raw)

    def edge_label(self, eid: Any) -> str:
        return eid[1]

    def edge_endpoints(self, eid: Any) -> tuple[Any, Any]:
        _eid, _label, out_vid, in_vid = eid
        return out_vid, in_vid

    def adjacent(
        self, vid: Any, direction: str, label: str | None
    ) -> Iterator[tuple[Any, Any]]:
        # with a label, any direction (incl. both) is one contiguous scan;
        # without one, the whole adjacency row is scanned and filtered
        if label is not None:
            prefixes = [f"e:{_pad(vid)}:{label}:"]
            if direction in _DIR:
                prefixes = [f"e:{_pad(vid)}:{label}:{_DIR[direction]}:"]
        else:
            prefixes = [f"e:{_pad(vid)}:"]
        wanted = _DIR.get(direction)
        for prefix in prefixes:
            for key, _value in self._scan(prefix):
                charge("value_cpu")
                parts = key.split(":")
                elabel = parts[2]
                dir_code = parts[3]
                other = int(parts[4])
                eid_num = int(parts[5])
                if wanted is not None and dir_code != wanted:
                    continue
                if not self.mvcc.visible(("e", eid_num)):
                    continue
                if dir_code == "o":
                    eid = (eid_num, elabel, vid, other)
                else:
                    eid = (eid_num, elabel, other, vid)
                yield eid, other

    def lookup(self, label: str, key: str, value: Any) -> list[Any]:
        """Vertex ids via the composite index, snapshot-corrected.

        Index rows are unversioned: a ``set_vertex_prop`` after the
        current snapshot began re-filed the ``i:`` entry, so vertices
        stamped after the snapshot (``mvcc.stale_keys()``) are
        re-checked against their covering chain version — every such
        version walk bypasses the current index row entirely.
        """
        if (label, key) not in self._indexed:
            raise KeyError(f"no Titan index on {label}.{key}")
        prefix = f"i:{label}:{key}:{_encode_value(value)}:"
        vids = [
            int(entry_key.rsplit(":", 1)[1])
            for entry_key, _ in self._scan(prefix)
        ]
        hits = [vid for vid in vids if self.mvcc.visible(("v", vid))]
        stale = [k for k in self.mvcc.stale_keys() if k[0] == "v"]
        if not stale:
            return hits

        def snapshot_matches(vkey: tuple) -> bool:
            # chain-covered read: current value is never consulted
            record = self.mvcc.read(vkey, None)
            return (
                record["label"] == label
                and record["props"].get(key) == value
            )

        kept = self.mvcc.recheck_stale(
            [("v", vid) for vid in hits], stale, snapshot_matches
        )
        return [vid for _, vid in kept]

    # -- stats -------------------------------------------------------------------------------

    def size_bytes(self) -> int:
        return self.backend.size_bytes()

    @property
    def serializes_writers(self) -> bool:
        return getattr(self.backend, "serializes_writers", False)


def titan_cassandra() -> TitanProvider:
    """Titan 1.1 with the Cassandra storage backend (separate process)."""
    return TitanProvider(
        LSMTree(memtable_limit=16384, max_sstables=6, name="cassandra"),
        name="titan-cassandra",
        remote_backend=True,
        requires_locking=True,
    )


def titan_berkeley() -> TitanProvider:
    """Titan 1.1 with embedded BerkeleyDB (transactional, single-writer)."""
    return TitanProvider(
        BDBStore(name="berkeleydb"),
        name="titan-berkeley",
        remote_backend=False,
        requires_locking=False,
    )
