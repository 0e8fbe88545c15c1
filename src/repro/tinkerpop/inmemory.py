"""TinkerGraph: the in-memory reference provider (tests and embedding)."""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.sanitizer import runtime
from repro.simclock.ledger import charge
from repro.storage.mvcc import VersionStore
from repro.tinkerpop.structure import GraphProvider


class TinkerGraphProvider(GraphProvider):
    """Dict-backed provider; the cheapest possible compliant backend."""

    name = "tinkergraph"

    def __init__(self) -> None:
        self._vertex_labels: dict[int, str] = {}
        self._vertex_props: dict[int, dict[str, Any]] = {}
        self._edge_labels: dict[int, str] = {}
        self._edge_props: dict[int, dict[str, Any]] = {}
        self._edge_ends: dict[int, tuple[int, int]] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._indexes: dict[tuple[str, str], dict[Any, list[int]]] = {}
        # version metadata keyed ("v", vid) / ("e", eid); the SPI has no
        # deletes, so only stamps and property-update chains occur
        self.mvcc = VersionStore("tinkergraph-mvcc")
        self._next_vid = 0
        self._next_eid = 0

    # -- index management ------------------------------------------------------

    def create_index(self, label: str, key: str) -> None:
        if (label, key) in self._indexes:
            return
        index: dict[Any, list[int]] = {}
        for vid, vlabel in self._vertex_labels.items():
            if vlabel == label:
                value = self._vertex_props[vid].get(key)
                if value is not None:
                    index.setdefault(value, []).append(vid)
        self._indexes[(label, key)] = index

    def has_lookup_index(self, label: str, key: str) -> bool:
        return (label, key) in self._indexes

    def lookup(self, label: str, key: str, value: Any) -> list[Any]:
        """Vertex ids with ``label`` and ``key == value`` via the index.

        Index entries are unversioned; under a held snapshot a
        ``set_vertex_prop`` after the snapshot began may have re-filed an
        entry, so stamped-after-snapshot vertices (``mvcc.stale_keys()``)
        are re-checked against their snapshot-visible property map.
        """
        charge("hash_probe")
        index = self._indexes.get((label, key))
        if index is None:
            raise KeyError(f"no index on {label}.{key}")
        hits = [
            v for v in index.get(value, ()) if self.mvcc.visible(("v", v))
        ]
        stale = [
            k
            for k in self.mvcc.stale_keys()
            if k[0] == "v" and self._vertex_labels.get(k[1]) == label
        ]
        if not stale:
            return hits

        def snapshot_matches(vkey: tuple) -> bool:
            props = self.mvcc.read(vkey, self._vertex_props[vkey[1]])
            return props.get(key) == value

        kept = self.mvcc.recheck_stale(
            [("v", vid) for vid in hits], stale, snapshot_matches
        )
        return [vid for _, vid in kept]

    # -- reads --------------------------------------------------------------------

    def vertices(self, label: str | None = None) -> Iterator[Any]:
        for vid, vlabel in self._vertex_labels.items():
            charge("value_cpu")
            if (label is None or vlabel == label) and self.mvcc.visible(
                ("v", vid)
            ):
                yield vid

    def vertex_label(self, vid: Any) -> str:
        charge("value_cpu")
        return self._vertex_labels[vid]

    def vertex_props(self, vid: Any) -> dict[str, Any]:
        charge("value_cpu")
        if runtime.TRACE is not None:
            runtime.TRACE.read(("vertex", vid))
        return self.mvcc.read(("v", vid), self._vertex_props[vid])

    def edge_props(self, eid: Any) -> dict[str, Any]:
        charge("value_cpu")
        return self._edge_props[eid]

    def edge_label(self, eid: Any) -> str:
        charge("value_cpu")
        return self._edge_labels[eid]

    def edge_endpoints(self, eid: Any) -> tuple[Any, Any]:
        charge("value_cpu")
        return self._edge_ends[eid]

    def adjacent(
        self, vid: Any, direction: str, label: str | None
    ) -> Iterator[tuple[Any, Any]]:
        if runtime.TRACE is not None:
            runtime.TRACE.read(("vertex", vid))
        if direction in ("out", "both"):
            for eid in self._out.get(vid, ()):
                charge("value_cpu")
                if (
                    label is None or self._edge_labels[eid] == label
                ) and self.mvcc.visible(("e", eid)):
                    yield eid, self._edge_ends[eid][1]
        if direction in ("in", "both"):
            for eid in self._in.get(vid, ()):
                charge("value_cpu")
                if (
                    label is None or self._edge_labels[eid] == label
                ) and self.mvcc.visible(("e", eid)):
                    yield eid, self._edge_ends[eid][0]

    # -- writes ----------------------------------------------------------------------

    def create_vertex(self, label: str, props: dict[str, Any]) -> Any:
        charge("value_cpu")
        vid = self._next_vid
        self._next_vid += 1
        self._vertex_labels[vid] = label
        self._vertex_props[vid] = dict(props)
        self.mvcc.stamp(("v", vid))
        for (ilabel, key), index in self._indexes.items():
            if ilabel == label and props.get(key) is not None:
                index.setdefault(props[key], []).append(vid)
        if runtime.TRACE is not None:
            runtime.TRACE.write(("vertex", vid))
        return vid

    def create_edge(
        self, label: str, out_vid: Any, in_vid: Any, props: dict[str, Any]
    ) -> Any:
        if out_vid not in self._vertex_labels:
            raise KeyError(f"no vertex {out_vid}")
        if in_vid not in self._vertex_labels:
            raise KeyError(f"no vertex {in_vid}")
        charge("value_cpu")
        eid = self._next_eid
        self._next_eid += 1
        self._edge_labels[eid] = label
        self._edge_props[eid] = dict(props)
        self._edge_ends[eid] = (out_vid, in_vid)
        self._out.setdefault(out_vid, []).append(eid)
        self._in.setdefault(in_vid, []).append(eid)
        self.mvcc.stamp(("e", eid))
        if runtime.TRACE is not None:
            runtime.TRACE.write(("vertex", out_vid))
            runtime.TRACE.write(("vertex", in_vid))
        return eid

    def set_vertex_prop(self, vid: Any, key: str, value: Any) -> None:
        charge("value_cpu")
        label = self._vertex_labels[vid]
        self.mvcc.record_update(("v", vid), dict(self._vertex_props[vid]))
        old = self._vertex_props[vid].get(key)
        self._vertex_props[vid][key] = value
        index = self._indexes.get((label, key))
        if index is not None:
            if old is not None and vid in index.get(old, ()):
                index[old].remove(vid)
            if value is not None:
                index.setdefault(value, []).append(vid)
        if runtime.TRACE is not None:
            runtime.TRACE.write(("vertex", vid))

    # -- stats ------------------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._vertex_labels)

    @property
    def edge_count(self) -> int:
        return len(self._edge_labels)

    def size_bytes(self) -> int:
        total = 0
        for props in self._vertex_props.values():
            total += 32 + sum(
                len(str(k)) + _approx_bytes(v) for k, v in props.items()
            )
        for props in self._edge_props.values():
            total += 48 + sum(
                len(str(k)) + _approx_bytes(v) for k, v in props.items()
            )
        return total


def _approx_bytes(value: Any) -> int:
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(_approx_bytes(v) for v in value)
    return 8
