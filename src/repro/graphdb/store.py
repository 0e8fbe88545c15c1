"""Record stores: nodes, relationships, properties.

Layout mirrors Neo4j:

* node record: first relationship id + labels + property pointer
* relationship record: type, start node, end node, and *two* "next"
  pointers threading the record into the start node's chain and the end
  node's chain

Walking a node's relationships follows its chain, one ``record_read`` per
hop — no index involved.  Property access charges ``value_cpu`` per value.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Any

from repro.simclock.ledger import charge
from repro.stats import GraphStatistics
from repro.storage.hashindex import HashIndex
from repro.storage.mvcc import VersionStore
from repro.txn import oracle

NO_REL = -1

#: the node read path's prices, named once: the per-node accessors charge
#: them a record (or a property map) at a time, :meth:`GraphStore.match_nodes`
#: once per scan with its totals
_charge_records = partial(charge, "record_read")
_charge_values = partial(charge, "value_cpu")


class Direction(enum.Enum):
    OUT = "out"
    IN = "in"
    BOTH = "both"


# the props of every relationship created without any (never written:
# only set_node_prop mutates a props map)
_NO_PROPS: Mapping[str, Any] = MappingProxyType({})


@dataclass(slots=True)
class _NodeRecord:
    first_rel: int = NO_REL
    labels: tuple[str, ...] = ()
    props: dict[str, Any] = field(default_factory=dict)
    deleted: bool = False


@dataclass(slots=True)
class _RelRecord:
    rel_type: str
    start: int
    end: int
    props: Mapping[str, Any]
    start_next: int = NO_REL
    end_next: int = NO_REL
    deleted: bool = False


class GraphStore:
    """The property-graph store with index-free adjacency."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: list[_NodeRecord] = []
        self._rels: list[_RelRecord] = []
        # (label, property) -> HashIndex(value -> node ids)
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        # label -> live node ids (maintained on every node write)
        self._label_index: dict[str, set[int]] = {}
        # version metadata keyed by node id (int) / ("rel", rel_id);
        # deferred node deletes reclaim through _remove_physical
        self.mvcc = VersionStore(
            f"{name}-mvcc", on_reclaim=self._reclaim_tombstone
        )
        self.node_count = 0
        self.rel_count = 0

    # -- schema indexes ------------------------------------------------------

    def create_index(self, label: str, prop: str) -> None:
        key = (label, prop)
        if key in self._indexes:
            return
        index = HashIndex(name=f"{label}.{prop}")
        for node_id, record in enumerate(self._nodes):
            if record.deleted or label not in record.labels:
                continue
            value = record.props.get(prop)
            if value is not None:
                index.insert(value, node_id)
        self._indexes[key] = index

    def lookup(self, label: str, prop: str, value: Any) -> list[int]:
        """Node ids with ``label`` and ``prop == value`` (index required).

        Index entries are unversioned, so under a held snapshot a
        ``set_node_prop`` that moved an entry could make the probe miss
        the row the snapshot still sees (or surface one it must not).
        The at-risk node ids are exactly the stamped-after-snapshot keys
        (``mvcc.stale_keys()``): hits among them are re-checked against
        their snapshot property map, and stale visible nodes whose
        snapshot value matches are recovered.
        """
        index = self._indexes.get((label, prop))
        if index is None:
            raise KeyError(f"no index on :{label}({prop})")
        hits = self.mvcc.filter_visible(index.search(value))
        stale = [k for k in self.mvcc.stale_keys() if isinstance(k, int)]
        if not stale:
            return hits

        def snapshot_matches(node_id: int) -> bool:
            record = self._nodes[node_id]
            if label not in record.labels:  # labels are immutable
                return False
            return self.mvcc.read(node_id, record.props).get(prop) == value

        return self.mvcc.recheck_stale(hits, stale, snapshot_matches)

    def has_index(self, label: str, prop: str) -> bool:
        return (label, prop) in self._indexes

    # -- write path ------------------------------------------------------------

    def create_node(
        self, labels: tuple[str, ...] | list[str], props: dict[str, Any]
    ) -> int:
        charge("record_write")
        node_id = len(self._nodes)
        self._nodes.append(_NodeRecord(labels=tuple(labels), props=dict(props)))
        self.mvcc.stamp(node_id)
        self.node_count += 1
        for label in labels:
            self._label_index.setdefault(label, set()).add(node_id)
        for (label, prop), index in self._indexes.items():
            if label in labels and props.get(prop) is not None:
                index.insert(props[prop], node_id)
        return node_id

    def create_rel(
        self,
        rel_type: str,
        start: int,
        end: int,
        props: dict[str, Any] | None = None,
    ) -> int:
        start_record = self._node(start)
        end_record = self._node(end)
        charge("record_write", 3)  # rel record + two chain head updates
        rel_id = len(self._rels)
        record = _RelRecord(
            rel_type=rel_type,
            start=start,
            end=end,
            start_next=start_record.first_rel,
            end_next=end_record.first_rel,
            props=dict(props) if props else _NO_PROPS,
        )
        self._rels.append(record)
        self.mvcc.stamp(("rel", rel_id))
        start_record.first_rel = rel_id
        end_record.first_rel = rel_id
        self.rel_count += 1
        return rel_id

    def delete_node(self, node_id: int) -> None:
        """Delete a node (must have no relationships, as in Neo4j)."""
        record = self._node(node_id)
        if any(True for _ in self.relationships(node_id)):
            raise ValueError(f"node {node_id} still has relationships")
        charge("record_write")
        self.node_count -= 1
        if not self.mvcc.record_delete(node_id):
            # no snapshot could still need the record: remove it now;
            # otherwise it stays (tombstoned) until GC reclaims it
            self._remove_physical(node_id, record)

    def _remove_physical(self, node_id: int, record: _NodeRecord) -> None:
        record.deleted = True
        for label in record.labels:
            ids = self._label_index.get(label)
            if ids is not None:
                ids.discard(node_id)
        for (label, prop), index in self._indexes.items():
            if label in record.labels and record.props.get(prop) is not None:
                index.delete(record.props[prop], node_id)

    def _reclaim_tombstone(self, key: Any) -> None:
        """GC decided a deferred node delete is unobservable: finish it."""
        if not isinstance(key, int):
            return  # relationships are never tombstoned
        record = self._nodes[key]
        if not record.deleted:
            self._remove_physical(key, record)

    def set_node_prop(self, node_id: int, key: str, value: Any) -> None:
        record = self._node(node_id)
        charge("record_write")
        self.mvcc.record_update(node_id, dict(record.props))
        old = record.props.get(key)
        record.props[key] = value
        for (label, prop), index in self._indexes.items():
            if label in record.labels and prop == key:
                if old is not None:
                    index.delete(old, node_id)
                if value is not None:
                    index.insert(value, node_id)

    # -- read path ----------------------------------------------------------------

    def _node(self, node_id: int) -> _NodeRecord:
        record = self._nodes[node_id]
        if record.deleted or not self.mvcc.visible(node_id):
            raise KeyError(f"node {node_id} is deleted")
        return record

    def node_labels(self, node_id: int) -> tuple[str, ...]:
        _charge_records()
        return self._node(node_id).labels

    def node_props(self, node_id: int) -> dict[str, Any]:
        record = self._node(node_id)
        _charge_records()
        props = self.mvcc.read(node_id, record.props)
        _charge_values(len(props))
        return dict(props)

    def node_prop(self, node_id: int, key: str) -> Any:
        record = self._node(node_id)
        _charge_records()
        _charge_values()
        return self.mvcc.read(node_id, record.props).get(key)

    def _rel(self, rel_id: int) -> _RelRecord:
        record = self._rels[rel_id]
        if record.deleted or not self.mvcc.visible(("rel", rel_id)):
            raise KeyError(f"relationship {rel_id} is deleted")
        return record

    def rel_props(self, rel_id: int) -> dict[str, Any]:
        record = self._rel(rel_id)
        charge("record_read")
        charge("value_cpu", len(record.props))
        return dict(record.props)

    def rel_endpoints(self, rel_id: int) -> tuple[str, int, int]:
        record = self._rel(rel_id)
        charge("record_read")
        return record.rel_type, record.start, record.end

    def relationships(
        self,
        node_id: int,
        rel_type: str | None = None,
        direction: Direction = Direction.BOTH,
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(rel_id, other_node_id)`` by walking the record chain."""
        self._node(node_id)  # existence + visibility check
        rel_id = self._nodes[node_id].first_rel
        while rel_id != NO_REL:
            record = self._rels[rel_id]
            charge("record_read")
            is_loop = record.start == node_id and record.end == node_id
            if record.start == node_id:
                next_id = record.start_next
                is_out = True
                other = record.end
            else:
                next_id = record.end_next
                is_out = False
                other = record.start
            if (
                not record.deleted
                and (rel_type is None or record.rel_type == rel_type)
                and self.mvcc.visible(("rel", rel_id))
            ):
                if is_loop or (
                    direction is Direction.BOTH
                    or (direction is Direction.OUT and is_out)
                    or (direction is Direction.IN and not is_out)
                ):
                    yield rel_id, other
            rel_id = next_id

    def degree(
        self,
        node_id: int,
        rel_type: str | None = None,
        direction: Direction = Direction.BOTH,
    ) -> int:
        return sum(1 for _ in self.relationships(node_id, rel_type, direction))

    # -- batch read path (vectorized executor) -----------------------------------

    def neighbors_batch(
        self,
        node_ids: Iterable[int],
        rel_type: str | None = None,
        direction: Direction = Direction.BOTH,
    ) -> dict[int, tuple[tuple[int, int], ...]]:
        """Adjacency lists for a whole frontier at once.

        Duplicate ids in ``node_ids`` are fetched once — the batch
        executor's frontiers routinely revisit nodes, and a real
        vectorized engine would never re-walk the same record chain
        within one operator invocation.  Per unique node the cost is
        exactly :meth:`relationships`.
        """
        return {
            node_id: tuple(self.relationships(node_id, rel_type, direction))
            for node_id in dict.fromkeys(node_ids)
        }

    def node_props_batch(
        self, node_ids: Iterable[int]
    ) -> dict[int, dict[str, Any]]:
        """Property maps for a deduplicated batch of nodes."""
        return {
            node_id: self.node_props(node_id)
            for node_id in dict.fromkeys(node_ids)
        }

    def node_labels_batch(
        self, node_ids: Iterable[int]
    ) -> dict[int, tuple[str, ...]]:
        """Label tuples for a deduplicated batch of nodes."""
        return {
            node_id: self.node_labels(node_id)
            for node_id in dict.fromkeys(node_ids)
        }

    def rel_props_batch(
        self, rel_ids: Iterable[int]
    ) -> dict[int, dict[str, Any]]:
        """Property maps for a deduplicated batch of relationships."""
        return {
            rel_id: self.rel_props(rel_id) for rel_id in dict.fromkeys(rel_ids)
        }

    def nodes_with_label(self, label: str) -> Iterator[int]:
        """Label index scan: only touches nodes carrying the label.

        Ids come out ascending (insertion order) so results stay
        deterministic, matching what the old linear scan produced.
        """
        charge("index_probe")
        for node_id in sorted(self._label_index.get(label, ())):
            _charge_records()
            if self.mvcc.visible(node_id):
                yield node_id

    def label_count(self, label: str) -> int:
        """Live nodes carrying ``label`` (no scan)."""
        return len(self._label_index.get(label, ()))

    def all_nodes(self) -> Iterator[int]:
        for node_id, record in enumerate(self._nodes):
            _charge_records()
            if not record.deleted and self.mvcc.visible(node_id):
                yield node_id

    def match_nodes(
        self,
        labels: Sequence[str] = (),
        match: Callable[[dict[str, Any]], bool] | None = None,
    ) -> list[int]:
        """The ids of ``nodes_with_label(labels[0])`` (``all_nodes()``
        when ``labels`` is empty) that carry every label in ``labels``
        and, when ``match`` is given, whose property map satisfies it.

        One loop priced as the per-node calls it replaces: the scan,
        then ``node_labels`` when ``labels``, then ``node_props`` and
        ``match`` when ``match``.  Under a view ``mvcc.visible`` runs as
        often as those calls run it, so ``version_check`` and
        ``version_walk`` are unchanged; with no view it charges nothing
        and runs once per id.  Only the ``record_read``/``value_cpu``
        units are summed, and charged once in a ``finally``: a ``match``
        that raises leaves what the per-node calls had charged by then.
        Each counter still enters the ledger where the per-node calls
        would have put it first (a zero-unit charge), because a ledger
        prices its counters in insertion order.
        """
        records = self._nodes
        visible = self.mvcc.visible
        recheck = oracle.CURRENT is not None
        if labels:
            charge("index_probe")
            scan: Sequence[int] = sorted(self._label_index.get(labels[0], ()))
        else:
            scan = range(len(records))
        # every id in labels[0]'s index carries labels[0]
        others = labels[1:]
        if scan:
            _charge_records(0)  # the first read precedes any version_check
        reads = values = 0
        props_read = False
        found: list[int] = []
        try:
            for node_id in scan:
                reads += 1
                record = records[node_id]
                # only all_nodes() meets deleted records: the label
                # index drops them
                if record.deleted or not visible(node_id):
                    continue
                if labels:
                    reads += 1
                    if recheck:
                        visible(node_id)
                    if others and not all(
                        name in record.labels for name in others
                    ):
                        continue
                if match is not None:
                    if recheck:
                        visible(node_id)
                    reads += 1
                    props = self.mvcc.read(node_id, record.props)
                    if not props_read:
                        # where node_props first charged value_cpu:
                        # before any later node's version_walk
                        props_read = True
                        _charge_values(0)
                    values += len(props)
                    if not match(props):
                        continue
                found.append(node_id)
        finally:
            if reads:
                _charge_records(reads)
            if props_read:
                _charge_values(values)
        return found

    # -- stats -----------------------------------------------------------------------

    def collect_statistics(self) -> GraphStatistics:
        """One pass over the relationship store plus index cardinalities.

        Walks records directly (no per-record ``charge``); the caller
        charges a flat ``graph_analyze`` for the refresh.
        """
        rel_counts: dict[str, int] = {}
        starts: dict[str, set[int]] = {}
        ends: dict[str, set[int]] = {}
        for record in self._rels:
            if record.deleted:
                continue
            rel_counts[record.rel_type] = (
                rel_counts.get(record.rel_type, 0) + 1
            )
            starts.setdefault(record.rel_type, set()).add(record.start)
            ends.setdefault(record.rel_type, set()).add(record.end)
        return GraphStatistics(
            node_count=self.node_count,
            rel_count=self.rel_count,
            label_counts={
                label: len(ids) for label, ids in self._label_index.items()
            },
            rel_degrees={
                rel_type: (
                    count,
                    len(starts.get(rel_type, ())),
                    len(ends.get(rel_type, ())),
                )
                for rel_type, count in rel_counts.items()
            },
            prop_distinct={
                key: index.distinct_keys()
                for key, index in self._indexes.items()
            },
        )

    def size_bytes(self) -> int:
        """Approximate store footprint (records + property data)."""
        node_bytes = 15 * len(self._nodes)  # Neo4j node record size
        rel_bytes = 34 * len(self._rels)  # Neo4j relationship record size
        prop_bytes = 0
        for record in self._nodes:
            prop_bytes += sum(
                8 + _value_bytes(v) for v in record.props.values()
            )
        for rel in self._rels:
            prop_bytes += sum(8 + _value_bytes(v) for v in rel.props.values())
        index_bytes = sum(16 * len(i) for i in self._indexes.values())
        return node_bytes + rel_bytes + prop_bytes + index_bytes


def _value_bytes(value: Any) -> int:
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(_value_bytes(v) for v in value)
    return 8
