"""The fused Cypher label / all-nodes scan against the loop it replaced.

``CypherExecutor._node_candidates`` answers an unindexed node pattern
with one ``GraphStore.match_nodes`` loop.  The reference below is the
old shape: ``nodes_with_label`` (or ``all_nodes``) one id at a time,
each through ``_node_matches`` and so through ``node_labels``,
``node_props`` and the per-property closures.  Every case requires the
same ids (or the same exception), the same ledger — counter for
counter and in the order the counters first appear, since a ledger
prices them in that order — and the same sanitizer trace.
"""

import pytest

from repro.graphdb.cypher import parse
from repro.graphdb.cypher.evaluator import NodeRef
from repro.graphdb.cypher.executor import CypherExecutor
from repro.graphdb.store import GraphStore
from repro.sanitizer import runtime
from repro.simclock import meter
from repro.txn import oracle


@pytest.fixture(autouse=True)
def no_leaked_snapshots():
    yield
    assert oracle.ORACLE.active_count() == 0
    assert oracle.CURRENT is None


def reference_candidates(executor, row, node, params):
    store = executor.store
    if node.labels:
        source = store.nodes_with_label(node.labels[0])
    else:
        source = store.all_nodes()
    return [
        nid for nid in source if executor._node_matches(nid, node, row, params)
    ]


def observe(fn, *args):
    """(result or exception, ordered ledger items, trace events)."""
    with runtime.tracing() as trace, meter() as ledger:
        try:
            result = fn(*args)
        except Exception as exc:  # the exception is part of the answer
            result = (type(exc), str(exc))
    events = [(e.kind, e.resource, e.mode) for e in trace.events]
    return result, list(ledger.snapshot().items()), events


def node_pattern(text):
    return parse(f"MATCH {text} RETURN 1").clauses[0].patterns[0].nodes[0]


def assert_same_scan(store, pattern, params=None, row=None):
    executor = CypherExecutor(store)
    node = node_pattern(pattern)
    row = row or {}
    params = params or {}
    fused = observe(executor._node_candidates, row, node, params)
    reference = observe(reference_candidates, executor, row, node, params)
    assert fused == reference
    return fused


def messages(count=8):
    """Posts at even ids, comments at odd ids, one person at the end."""
    store = GraphStore()
    for i in range(count):
        labels = ("Message", "Comment") if i % 2 else ("Message", "Post")
        store.create_node(labels, {"id": i, "content": f"c{i}"})
    store.create_node(("Person",), {"id": 100})
    return store


class TestFusedScanMatchesPerNodeLoop:
    def test_no_view(self):
        store = messages()
        ids, ledger, _ = assert_same_scan(
            store, "(m:Comment {id: $id})", {"id": 3}
        )
        assert ids == [3]
        assert dict(ledger)["value_cpu"] == 8  # four comments, two props
        assert_same_scan(store, "(m:Comment)")
        assert_same_scan(store, "(m:Forum {id: $id})", {"id": 3})

    def test_held_snapshot_with_nodes_stamped_after_it(self):
        store = messages()
        snap = oracle.ORACLE.begin()
        try:
            late = [
                store.create_node(("Message", "Comment"), {"id": i})
                for i in range(8, 12)
            ]
            with oracle.reading(snap):
                ids, ledger, events = assert_same_scan(
                    store, "(m:Comment {id: $id})", {"id": 9}
                )
                assert ids == []
                assert dict(ledger)["version_check"] > 0
                assert all(mode == "snapshot" for _, _, mode in events)
            ids, _, _ = assert_same_scan(
                store, "(m:Comment {id: $id})", {"id": 9}
            )
            assert ids == [late[1]]
        finally:
            oracle.ORACLE.release(snap)

    def test_version_chain_changes_the_props_read(self):
        store = messages()
        snap = oracle.ORACLE.begin()
        try:
            store.set_node_prop(3, "length", 42)  # len(props) 2 -> 3
            store.set_node_prop(5, "id", 55)
            with oracle.reading(snap):
                ids, ledger, _ = assert_same_scan(
                    store, "(m:Comment {id: $id})", {"id": 5}
                )
                assert ids == [5]
                assert dict(ledger)["version_walk"] > 0
                assert dict(ledger)["value_cpu"] == 8
            ids, ledger, _ = assert_same_scan(
                store, "(m:Comment {id: $id})", {"id": 55}
            )
            assert ids == [5]
            assert dict(ledger)["value_cpu"] == 9
        finally:
            oracle.ORACLE.release(snap)

    def test_tombstoned_deferred_delete(self):
        store = messages()
        snap = oracle.ORACLE.begin()
        try:
            store.delete_node(3)  # deferred: a snapshot may still see it
            with oracle.reading(snap):
                ids, _, _ = assert_same_scan(
                    store, "(m:Comment {id: $id})", {"id": 3}
                )
                assert ids == [3]
            ids, _, _ = assert_same_scan(store, "(m:Comment)")
            assert ids == [1, 5, 7]
        finally:
            oracle.ORACLE.release(snap)

    def test_multi_label_pattern_whose_second_label_fails(self):
        store = messages()
        ids, ledger, _ = assert_same_scan(
            store, "(m:Message:Comment {id: $id})", {"id": 4}
        )
        assert ids == []  # id 4 is a Post
        ids, _, _ = assert_same_scan(store, "(m:Message:Forum)")
        assert ids == []

    def test_unlabelled_pattern_over_physically_deleted_records(self):
        store = messages()
        store.delete_node(2)
        store.delete_node(3)
        ids, ledger, _ = assert_same_scan(store, "(n {id: $id})", {"id": 3})
        assert ids == []
        assert dict(ledger)["record_read"] == 9 + 7  # scan + live props
        ids, _, _ = assert_same_scan(store, "(n)")
        assert ids == [0, 1, 4, 5, 6, 7, 8]

    def test_property_of_a_bound_node(self):
        store = messages()
        row = {"a": NodeRef(5)}
        ids, ledger, events = assert_same_scan(
            store, "(m:Comment {id: a.id})", row=row
        )
        assert ids == [5]
        # one node_prop per candidate on top of the scan's reads
        assert dict(ledger)["record_read"] == 4 * 3 + 4
        assert sum(kind == "read" for kind, _, _ in events) == 8

    def test_missing_param_raises_only_with_a_candidate(self):
        store = messages()
        result, ledger, _ = assert_same_scan(
            store, "(m:Comment {id: $missing})"
        )
        assert result[1] == "missing parameter $missing"
        assert dict(ledger)["record_read"] == 3  # scan, labels, props
        ids, _, _ = assert_same_scan(store, "(m:Forum {id: $missing})")
        assert ids == []
        ids, _, _ = assert_same_scan(
            store, "(m:Message:Forum {id: $missing})"
        )
        assert ids == []
