"""Tests for the graph record store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import Direction, GraphStore
from repro.simclock import meter
from repro.txn import oracle


@pytest.fixture()
def store():
    s = GraphStore()
    s.create_index("Person", "id")
    return s


class TestNodes:
    def test_create_and_read(self, store):
        nid = store.create_node(["Person"], {"id": 1, "name": "alice"})
        assert store.node_labels(nid) == ("Person",)
        assert store.node_props(nid) == {"id": 1, "name": "alice"}
        assert store.node_prop(nid, "name") == "alice"
        assert store.node_prop(nid, "missing") is None

    def test_index_lookup(self, store):
        nid = store.create_node(["Person"], {"id": 42})
        assert store.lookup("Person", "id", 42) == [nid]
        assert store.lookup("Person", "id", 99) == []

    def test_index_lookup_hides_nodes_created_after_the_snapshot(
        self, store
    ):
        old = store.create_node(["Person"], {"id": 1})
        with oracle.held_snapshot():
            store.create_node(["Person"], {"id": 2})
            store.create_node(["Person"], {"id": 1})
            assert store.lookup("Person", "id", 2) == []
            assert store.lookup("Person", "id", 1) == [old]
        assert len(store.lookup("Person", "id", 1)) == 2

    def test_lookup_requires_index(self, store):
        with pytest.raises(KeyError):
            store.lookup("Forum", "id", 1)

    def test_index_built_retroactively(self):
        store = GraphStore()
        nid = store.create_node(["Forum"], {"id": 7})
        store.create_index("Forum", "id")
        assert store.lookup("Forum", "id", 7) == [nid]

    def test_index_ignores_other_labels(self, store):
        store.create_node(["Forum"], {"id": 1})
        assert store.lookup("Person", "id", 1) == []

    def test_set_prop_maintains_index(self, store):
        nid = store.create_node(["Person"], {"id": 1})
        store.set_node_prop(nid, "id", 2)
        assert store.lookup("Person", "id", 1) == []
        assert store.lookup("Person", "id", 2) == [nid]

    def test_delete_node(self, store):
        nid = store.create_node(["Person"], {"id": 1})
        store.delete_node(nid)
        assert store.lookup("Person", "id", 1) == []
        with pytest.raises(KeyError):
            store.node_props(nid)

    def test_delete_with_rels_rejected(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        store.create_rel("KNOWS", a, b)
        with pytest.raises(ValueError):
            store.delete_node(a)

    def test_label_scan(self, store):
        ids = {store.create_node(["Person"], {"id": i}) for i in range(5)}
        store.create_node(["Forum"], {"id": 100})
        assert set(store.nodes_with_label("Person")) == ids


class TestRelationships:
    def test_chain_traversal(self, store):
        a = store.create_node(["Person"], {"id": 1})
        friends = []
        for i in range(2, 7):
            b = store.create_node(["Person"], {"id": i})
            store.create_rel("KNOWS", a, b, {"since": 2000 + i})
            friends.append(b)
        others = {o for _, o in store.relationships(a, "KNOWS")}
        assert others == set(friends)

    def test_direction_filtering(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        c = store.create_node(["Person"], {"id": 3})
        store.create_rel("KNOWS", a, b)  # a -> b
        store.create_rel("KNOWS", c, a)  # c -> a
        assert {o for _, o in store.relationships(a, "KNOWS", Direction.OUT)} == {b}
        assert {o for _, o in store.relationships(a, "KNOWS", Direction.IN)} == {c}
        assert {
            o for _, o in store.relationships(a, "KNOWS", Direction.BOTH)
        } == {b, c}

    def test_type_filtering(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Post"], {"id": 2})
        c = store.create_node(["Person"], {"id": 3})
        store.create_rel("LIKES", a, b)
        store.create_rel("KNOWS", a, c)
        assert {o for _, o in store.relationships(a, "LIKES")} == {b}
        assert store.degree(a) == 2
        assert store.degree(a, "KNOWS") == 1

    def test_rel_props_and_endpoints(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        rid = store.create_rel("KNOWS", a, b, {"since": 2010})
        assert store.rel_props(rid) == {"since": 2010}
        assert store.rel_endpoints(rid) == ("KNOWS", a, b)

    def test_propertyless_rels_allocate_no_dict(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        rids = [store.create_rel("KNOWS", a, b) for _ in range(50)]
        records = [store._rels[rid] for rid in rids]
        # one shared empty props map, and no per-record __dict__
        assert len({id(record.props) for record in records}) == 1
        assert not any(hasattr(record, "__dict__") for record in records)
        assert not hasattr(store._nodes[a], "__dict__")
        props = store.rel_props(rids[0])
        props["since"] = 2010
        assert store.rel_props(rids[1]) == {}

    def test_self_loop(self, store):
        a = store.create_node(["Person"], {"id": 1})
        store.create_rel("KNOWS", a, a)
        neighbours = [o for _, o in store.relationships(a, "KNOWS")]
        assert a in neighbours

    def test_traversal_cost_independent_of_graph_size(self, store):
        """Index-free adjacency: per-neighbour cost is flat."""
        hub = store.create_node(["Person"], {"id": 0})
        for i in range(1, 11):
            n = store.create_node(["Person"], {"id": i})
            store.create_rel("KNOWS", hub, n)
        with meter() as small:
            list(store.relationships(hub, "KNOWS"))
        # add 5000 unrelated nodes/edges
        prev = None
        for i in range(1000, 3500):
            n = store.create_node(["Person"], {"id": i})
            if prev is not None:
                store.create_rel("KNOWS", prev, n)
            prev = n
        with meter() as big:
            list(store.relationships(hub, "KNOWS"))
        assert big.counters["record_read"] == small.counters["record_read"]


class TestStats:
    def test_counts(self, store):
        a = store.create_node(["Person"], {"id": 1})
        b = store.create_node(["Person"], {"id": 2})
        store.create_rel("KNOWS", a, b)
        assert store.node_count == 2
        assert store.rel_count == 1

    def test_size_bytes_grows(self, store):
        before = store.size_bytes()
        store.create_node(["Person"], {"id": 1, "name": "x" * 100})
        assert store.size_bytes() > before


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)),
        min_size=1,
        max_size=60,
    )
)
def test_adjacency_matches_model(edges):
    """The linked-chain adjacency equals a plain adjacency-set model."""
    store = GraphStore()
    nodes = [store.create_node(["V"], {"id": i}) for i in range(15)]
    model_out: dict[int, list[int]] = {n: [] for n in nodes}
    model_in: dict[int, list[int]] = {n: [] for n in nodes}
    for a, b in edges:
        store.create_rel("E", nodes[a], nodes[b])
        model_out[nodes[a]].append(nodes[b])
        model_in[nodes[b]].append(nodes[a])
    for n in nodes:
        out = sorted(o for _, o in store.relationships(n, "E", Direction.OUT))
        into = sorted(o for _, o in store.relationships(n, "E", Direction.IN))
        assert out == sorted(model_out[n])
        assert into == sorted(model_in[n])
