"""Secondary-index visibility under held snapshots (DESIGN §13 fix).

Index entries are unversioned: when a writer changes an indexed value
after a reader's snapshot began, the entry is re-filed under the new
value.  On the seed code a snapshot probe by the *old* value then missed
the row it must still see (false negative) and a probe by the *new*
value surfaced a row whose snapshot-visible value doesn't match (false
positive).  Every store now re-checks the stamped-after-snapshot keys
(``VersionStore.stale_keys()``) against the snapshot-visible value —
these tests fail on the pre-fix code for each indexed store below.
"""

import pytest

from repro.graphdb.store import GraphStore
from repro.relational.table import Table
from repro.storage.buffer import BufferPool, DiskManager
from repro.storage.codec import ColumnType
from repro.storage.mvcc import VersionStore
from repro.titan.graph import titan_berkeley
from repro.txn import oracle


@pytest.fixture(autouse=True)
def no_leaked_snapshots():
    assert oracle.ORACLE.active_count() == 0
    assert oracle.CURRENT is None
    yield
    assert oracle.ORACLE.active_count() == 0
    assert oracle.CURRENT is None


def _table(storage: str = "row") -> Table:
    pool = BufferPool(DiskManager(), capacity=64) if storage == "row" else None
    table = Table(
        "person",
        [("id", ColumnType.INT), ("city", ColumnType.TEXT)],
        primary_key="id",
        storage=storage,
        pool=pool,
    )
    table.create_index("city", method="btree")
    return table


class TestStaleKeys:
    def test_empty_without_a_snapshot(self):
        store = VersionStore("t")
        with oracle.held_snapshot():
            store.record_update("k", "old")
        assert store.stale_keys() == []

    def test_reports_keys_stamped_after_the_snapshot(self):
        store = VersionStore("t")
        holder = oracle.ORACLE.begin()
        try:
            oracle.CURRENT = None
            store.record_update("k", "old")  # stamped after `holder`
            oracle.CURRENT = holder
            assert store.stale_keys() == ["k"]
            # a younger snapshot sees the update: nothing is stale to it
            young = oracle.ORACLE.begin()
            oracle.CURRENT = young
            assert store.stale_keys() == []
            oracle.ORACLE.release(young)
        finally:
            oracle.CURRENT = None
            oracle.ORACLE.release(holder)


class TestTableIndexVisibility:
    @pytest.mark.parametrize("storage", ["row", "column"])
    def test_lookup_by_old_value_still_finds_the_snapshot_row(
        self, storage
    ):
        table = _table(storage)
        handle = table.insert((1, "Leipzig"))
        table.insert((2, "Berlin"))
        with oracle.held_snapshot():
            table.update(handle, {"city": "Dresden"})
            # the snapshot must keep seeing the pre-update row ...
            assert table.lookup("city", "Leipzig") == [handle]
            # ... and must not see the post-snapshot value
            assert table.lookup("city", "Dresden") == []
        # once released, current reads follow the new value
        assert table.lookup("city", "Leipzig") == []
        assert table.lookup("city", "Dresden") == [handle]

    def test_range_lookup_respects_the_snapshot(self):
        table = _table("column")
        handle = table.insert((1, "Leipzig"))
        with oracle.held_snapshot():
            table.update(handle, {"city": "Zagreb"})
            assert list(table.range_lookup("city", "L", "M")) == [handle]
            assert list(table.range_lookup("city", "Z", "Za~")) == []
        assert list(table.range_lookup("city", "L", "M")) == []
        assert list(table.range_lookup("city", "Z", "Za~")) == [handle]

    def test_lookup_batch_respects_the_snapshot(self):
        table = _table("row")
        handle = table.insert((1, "Leipzig"))
        with oracle.held_snapshot():
            table.update(handle, {"city": "Dresden"})
            probed = table.lookup_batch("city", ["Leipzig", "Dresden"])
            assert probed == {"Leipzig": [handle], "Dresden": []}

    def test_rows_inserted_after_the_snapshot_stay_invisible(self):
        table = _table("row")
        with oracle.held_snapshot():
            table.insert((3, "Munich"))
            assert table.lookup("city", "Munich") == []


class TestGraphStoreIndexVisibility:
    def test_lookup_by_old_value_under_snapshot(self):
        store = GraphStore()
        store.create_index("Person", "city")
        node = store.create_node(("Person",), {"city": "Leipzig"})
        with oracle.held_snapshot():
            store.set_node_prop(node, "city", "Dresden")
            assert store.lookup("Person", "city", "Leipzig") == [node]
            assert store.lookup("Person", "city", "Dresden") == []
        assert store.lookup("Person", "city", "Leipzig") == []
        assert store.lookup("Person", "city", "Dresden") == [node]

    def test_deleted_relationship_reads_raise(self):
        store = GraphStore()
        a = store.create_node(("Person",), {})
        b = store.create_node(("Person",), {})
        rel = store.create_rel("KNOWS", a, b)
        assert store.rel_endpoints(rel) == ("KNOWS", a, b)
        store._rels[rel].deleted = True
        with pytest.raises(KeyError):
            store.rel_props(rel)


class TestTitanIndexVisibility:
    def test_set_vertex_prop_refiles_the_composite_index_entry(self):
        titan = titan_berkeley()
        titan.create_index("person", "city")
        titan.create_vertex("person", {"id": 7, "city": "Leipzig"})
        titan.set_vertex_prop(7, "city", "Dresden")
        assert titan.lookup("person", "city", "Leipzig") == []
        assert titan.lookup("person", "city", "Dresden") == [7]

    def test_lookup_by_old_value_under_snapshot(self):
        titan = titan_berkeley()
        titan.create_index("person", "city")
        titan.create_vertex("person", {"id": 7, "city": "Leipzig"})
        with oracle.held_snapshot():
            titan.set_vertex_prop(7, "city", "Dresden")
            assert titan.lookup("person", "city", "Leipzig") == [7]
            assert titan.lookup("person", "city", "Dresden") == []
        assert titan.lookup("person", "city", "Leipzig") == []
        assert titan.lookup("person", "city", "Dresden") == [7]
