"""MVCC: the timestamp oracle, version stores, and snapshot reads.

Three layers of the tentpole:

* oracle units — timestamps, the active-snapshot set, per-statement
  read views and their nesting/fallback behaviour;
* :class:`VersionStore` units — sparse metadata, chain walks, deferred
  deletes, re-creates, and the GC watermark assertion that refuses to
  collect past a live reader (the long-running-reader regression);
* end-to-end — engine facades and connectors serve stable reads from a
  held snapshot while writers land, and expose ``isolation_level``
  switching down the whole stack.
"""

import pytest

from repro.core import make_connector
from repro.relational.engine import Database
from repro.snb import GeneratorConfig, generate
from repro.storage.mvcc import VersionStore
from repro.txn import oracle

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=10000, seed=3)


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


@pytest.fixture(autouse=True)
def no_leaked_snapshots():
    """Every test must release what it holds (and none may inherit)."""
    assert oracle.ORACLE.active_count() == 0
    assert oracle.CURRENT is None
    yield
    assert oracle.ORACLE.active_count() == 0
    assert oracle.CURRENT is None


class TestOracle:
    def test_advance_is_monotonic(self):
        first = oracle.ORACLE.advance()
        second = oracle.ORACLE.advance()
        assert second == first + 1
        assert oracle.ORACLE.last() == second

    def test_begin_release_track_the_active_set(self):
        assert oracle.ORACLE.oldest_active() is None
        snap = oracle.ORACLE.begin()
        assert oracle.ORACLE.active_count() == 1
        assert oracle.ORACLE.oldest_active() == snap.read_ts
        assert oracle.ORACLE.watermark() == snap.read_ts
        oracle.ORACLE.release(snap)
        assert oracle.ORACLE.oldest_active() is None
        assert oracle.ORACLE.watermark() == oracle.ORACLE.last()

    def test_watermark_is_the_oldest_active(self):
        old = oracle.ORACLE.begin()
        oracle.ORACLE.advance()
        young = oracle.ORACLE.begin()
        assert young.read_ts > old.read_ts
        assert oracle.ORACLE.watermark() == old.read_ts
        oracle.ORACLE.release(old)
        assert oracle.ORACLE.watermark() == young.read_ts
        oracle.ORACLE.release(young)

    def test_isolation_levels_are_validated(self):
        assert oracle.check_isolation_level("snapshot") == "snapshot"
        assert (
            oracle.check_isolation_level("read-committed")
            == "read-committed"
        )
        with pytest.raises(ValueError, match="unknown isolation level"):
            oracle.check_isolation_level("serializable")

    def test_read_view_opens_and_releases_a_snapshot(self):
        with oracle.read_view("snapshot") as snap:
            assert snap is not None
            assert oracle.CURRENT is snap
            assert oracle.ORACLE.active_count() == 1

    def test_read_view_nests_inside_a_held_snapshot(self):
        with oracle.held_snapshot() as outer:
            with oracle.read_view("snapshot") as inner:
                assert inner is outer  # no second snapshot is opened
            assert oracle.ORACLE.active_count() == 1

    def test_read_committed_view_takes_no_snapshot(self):
        with oracle.read_view("read-committed") as snap:
            assert snap is None
            assert oracle.ORACLE.active_count() == 0
            assert oracle.CURRENT is None


class TestVersionStore:
    def test_no_metadata_without_snapshots(self):
        store = VersionStore("t")
        store.stamp("k")
        store.record_update("k", "old")
        assert store.record_delete("k") is False  # physical delete
        assert store.metadata_counts() == {
            "stamps": 0,
            "chain_versions": 0,
            "tombstones": 0,
        }

    def test_snapshot_reads_walk_the_chain(self):
        store = VersionStore("t")
        with oracle.held_snapshot():
            store.stamp("k")
        snap = oracle.ORACLE.begin()
        store.record_update("k", "old")
        try:
            with oracle.reading(snap):
                assert store.stale("k")
                assert store.read("k", "new") == "old"
            assert store.read("k", "new") == "new"  # current view
        finally:
            oracle.ORACLE.release(snap)

    def test_deferred_delete_stays_visible_to_old_snapshots(self):
        store = VersionStore("t")
        snap = oracle.ORACLE.begin()
        try:
            assert store.record_delete("k") is True  # deferred
            with oracle.reading(snap):
                assert store.visible("k")
            assert not store.visible("k")  # current view: deleted
        finally:
            oracle.ORACLE.release(snap)

    def test_undelete_restores_as_if_never_deleted(self):
        store = VersionStore("t")
        snap = oracle.ORACLE.begin()
        try:
            store.record_delete("k")
            assert store.undelete("k") is True
            assert store.visible("k")
            assert store.undelete("k") is False
        finally:
            oracle.ORACLE.release(snap)

    def test_recreate_timeline(self):
        """Pre-delete views keep the old value, the delete->re-add gap
        sees nothing, and post-re-add views see the key again."""
        store = VersionStore("t")
        before_delete = oracle.ORACLE.begin()
        try:
            store.record_delete("k")
            in_gap = oracle.ORACLE.begin()
            try:
                assert store.record_recreate("k", "old") is True
                with oracle.reading(before_delete):
                    assert store.visible("k")
                    assert store.read("k", "new") == "old"
                with oracle.reading(in_gap):
                    assert not store.visible("k")
                assert store.visible("k")  # current view: re-created
            finally:
                oracle.ORACLE.release(in_gap)
        finally:
            oracle.ORACLE.release(before_delete)
        assert store.record_recreate("k") is False  # no tombstone left

    def test_move_rekeys_all_metadata(self):
        store = VersionStore("t")
        with oracle.held_snapshot():
            store.stamp("a")
        snap = oracle.ORACLE.begin()  # read_ts covers the stamped value
        try:
            store.record_update("a", "old")
            store.move("a", "b")
            with oracle.reading(snap):
                assert store.read("b", "new") == "old"
        finally:
            oracle.ORACLE.release(snap)

    def test_gc_refuses_to_pass_a_live_reader(self):
        """Satellite regression: collecting past the oldest active
        snapshot would corrupt a live reader, so gc() raises instead."""
        store = VersionStore("t")
        snap = oracle.ORACLE.begin()
        try:
            store.record_update("k", "old")
            with pytest.raises(ValueError, match="exceeds the oldest"):
                store.gc(snap.read_ts + 1, oldest_active=snap.read_ts)
        finally:
            oracle.ORACLE.release(snap)

    def test_long_running_reader_survives_heavy_write_traffic(self):
        """The automatic collector runs while a snapshot stays open;
        the reader's version must never be reclaimed from under it."""
        store = VersionStore("t", gc_threshold=8)
        with oracle.held_snapshot():
            store.stamp("hot")
        reader = oracle.ORACLE.begin()
        try:
            for i in range(50):  # way past gc_threshold
                store.record_update("hot", f"v{i}")
            assert store.gc_runs > 0  # maybe_gc really fired
            with oracle.reading(reader):
                # the covering version is the value before the storm
                assert store.read("hot", "current") == "v0"
        finally:
            oracle.ORACLE.release(reader)
        reclaimed = store.gc()
        assert reclaimed > 0
        assert store.metadata_counts() == {
            "stamps": 0,
            "chain_versions": 0,
            "tombstones": 0,
        }

    def test_gc_reclaims_tombstones_via_on_reclaim(self):
        removed = []
        store = VersionStore("t", on_reclaim=removed.append)
        snap = oracle.ORACLE.begin()
        try:
            store.record_delete("k")
        finally:
            oracle.ORACLE.release(snap)
        store.gc()
        assert removed == ["k"]
        assert store.metadata_counts()["tombstones"] == 0


class TestRelationalSnapshots:
    def _table(self):
        db = Database(name="mvcc-test")
        db.execute("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")
        db.execute("INSERT INTO kv VALUES (1, 'one')")
        return db.catalog.table("kv")

    def test_held_snapshot_ignores_updates_and_deletes(self):
        table = self._table()
        handle = table.lookup("id", 1)[0]
        with oracle.held_snapshot():
            assert table.fetch(handle)[1] == "one"
            table.update(handle, {"v": "two"})
            table.delete(handle)
            # the held view still sees the original committed row
            assert [row for _, row in table.scan()] == [(1, "one")]
            assert table.fetch(handle)[1] == "one"
        assert list(table.scan()) == []  # current view: deleted

    def test_undo_delete_restores_a_tombstoned_row(self):
        table = self._table()
        handle = table.lookup("id", 1)[0]
        with oracle.held_snapshot():
            row = table.fetch(handle)
            table.delete(handle)
            assert table.undo_delete(handle, row) == handle
        assert table.lookup("id", 1) == [handle]


class TestIsolationLevelPlumbing:
    LEVELS = ("snapshot", "read-committed")

    @pytest.mark.parametrize(
        "system", ["postgres-sql", "neo4j-cypher", "virtuoso-sparql"]
    )
    def test_engine_connectors_forward_to_their_database(
        self, dataset, system
    ):
        connector = make_connector(system)
        connector.load(dataset)
        for level in self.LEVELS:
            connector.set_isolation_level(level)
            assert connector.db.options.isolation_level == level
        with pytest.raises(ValueError, match="unknown isolation level"):
            connector.set_isolation_level("chaos")

    def test_gremlin_connector_forwards_to_the_server(self, dataset):
        connector = make_connector("neo4j-gremlin")
        connector.load(dataset)
        connector.set_isolation_level("read-committed")
        assert connector.server.options.isolation_level == "read-committed"

    def test_sqlg_connector_reaches_server_and_database(self, dataset):
        connector = make_connector("sqlg")
        connector.load(dataset)
        connector.set_isolation_level("read-committed")
        assert connector.server.options.isolation_level == "read-committed"
        assert (
            connector.provider.db.options.isolation_level == "read-committed"
        )


class TestConnectorSnapshotStability:
    """A held snapshot is immune to the update stream, per system."""

    @pytest.mark.parametrize(
        "system",
        [
            "postgres-sql",
            "neo4j-cypher",
            "virtuoso-sparql",
            "neo4j-gremlin",
            "titan-c",
        ],
    )
    def test_held_reads_are_stable_under_updates(self, dataset, system):
        from repro.core.benchmark import WorkloadParams

        connector = make_connector(system)
        connector.load(dataset)
        pid = WorkloadParams.curate(dataset, count=1, seed=3).person_ids[0]
        snap = oracle.ORACLE.begin()
        try:
            with oracle.reading(snap):
                before = (
                    connector.person_profile(pid),
                    connector.one_hop(pid),
                    connector.person_recent_posts(pid, 10),
                )
            for event in dataset.updates[:40]:
                connector.apply_update(event)
            with oracle.reading(snap):
                after = (
                    connector.person_profile(pid),
                    connector.one_hop(pid),
                    connector.person_recent_posts(pid, 10),
                )
            assert after == before
        finally:
            oracle.ORACLE.release(snap)


class TestDriverIsolation:
    def test_snapshot_readers_never_wait_on_the_latch(self, dataset):
        from repro.driver import InteractiveConfig, InteractiveWorkloadRunner

        def run(level):
            connector = make_connector("postgres-sql")
            connector.load(dataset)
            config = InteractiveConfig(
                readers=4,
                duration_ms=60.0,
                window_ms=15.0,
                isolation_level=level,
            )
            return InteractiveWorkloadRunner(connector, dataset, config).run()

        snapshot = run("snapshot")
        locked = run("read-committed")
        assert snapshot.updates_applied > 0
        assert snapshot.reader_lock_waits == 0
        assert snapshot.reader_lock_wait_us == 0.0
        assert locked.reader_lock_waits > 0
        assert locked.reader_lock_wait_us > 0.0
