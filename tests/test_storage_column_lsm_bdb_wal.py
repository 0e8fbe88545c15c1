"""Tests for the column store, LSM tree, BDB store, and WAL."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simclock import meter
from repro.storage import (
    BDBStore,
    BufferPool,
    Checkpointer,
    ColumnTable,
    ColumnType,
    DiskManager,
    LSMTree,
    WriteAheadLog,
)
from repro.storage.lsm import BloomFilter


def make_table():
    return ColumnTable(
        "person",
        [("id", ColumnType.INT), ("name", ColumnType.TEXT), ("age", ColumnType.INT)],
    )


class TestColumnTable:
    def test_append_read(self):
        table = make_table()
        pos = table.append((1, "alice", 30))
        assert table.read_row(pos) == (1, "alice", 30)
        assert len(table) == 1

    def test_projection(self):
        table = make_table()
        pos = table.append((1, "alice", 30))
        assert table.read_values(pos, ["name"]) == ("alice",)

    def test_scan_skips_deleted(self):
        table = make_table()
        p0 = table.append((1, "a", 10))
        p1 = table.append((2, "b", 20))
        table.delete(p0)
        assert list(table.scan()) == [(p1, (2, "b", 20))]
        assert not table.is_live(p0)

    def test_update(self):
        table = make_table()
        pos = table.append((1, "a", 10))
        table.update(pos, {"age": 11})
        assert table.read_row(pos) == (1, "a", 11)

    def test_rejected_update_changes_no_column(self):
        table = make_table()
        pos = table.append((1, "a", 10))
        with pytest.raises(TypeError):
            table.update(pos, {"name": "b", "age": "old"})
        assert table.read_row(pos) == (1, "a", 10)

    def test_update_charges_per_column(self):
        table = make_table()
        pos = table.append((1, "a", 10))
        with meter() as ledger:
            table.update(pos, {"age": 11, "name": "b"})
        assert ledger.counters["column_update"] == 2

    def test_dictionary_encoding_shares_strings(self):
        table = make_table()
        for i in range(100):
            table.append((i, "same-city", i))
        # dictionary has one entry; codes vector costs 4 bytes/row
        name_col = table._columns["name"]
        assert len(name_col.codes) == 1

    def test_column_values_single_column_scan(self):
        table = make_table()
        for i in range(5):
            table.append((i, f"n{i}", i))
        assert [v for _, v in table.column_values("id")] == list(range(5))

    def test_double_delete_rejected(self):
        table = make_table()
        pos = table.append((1, "a", 10))
        table.delete(pos)
        with pytest.raises(KeyError):
            table.delete(pos)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            make_table().append((1,))

    def test_unknown_column_rejected(self):
        table = make_table()
        table.append((1, "a", 10))
        with pytest.raises(KeyError):
            table.read_values(0, ["bogus"])

    def test_size_bytes_positive(self):
        table = make_table()
        table.append((1, "alice", 30))
        assert table.size_bytes() > 0


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(100)
        keys = [f"key-{i}".encode() for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(k) for k in keys)

    def test_mostly_rejects_absent(self):
        bloom = BloomFilter(100)
        for i in range(100):
            bloom.add(f"key-{i}".encode())
        false_positives = sum(
            bloom.might_contain(f"other-{i}".encode()) for i in range(1000)
        )
        assert false_positives < 50  # ~1% expected at 10 bits/key


class TestLSMTree:
    def test_put_get(self):
        lsm = LSMTree()
        lsm.put(b"k", b"v")
        assert lsm.get(b"k") == b"v"
        assert lsm.get(b"absent") is None

    def test_overwrite(self):
        lsm = LSMTree()
        lsm.put(b"k", b"v1")
        lsm.put(b"k", b"v2")
        assert lsm.get(b"k") == b"v2"

    def test_delete_tombstone(self):
        lsm = LSMTree(memtable_limit=4)
        lsm.put(b"k", b"v")
        lsm.flush()
        lsm.delete(b"k")
        assert lsm.get(b"k") is None

    def test_flush_on_memtable_limit(self):
        lsm = LSMTree(memtable_limit=10)
        for i in range(25):
            lsm.put(f"k{i:03d}".encode(), b"v")
        assert lsm.flush_count >= 2
        for i in range(25):
            assert lsm.get(f"k{i:03d}".encode()) == b"v"

    def test_compaction_bounds_sstables(self):
        lsm = LSMTree(memtable_limit=4, max_sstables=3)
        for i in range(100):
            lsm.put(f"k{i:04d}".encode(), str(i).encode())
        assert lsm.compaction_count >= 1
        assert lsm.sstable_count <= 4
        for i in range(100):
            assert lsm.get(f"k{i:04d}".encode()) == str(i).encode()

    def test_range_scan_merges_runs(self):
        lsm = LSMTree(memtable_limit=4)
        for i in range(20):
            lsm.put(f"k{i:02d}".encode(), str(i).encode())
        got = list(lsm.range_scan(b"k05", b"k10"))
        assert [k for k, _ in got] == [f"k{i:02d}".encode() for i in range(5, 10)]

    def test_range_scan_sees_overwrites_and_deletes(self):
        lsm = LSMTree(memtable_limit=4)
        for i in range(10):
            lsm.put(f"k{i}".encode(), b"old")
        lsm.flush()
        lsm.put(b"k3", b"new")
        lsm.delete(b"k4")
        scan = dict(lsm.range_scan(b"k0", b"k9"))
        assert scan[b"k3"] == b"new"
        assert b"k4" not in scan

    def test_type_validation(self):
        with pytest.raises(TypeError):
            LSMTree().put("str", b"v")  # type: ignore[arg-type]

    def test_read_charges_grow_with_sstables(self):
        lsm = LSMTree(memtable_limit=4, max_sstables=50)
        for i in range(40):
            lsm.put(f"k{i:02d}".encode(), b"v")
        with meter() as ledger:
            lsm.get(b"k00")
        assert ledger.counters["lsm_bloom_check"] >= 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.integers(0, 50),
                st.binary(min_size=1, max_size=8),
            ),
            max_size=200,
        )
    )
    def test_matches_dict_model(self, ops):
        lsm = LSMTree(memtable_limit=8, max_sstables=3)
        model: dict[bytes, bytes] = {}
        for op, key_i, value in ops:
            key = f"k{key_i:03d}".encode()
            if op == "put":
                lsm.put(key, value)
                model[key] = value
            else:
                lsm.delete(key)
                model.pop(key, None)
        for key_i in range(51):
            key = f"k{key_i:03d}".encode()
            assert lsm.get(key) == model.get(key)
        assert dict(lsm.range_scan(b"k000", b"k999")) == model


class TestBDBStore:
    def test_put_get_delete(self):
        bdb = BDBStore()
        bdb.put(b"a", b"1")
        assert bdb.get(b"a") == b"1"
        assert bdb.delete(b"a")
        assert bdb.get(b"a") is None
        assert not bdb.delete(b"a")

    def test_overwrite_keeps_single_entry(self):
        bdb = BDBStore()
        bdb.put(b"a", b"1")
        bdb.put(b"a", b"2")
        assert bdb.get(b"a") == b"2"
        assert len(bdb) == 1

    def test_range_scan(self):
        bdb = BDBStore()
        for i in range(10):
            bdb.put(f"k{i}".encode(), str(i).encode())
        got = [k for k, _ in bdb.range_scan(b"k3", b"k7")]
        assert got == [b"k3", b"k4", b"k5", b"k6"]

    def test_serializes_writers_flag(self):
        assert BDBStore.serializes_writers

    def test_charges_pages(self):
        bdb = BDBStore()
        for i in range(200):
            bdb.put(f"key-{i:04d}".encode(), b"v")
        with meter() as ledger:
            bdb.get(b"key-0100")
        assert ledger.counters["bdb_page"] >= 2

    def test_size_tracks_content(self):
        bdb = BDBStore()
        bdb.put(b"a", b"12345")
        size_one = bdb.size_bytes()
        bdb.put(b"a", b"1")
        assert bdb.size_bytes() < size_one


class TestWAL:
    def test_append_and_commit(self):
        wal = WriteAheadLog()
        lsn = wal.append(b"rec1")
        assert lsn == 1
        assert wal.unsynced_records == 1
        wal.commit()
        assert wal.unsynced_records == 0
        assert wal.fsync_count == 1

    def test_commit_idempotent_when_clean(self):
        wal = WriteAheadLog()
        wal.append(b"r")
        wal.commit()
        wal.commit()  # nothing new: no extra fsync
        assert wal.fsync_count == 1

    def test_records_since(self):
        wal = WriteAheadLog()
        wal.append(b"a")
        wal.append(b"b")
        assert wal.records_since(1) == [b"b"]

    def test_checkpointer_flushes_dirty_pages(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=16)
        wal = WriteAheadLog()
        ckpt = Checkpointer(pool, wal)
        pid, page = pool.new_page()
        page.insert(b"data")
        pool.mark_dirty(pid)
        wal.append(b"insert")
        flushed = ckpt.checkpoint()
        assert flushed >= 1
        assert ckpt.checkpoint_count == 1
        assert ckpt.last_checkpoint_lsn == wal.last_lsn
        assert pool.dirty_count() == 0
