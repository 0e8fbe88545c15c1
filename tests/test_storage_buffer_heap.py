"""Tests for the disk manager, buffer pool, and heap file."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simclock import meter
from repro.storage import BufferPool, DiskManager, HeapFile, PAGE_SIZE


def make_heap(capacity=64):
    disk = DiskManager()
    pool = BufferPool(disk, capacity=capacity)
    return HeapFile(pool), pool, disk


class TestDiskManager:
    def test_allocate_and_read(self):
        disk = DiskManager()
        pid = disk.allocate()
        assert disk.read(pid) == bytes(PAGE_SIZE)

    def test_write_roundtrip(self):
        disk = DiskManager()
        pid = disk.allocate()
        image = bytes([1]) * PAGE_SIZE
        disk.write(pid, image)
        assert disk.read(pid) == image

    def test_fresh_pages_share_one_zero_image(self):
        disk = DiskManager()
        a, b = disk.allocate(), disk.allocate()
        assert disk.read(a) is disk.read(b)
        assert disk.read(b) == bytes(PAGE_SIZE)
        disk.write(a, bytes([7]) * PAGE_SIZE)
        assert disk.read(a) == bytes([7]) * PAGE_SIZE
        assert disk.read(b) == bytes(PAGE_SIZE)
        # a frame loaded from the shared image is a private copy
        pool = BufferPool(disk, capacity=4)
        pool.get(b)[0] = 9
        assert disk.read(b) == bytes(PAGE_SIZE)
        assert disk.read(disk.allocate()) == bytes(PAGE_SIZE)

    def test_write_wrong_size_rejected(self):
        disk = DiskManager()
        pid = disk.allocate()
        with pytest.raises(ValueError):
            disk.write(pid, b"short")

    def test_charges_page_io(self):
        disk = DiskManager()
        pid = disk.allocate()
        with meter() as ledger:
            disk.read(pid)
            disk.write(pid, bytes(PAGE_SIZE))
        assert ledger.counters["page_read"] == 1
        assert ledger.counters["page_write"] == 1


class TestBufferPool:
    def test_hit_vs_miss_accounting(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=2)
        pid = disk.allocate()
        with meter() as ledger:
            pool.get(pid)  # miss
            pool.get(pid)  # hit
        assert pool.misses == 1
        assert pool.hits == 1
        assert ledger.counters["page_read"] == 1
        assert ledger.counters["buffer_hit"] >= 1

    def test_eviction_writes_back_dirty(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=1)
        pid_a, page_a = pool.new_page()
        page_a.insert(b"dirty data")
        pool.mark_dirty(pid_a)
        pool.new_page()  # evicts pid_a
        # the dirty page reached disk
        from repro.storage.pages import SlottedPage

        reloaded = SlottedPage(bytearray(disk.read(pid_a)))
        assert reloaded.read(0) == b"dirty data"

    def test_flush_all(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=8)
        pid, page = pool.new_page()
        page.insert(b"x")
        pool.mark_dirty(pid)
        assert pool.flush_all() >= 1
        assert pool.dirty_count() == 0

    def test_mark_dirty_requires_residency(self):
        disk = DiskManager()
        pool = BufferPool(disk, capacity=1)
        with pytest.raises(KeyError):
            pool.mark_dirty(999)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(DiskManager(), capacity=0)


class TestHeapFile:
    def test_insert_fetch(self):
        heap, _, _ = make_heap()
        rid = heap.insert(b"record one")
        assert heap.fetch(rid) == b"record one"
        assert heap.record_count == 1

    def test_scan_returns_all(self):
        heap, _, _ = make_heap()
        records = [f"r{i}".encode() for i in range(500)]
        rids = [heap.insert(r) for r in records]
        assert heap.page_count > 0
        scanned = {rid: rec for rid, rec in heap.scan()}
        assert scanned == dict(zip(rids, records))

    def test_delete(self):
        heap, _, _ = make_heap()
        rid = heap.insert(b"gone")
        heap.delete(rid)
        assert heap.record_count == 0
        with pytest.raises(KeyError):
            heap.fetch(rid)

    def test_update_in_place_keeps_rid(self):
        heap, _, _ = make_heap()
        rid = heap.insert(b"abcdef")
        new_rid = heap.update(rid, b"ABCDEF")
        assert new_rid == rid
        assert heap.fetch(rid) == b"ABCDEF"

    def test_update_grow_relocates(self):
        heap, _, _ = make_heap()
        rid = heap.insert(b"ab")
        new_rid = heap.update(rid, b"much longer record body")
        assert heap.fetch(new_rid) == b"much longer record body"
        assert heap.record_count == 1

    def test_oversized_record_rejected(self):
        heap, _, _ = make_heap()
        with pytest.raises(ValueError):
            heap.insert(b"x" * PAGE_SIZE)

    def test_many_records_span_pages(self):
        heap, _, _ = make_heap()
        payload = b"y" * 1000
        for _ in range(50):
            heap.insert(payload)
        assert heap.page_count >= 7

    def test_survives_buffer_pressure(self):
        # pool much smaller than the file: every record still readable
        heap, pool, _ = make_heap(capacity=2)
        rids = [heap.insert(f"rec-{i}".encode() * 20) for i in range(200)]
        for i, rid in enumerate(rids):
            assert heap.fetch(rid) == f"rec-{i}".encode() * 20
        assert pool.misses > 0

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "update"]),
                st.binary(min_size=1, max_size=300),
            ),
            max_size=60,
        )
    )
    def test_matches_dict_model(self, ops):
        heap, _, _ = make_heap(capacity=4)
        model: dict = {}
        live_rids: list = []
        for op, payload in ops:
            if op == "insert" or not live_rids:
                rid = heap.insert(payload)
                model[rid] = payload
                live_rids.append(rid)
            elif op == "delete":
                rid = live_rids.pop()
                heap.delete(rid)
                del model[rid]
            else:  # update
                rid = live_rids.pop()
                new_rid = heap.update(rid, payload)
                del model[rid]
                model[new_rid] = payload
                live_rids.append(new_rid)
        assert {rid: rec for rid, rec in heap.scan()} == model
