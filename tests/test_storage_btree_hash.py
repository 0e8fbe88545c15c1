"""Tests for the B+tree and hash index."""

import tracemalloc
from bisect import bisect_left, bisect_right
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simclock import meter
from repro.simclock.ledger import charge
from repro.storage import BPlusTree, HashIndex
from repro.storage.btree import _Dups, _Node


class TestBPlusTree:
    def test_empty(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.search(1) == []
        assert list(tree.items()) == []

    def test_insert_search(self):
        tree = BPlusTree()
        tree.insert(5, "five")
        assert tree.search(5) == ["five"]
        assert tree.search(6) == []

    def test_duplicates_allowed_by_default(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert sorted(tree.search(1)) == ["a", "b"]
        assert len(tree) == 2

    def test_unique_rejects_duplicates(self):
        tree = BPlusTree(unique=True)
        tree.insert(1, "a")
        with pytest.raises(KeyError):
            tree.insert(1, "b")

    def test_split_preserves_order(self):
        tree = BPlusTree(order=4)
        keys = list(range(100))
        for k in keys:
            tree.insert(k, k * 10)
        assert [k for k, _ in tree.items()] == keys
        assert tree.height() > 1

    def test_reverse_insertion_order(self):
        tree = BPlusTree(order=4)
        for k in reversed(range(50)):
            tree.insert(k, str(k))
        assert [k for k, _ in tree.items()] == list(range(50))

    def test_range_scan_bounds(self):
        tree = BPlusTree(order=4)
        for k in range(20):
            tree.insert(k, k)
        assert [k for k, _ in tree.range_scan(5, 8)] == [5, 6, 7, 8]
        assert [k for k, _ in tree.range_scan(5, 8, lo_inclusive=False)] == [6, 7, 8]
        assert [k for k, _ in tree.range_scan(5, 8, hi_inclusive=False)] == [5, 6, 7]
        assert [k for k, _ in tree.range_scan(hi=2)] == [0, 1, 2]
        assert [k for k, _ in tree.range_scan(lo=17)] == [17, 18, 19]

    def test_range_scan_missing_bound_keys(self):
        tree = BPlusTree(order=4)
        for k in [10, 20, 30, 40]:
            tree.insert(k, k)
        assert [k for k, _ in tree.range_scan(15, 35)] == [20, 30]

    def test_delete_specific_value(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "a") == 1
        assert tree.search(1) == ["b"]

    def test_delete_all_values(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1) == 2
        assert tree.search(1) == []
        assert len(tree) == 0

    def test_delete_absent_key(self):
        assert BPlusTree().delete(99) == 0

    def test_tuple_keys(self):
        tree = BPlusTree()
        tree.insert((1, "a"), "x")
        tree.insert((1, "b"), "y")
        tree.insert((2, "a"), "z")
        got = [v for _, v in tree.range_scan((1, ""), (1, "zzz"))]
        assert got == ["x", "y"]

    def test_charges_index_work(self):
        tree = BPlusTree(order=4)
        for k in range(100):
            tree.insert(k, k)
        with meter() as ledger:
            tree.search(50)
        assert ledger.counters["index_probe"] == 1
        assert ledger.counters["index_node"] >= tree.height()

    def test_order_validation(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers()), max_size=300))
    def test_matches_sorted_model(self, pairs):
        tree = BPlusTree(order=4)
        model: dict[int, list[int]] = {}
        for key, value in pairs:
            tree.insert(key, value)
            model.setdefault(key, []).append(value)
        expected = [
            (k, v) for k in sorted(model) for v in model[k]
        ]
        assert list(tree.items()) == expected
        for key in model:
            assert tree.search(key) == model[key]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=200),
        st.lists(st.integers(0, 100), max_size=100),
    )
    def test_delete_property(self, inserts, deletes):
        tree = BPlusTree(order=4)
        model: dict[int, list[int]] = {}
        for k in inserts:
            tree.insert(k, k)
            model.setdefault(k, []).append(k)
        for k in deletes:
            removed = tree.delete(k)
            assert removed == len(model.pop(k, []))
        expected = [(k, v) for k in sorted(model) for v in model[k]]
        assert list(tree.items()) == expected


class TestHashIndex:
    def test_insert_search(self):
        idx = HashIndex()
        idx.insert("k", 1)
        idx.insert("k", 2)
        assert idx.search("k") == [1, 2]
        assert idx.search("absent") == []

    def test_unique(self):
        idx = HashIndex(unique=True)
        idx.insert("k", 1)
        with pytest.raises(KeyError):
            idx.insert("k", 2)

    def test_delete_value(self):
        idx = HashIndex()
        idx.insert("k", 1)
        idx.insert("k", 2)
        assert idx.delete("k", 1) == 1
        assert idx.search("k") == [2]

    def test_delete_key(self):
        idx = HashIndex()
        idx.insert("k", 1)
        idx.insert("k", 2)
        assert idx.delete("k") == 2
        assert idx.search("k") == []
        assert len(idx) == 0

    def test_items(self):
        idx = HashIndex()
        idx.insert("a", 1)
        idx.insert("b", 2)
        assert sorted(idx.items()) == [("a", 1), ("b", 2)]

    def test_charges(self):
        idx = HashIndex()
        with meter() as ledger:
            idx.insert("a", 1)
            idx.search("a")
        assert ledger.counters["index_insert"] == 1
        assert ledger.counters["hash_probe"] == 1


# -- both indexes against a dict-of-lists model ---------------------------

# stored values include lists and tuples: a caller's list must never be
# read as the index's own bucket of duplicates
_VALUES = st.one_of(
    st.integers(0, 3),
    st.lists(st.integers(0, 2), max_size=2),
    st.tuples(st.integers(0, 2)),
)
_MAX_KEY = 12
_KEYS = st.integers(0, _MAX_KEY)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS, _VALUES),
        st.tuples(st.just("delete"), _KEYS, st.none()),
        st.tuples(st.just("delete"), _KEYS, _VALUES),
    ),
    max_size=120,
)


def _apply(index, model, unique, op, key, value):
    """One step on ``index`` and on the model (key -> values in order)."""
    values = model.get(key, [])
    if op == "insert":
        if unique and values:
            with pytest.raises(KeyError):
                index.insert(key, value)
            return
        index.insert(key, value)
        model[key] = [*values, value]
        return
    kept = [] if value is None else [v for v in values if v != value]
    assert index.delete(key, value) == len(values) - len(kept)
    if kept:
        model[key] = kept
    else:
        model.pop(key, None)


def _check(index, model, ordered):
    for key in range(_MAX_KEY + 1):
        assert index.search(key) == model.get(key, [])
    keys = sorted(model) if ordered else list(model)
    assert list(index.items()) == [(k, v) for k in keys for v in model[k]]
    assert len(index) == sum(len(values) for values in model.values())


@pytest.mark.parametrize("unique", [False, True])
@pytest.mark.parametrize(
    "cls", [partial(BPlusTree, order=4), HashIndex], ids=["btree", "hash"]
)
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_index_matches_model(cls, unique, ops):
    index = cls(unique=unique)
    model: dict[int, list] = {}
    for op, key, value in ops:
        _apply(index, model, unique, op, key, value)
        _check(index, model, ordered=isinstance(index, BPlusTree))


@settings(max_examples=40, deadline=None)
@given(ops=_OPS, lo=_KEYS, hi=_KEYS)
def test_range_scan_charges_value_cpu_once_per_pair(ops, lo, hi):
    tree = BPlusTree(order=4)
    model: dict[int, list] = {}
    for op, key, value in ops:
        _apply(tree, model, False, op, key, value)
    for bounds in ({}, {"lo": lo, "hi": hi}):
        with meter() as ledger:
            pairs = list(tree.range_scan(**bounds))
        assert ledger.counters["value_cpu"] == len(pairs)
        assert pairs == [
            (k, v)
            for k in sorted(model)
            if bounds.get("lo", k) <= k <= bounds.get("hi", k)
            for v in model[k]
        ]


@pytest.mark.parametrize("cls", [BPlusTree, HashIndex])
def test_search_returns_a_fresh_list(cls):
    index = cls()
    index.insert(1, [2, 3])
    got = index.search(1)
    assert got == [[2, 3]]
    got.append("x")
    assert index.search(1) == [[2, 3]]
    index.insert(1, "y")
    index.search(1).clear()
    assert index.search(1) == [[2, 3], "y"]


@pytest.mark.parametrize("cls", [BPlusTree, HashIndex])
def test_unique_int_keys_trace_at_most_48_bytes_per_entry(cls):
    # a key's lone value sits in its slot: no list object per entry
    keys = list(range(20_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = cls()
        for key in keys:
            index.insert(key, key)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == len(keys)
    assert used / len(keys) <= 48


# -- the iterative insert against the recursive one it replaced ----------


class _RecursiveInsert(BPlusTree):
    """The reference: the recursive insert and a probe descent that
    charge one ``index_node`` per node on the way down, splits returned
    up the call stack."""

    def _find_leaf(self, key):
        node = self._root
        charge("index_node")
        while not node.is_leaf:
            node = node.children[bisect_right(node.keys, key)]
            charge("index_node")
        return node

    def insert(self, key, value):
        charge("index_insert")
        split = self._insert_into(self._root, key, value)
        if split is not None:
            sep_key, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert_into(self, node, key, value):
        charge("index_node")
        if node.is_leaf:
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                if self.unique:
                    raise KeyError(f"duplicate key in unique index: {key!r}")
                slot = node.values[idx]
                if type(slot) is _Dups:
                    slot.append(value)
                else:
                    node.values[idx] = _Dups((slot, value))
            else:
                node.keys.insert(idx, key)
                node.values.insert(idx, value)
            self._count += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        idx = bisect_right(node.keys, key)
        split = self._insert_into(node.children[idx], key, value)
        if split is None:
            return None
        sep_key, right = split
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right)
        if len(node.keys) > self.order:
            return self._split_internal(node)
        return None


def _shape(node):
    """A node and everything under it as plain data (slot types kept)."""
    if node.is_leaf:
        return ("leaf", list(node.keys), [(type(v), v) for v in node.values])
    return ("node", list(node.keys), [_shape(c) for c in node.children])


def _depth(tree):
    node, depth = tree._root, 1
    while not node.is_leaf:
        node, depth = node.children[0], depth + 1
    return depth


def _leaf_chain(tree):
    node = tree._root
    while not node.is_leaf:
        node = node.children[0]
    chain = []
    while node is not None:
        chain.append((list(node.keys), list(node.values)))
        node = node.next
    return chain


def _insert_all(tree, pairs):
    """Insert every pair under one meter; a rejected duplicate of a
    unique tree must leave the tree as it was."""
    with meter() as ledger:
        for key, value in pairs:
            before = (_shape(tree._root), len(tree))
            try:
                tree.insert(key, value)
            except KeyError:
                assert tree.unique
                assert (_shape(tree._root), len(tree)) == before
    return list(ledger.counters.items())


@pytest.mark.parametrize("unique", [False, True])
@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 3)), max_size=400
    ),
    order=st.sampled_from([4, 5, 8]),
)
def test_insert_matches_recursive_reference(unique, pairs, order):
    tree = BPlusTree(order=order, unique=unique)
    reference = _RecursiveInsert(order=order, unique=unique)
    ledger = _insert_all(tree, pairs)
    assert ledger == _insert_all(reference, pairs)
    assert _shape(tree._root) == _shape(reference._root)
    assert _leaf_chain(tree) == _leaf_chain(reference)
    assert len(tree) == len(reference)
    assert tree.height() == _depth(tree)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.integers(0, 60), max_size=300),
    order=st.sampled_from([4, 5, 8]),
)
def test_search_or_insert_is_search_then_insert(keys, order):
    tree = BPlusTree(order=order)
    reference = _RecursiveInsert(order=order)
    with meter() as got:
        found = [tree.search_or_insert(key, -key) for key in keys]
    with meter() as want:
        expected = []
        for key in keys:
            expected.append(reference.search(key))
            if not expected[-1]:
                reference.insert(key, -key)
    assert found == expected
    assert list(got.counters.items()) == list(want.counters.items())
    assert _shape(tree._root) == _shape(reference._root)
    assert _leaf_chain(tree) == _leaf_chain(reference)
    assert tree.height() == _depth(tree)
