"""A B+tree index with duplicate support and ordered range scans.

Nodes are in-memory Python objects (the *data* pages live in heaps and KV
stores; indexes in the real systems are hot and cached), but every node
touched charges ``index_node`` so descents and scans have realistic
simulated cost.  Deletes remove entries from leaves without rebalancing —
the standard "lazy delete" used by many production trees.

A leaf slot holds a key's lone value bare; only a key with two or more
values holds a :class:`_Dups` list.  The layout is host memory only:
every ledger charge is per probe, node or yielded value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from typing import Any

from repro.simclock.ledger import charge

# a slot with nothing left in it (and, for HashIndex, an absent key)
_EMPTY: Any = object()


class _Dups(list):
    """The values of a key that holds two or more, in insertion order.

    Any other slot is one bare value, so a stored list or tuple is never
    read as a bucket of values.
    """

    __slots__ = ()


def _discard(slot: Any, value: Any) -> tuple[int, Any]:
    """Delete ``value`` (every value when None) from one key's ``slot``.

    Returns the number removed and the slot to keep, ``_EMPTY`` when no
    value is left.  A key left with one value holds it bare again.
    """
    if type(slot) is not _Dups:
        if value is not None and slot != value:
            return 0, slot
        return 1, _EMPTY
    if value is None:
        return len(slot), _EMPTY
    kept = [v for v in slot if v != value]
    removed = len(slot) - len(kept)
    if not kept:
        return removed, _EMPTY
    if len(kept) == 1:
        return removed, kept[0]
    slot[:] = kept
    return removed, slot


class _Node:
    __slots__ = ("keys", "children", "values", "next", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        self.children: list[_Node] = []  # internal nodes only
        self.values: list[Any] = []  # leaf nodes only (value or _Dups)
        self.next: _Node | None = None  # leaf sibling chain


class BPlusTree:
    """B+tree mapping comparable keys to one or more values."""

    def __init__(self, order: int = 64, unique: bool = False, name: str = "") -> None:
        if order < 4:
            raise ValueError("order must be >= 4")
        self.order = order
        self.unique = unique
        self.name = name
        self._root: _Node = _Node(is_leaf=True)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- search -------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        charge("index_node")
        while not node.is_leaf:
            idx = bisect_right(node.keys, key)
            node = node.children[idx]
            charge("index_node")
        return node

    def search(self, key: Any) -> list[Any]:
        """All values stored under ``key`` (empty list when absent)."""
        charge("index_probe")
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            slot = leaf.values[idx]
            return list(slot) if type(slot) is _Dups else [slot]
        return []

    def range_scan(
        self,
        lo: Any = None,
        hi: Any = None,
        *,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` in key order for keys in the given range."""
        charge("index_probe")
        if lo is None:
            node: _Node | None = self._leftmost_leaf()
            idx = 0
        else:
            node = self._find_leaf(lo)
            idx = (
                bisect_left(node.keys, lo)
                if lo_inclusive
                else bisect_right(node.keys, lo)
            )
        while node is not None:
            while idx < len(node.keys):
                key = node.keys[idx]
                if hi is not None:
                    if hi_inclusive and key > hi:
                        return
                    if not hi_inclusive and key >= hi:
                        return
                slot = node.values[idx]
                if type(slot) is _Dups:
                    for value in slot:
                        charge("value_cpu")
                        yield key, value
                else:
                    charge("value_cpu")
                    yield key, slot
                idx += 1
            node = node.next
            if node is not None:
                charge("index_node")
            idx = 0

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Full ordered iteration."""
        return self.range_scan()

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        charge("index_node")
        while not node.is_leaf:
            node = node.children[0]
            charge("index_node")
        return node

    # -- insert --------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        charge("index_insert")
        split = self._insert_into(self._root, key, value)
        if split is not None:
            sep_key, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep_key]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert_into(
        self, node: _Node, key: Any, value: Any
    ) -> tuple[Any, _Node] | None:
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

    def _split_leaf(self, node: _Node) -> tuple[Any, _Node]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> tuple[Any, _Node]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep_key, right

    # -- delete --------------------------------------------------------------

    def delete(self, key: Any, value: Any = None) -> int:
        """Delete entries under ``key``.

        When ``value`` is given, only matching values are removed; otherwise
        every value under the key goes.  Returns the number removed.
        """
        charge("index_insert")
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            return 0
        removed, rest = _discard(leaf.values[idx], value)
        if rest is _EMPTY:
            leaf.keys.pop(idx)
            leaf.values.pop(idx)
        else:
            leaf.values[idx] = rest
        self._count -= removed
        return removed

    # -- stats ---------------------------------------------------------------

    def height(self) -> int:
        height = 1
        node = self._root
        while not node.is_leaf:
            height += 1
            node = node.children[0]
        return height
