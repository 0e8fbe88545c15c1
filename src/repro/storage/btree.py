"""A B+tree index with duplicate support and ordered range scans.

Nodes are in-memory Python objects (the *data* pages live in heaps and KV
stores; indexes in the real systems are hot and cached), but every node
touched charges ``index_node`` so descents and scans have realistic
simulated cost.  Deletes remove entries from leaves without rebalancing —
the standard "lazy delete" used by many production trees.

A leaf slot holds a key's lone value bare; only a key with two or more
values holds a :class:`_Dups` list.  A tree built with a
``key_typecode`` keeps its leaf keys in an :class:`array.array` of that
type (8 bytes a key for ``"q"`` instead of a 32-byte int object plus its
pointer); ``bisect``, ``insert``, ``pop`` and slicing treat an array as
they treat a list, so both layouts share every code path.  The layout is
host memory only: every ledger charge is per probe, node or yielded
value.
"""

from __future__ import annotations

from array import array
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
    """B+tree mapping comparable keys to one or more values.

    ``key_typecode`` (an :mod:`array` typecode) packs the leaf keys into
    an array; every key must then fit that type.  Splits slice a leaf's
    keys, so each new leaf inherits the array from the first one.
    """

    def __init__(
        self,
        order: int = 64,
        unique: bool = False,
        name: str = "",
        key_typecode: str | None = None,
    ) -> None:
        if order < 4:
            raise ValueError("order must be >= 4")
        self.order = order
        self.unique = unique
        self.name = name
        self._root: _Node = _Node(is_leaf=True)
        if key_typecode is not None:
            self._root.keys = array(key_typecode)  # type: ignore[assignment]
        self._count = 0
        # nodes on every root-to-leaf path (all leaves are equally deep):
        # one more with each new root, and lazy deletes never shrink it
        self._height = 1

    def __len__(self) -> int:
        return self._count

    # -- search -------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        """The leaf ``key`` belongs in; every leaf is ``height`` nodes
        down, each one ``index_node``, charged as one sum."""
        node = self._root
        while not node.is_leaf:
            node = node.children[bisect_right(node.keys, key)]
        charge("index_node", self._height)
        return node

    def search(self, key: Any) -> list[Any]:
        """All values stored under ``key`` (empty list when absent)."""
        return self._probe(key)[1]

    def _probe(self, key: Any) -> tuple[_Node, list[Any]]:
        """``key``'s leaf and the values stored under it."""
        charge("index_probe")
        leaf = self._find_leaf(key)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            slot = leaf.values[idx]
            return leaf, (list(slot) if type(slot) is _Dups else [slot])
        return leaf, []

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
        while not node.is_leaf:
            node = node.children[0]
        charge("index_node", self._height)
        return node

    # -- insert --------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Add ``value`` under ``key``; a unique index raises ``KeyError``
        on a present key and is left unchanged."""
        charge("index_insert")
        self._insert_at(self._find_leaf(key), key, value)

    def search_or_insert(self, key: Any, value: Any) -> list[Any]:
        """``search(key)``, and ``insert(key, value)`` when that found
        nothing; returns what the search found.  One descent serves
        both, charged as the two calls would be."""
        leaf, found = self._probe(key)
        if not found:
            charge("index_insert")
            charge("index_node", self._height)
            self._insert_at(leaf, key, value)
        return found

    def _insert_at(self, leaf: _Node, key: Any, value: Any) -> None:
        keys = leaf.keys
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            if self.unique:
                raise KeyError(f"duplicate key in unique index: {key!r}")
            slot = leaf.values[idx]
            if type(slot) is _Dups:
                slot.append(value)
            else:
                leaf.values[idx] = _Dups((slot, value))
        else:
            keys.insert(idx, key)
            leaf.values.insert(idx, value)
        self._count += 1
        if len(keys) > self.order:
            self._split_from(leaf, key)

    def _split_from(self, leaf: _Node, key: Any) -> None:
        """Split an overfull ``leaf`` and carry the splits up the path
        that ``key`` descends by (no charge: the descent paid for it)."""
        path: list[tuple[_Node, int]] = []
        node = self._root
        while node is not leaf:
            idx = bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        sep_key, right = self._split_leaf(leaf)
        while path:
            parent, idx = path.pop()
            parent.keys.insert(idx, sep_key)
            parent.children.insert(idx + 1, right)
            if len(parent.keys) <= self.order:
                return
            sep_key, right = self._split_internal(parent)
        new_root = _Node(is_leaf=False)
        new_root.keys = [sep_key]
        new_root.children = [self._root, right]
        self._root = new_root
        self._height += 1

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
        return self._height
