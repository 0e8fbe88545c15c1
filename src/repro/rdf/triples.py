"""The triple table: term dictionary + three covering B+tree indexes."""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from repro.simclock.ledger import charge
from repro.stats import TripleStatistics
from repro.storage.btree import BPlusTree
from repro.storage.mvcc import VersionStore

Term = Any  # str IRIs ("sn:pers123") or literal values (int, str, bool)

# An index key is one int: the three term ids of a triple, in the
# index's own order, as 21-bit fields from high to low.  It sorts as the
# id tuple does, so each B+tree has the shape, and each descent and scan
# the charges, that id-tuple keys would give, in half the host memory.
ID_BITS = 21
_MASK = (1 << ID_BITS) - 1
_HIGH = 2 * ID_BITS
# the number of keys sharing a one- and a two-id prefix
_SPAN1 = 1 << _HIGH
_SPAN2 = 1 << ID_BITS


def encode_key(a: int, b: int, c: int) -> int:
    """The index key of the id-triple ``(a, b, c)`` (index order)."""
    return (a << _HIGH) | (b << ID_BITS) | c


def decode_key(key: int) -> tuple[int, int, int]:
    """The id-triple of an index key, in the index's order."""
    return key >> _HIGH, (key >> ID_BITS) & _MASK, key & _MASK


def _prefix_scan(
    index: BPlusTree, lo: int, span: int
) -> Iterator[tuple[int, bool]]:
    """The entries of ``index`` whose keys are in ``[lo, lo + span)``:
    all that share the prefix ``lo`` is the least key of.

    The scan starts after ``lo - 1``, not at ``lo``.  A descent toward
    ``lo`` goes right of a separator equal to it; one toward a bound
    below every key with the prefix (as an id tuple padded with -1 is)
    first visits, and charges, the leaf to its left.
    """
    return index.range_scan(
        lo - 1, lo + span, lo_inclusive=False, hi_inclusive=False
    )


class TripleStore:
    """Triples of interned term ids, indexed SPO, POS, and OSP.

    Every insert updates the term dictionary and all three indexes — the
    "single table with extensive indexing" approach whose maintenance cost
    the paper blames for Virtuoso-SPARQL's slower writes.
    """

    def __init__(self, name: str = "rdf") -> None:
        self.name = name
        self._term_to_id: dict[Term, int] = {}
        self._id_to_term: list[Term] = []
        self._spo = BPlusTree(order=64, name=f"{name}-spo")
        self._pos = BPlusTree(order=64, name=f"{name}-pos")
        self._osp = BPlusTree(order=64, name=f"{name}-osp")
        # version metadata keyed by the canonical id-triple; deferred
        # removes stay in all three indexes until GC reclaims them
        self.mvcc = VersionStore(
            f"{name}-mvcc", on_reclaim=self._reclaim_tombstone
        )
        self.triple_count = 0

    # -- term dictionary --------------------------------------------------------

    def lookup_term(self, term: Term) -> int | None:
        charge("hash_probe")
        return self._term_to_id.get(term)

    def term(self, term_id: int) -> Term:
        charge("value_cpu")
        return self._id_to_term[term_id]

    # -- writes --------------------------------------------------------------------

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Insert one triple; returns False when it already existed."""
        # intern the three terms: one dictionary probe each
        charge("hash_probe", 3)
        ids, terms = self._term_to_id, self._id_to_term
        for term in (s, p, o):
            if term not in ids:
                if len(terms) > _MASK:
                    raise OverflowError(
                        f"{self.name}: term id {len(terms)} does not fit "
                        f"a {ID_BITS}-bit key field"
                    )
                ids[term] = len(terms)
                terms.append(term)
        s_id, p_id, o_id = ids[s], ids[p], ids[o]
        # the existence probe and the SPO insert share one descent
        if self._spo.search_or_insert(encode_key(s_id, p_id, o_id), True):
            if not self.mvcc.record_recreate((s_id, p_id, o_id)):
                return False
            # physically still indexed (its remove was deferred): the
            # re-create is pure metadata, old snapshots keep the gap
            charge("page_write")
            self.triple_count += 1
            return True
        self.mvcc.stamp((s_id, p_id, o_id))
        self._pos.insert(encode_key(p_id, o_id, s_id), True)
        self._osp.insert(encode_key(o_id, s_id, p_id), True)
        # each covering index dirties pages; this maintenance is the
        # paper's "higher index maintenance costs ... where multiple
        # indexes over one big table must be maintained"
        charge("page_write")
        self.triple_count += 1
        return True

    def remove(self, s: Term, p: Term, o: Term) -> bool:
        ids = tuple(self.lookup_term(t) for t in (s, p, o))
        if None in ids:
            return False
        s_id, p_id, o_id = ids
        key = (s_id, p_id, o_id)
        if not self._exists(s_id, p_id, o_id) or not self.mvcc.visible(key):
            return False
        if not self.mvcc.record_delete(key):
            self._delete_physical(key)
        # removal maintains the same three covering indexes as add
        charge("page_write")
        self.triple_count -= 1
        return True

    def _delete_physical(self, key: tuple[int, int, int]) -> None:
        s_id, p_id, o_id = key
        self._spo.delete(encode_key(s_id, p_id, o_id))
        self._pos.delete(encode_key(p_id, o_id, s_id))
        self._osp.delete(encode_key(o_id, s_id, p_id))

    def _reclaim_tombstone(self, key: Any) -> None:
        """GC decided a deferred remove is unobservable: finish it."""
        if self._exists(*key):
            self._delete_physical(key)

    def _exists(self, s_id: int, p_id: int, o_id: int) -> bool:
        return bool(self._spo.search(encode_key(s_id, p_id, o_id)))

    # -- reads ----------------------------------------------------------------------

    def match_ids(
        self,
        s_id: int | None,
        p_id: int | None,
        o_id: int | None,
    ) -> Iterator[tuple[int, int, int]]:
        """All triples matching the bound positions (None = wildcard),
        filtered by the current view's visibility rule."""
        for triple in self._match_ids_raw(s_id, p_id, o_id):
            if self.mvcc.visible(triple):
                yield triple

    def _match_ids_raw(
        self,
        s_id: int | None,
        p_id: int | None,
        o_id: int | None,
    ) -> Iterator[tuple[int, int, int]]:
        """All physically stored triples matching the bound positions.

        Picks the covering index with the longest bound prefix, exactly as
        a triple-table query plan would.
        """
        # each loop decodes only the ids its prefix leaves unbound
        mask = _MASK
        if s_id is not None and o_id is not None and p_id is None:
            for key, _ in _prefix_scan(
                self._osp, encode_key(o_id, s_id, 0), _SPAN2
            ):
                yield s_id, key & mask, o_id
            return
        if s_id is not None:
            if p_id is None:
                for key, _ in _prefix_scan(
                    self._spo, encode_key(s_id, 0, 0), _SPAN1
                ):
                    yield s_id, (key >> ID_BITS) & mask, key & mask
                return
            for key, _ in _prefix_scan(
                self._spo, encode_key(s_id, p_id, 0), _SPAN2
            ):
                o = key & mask
                if o_id is None or o == o_id:
                    yield s_id, p_id, o
            return
        if p_id is not None:
            if o_id is None:
                for key, _ in _prefix_scan(
                    self._pos, encode_key(p_id, 0, 0), _SPAN1
                ):
                    yield key & mask, p_id, (key >> ID_BITS) & mask
                return
            for key, _ in _prefix_scan(
                self._pos, encode_key(p_id, o_id, 0), _SPAN2
            ):
                yield key & mask, p_id, o_id
            return
        if o_id is not None:
            for key, _ in _prefix_scan(
                self._osp, encode_key(o_id, 0, 0), _SPAN1
            ):
                yield (key >> ID_BITS) & mask, key & mask, o_id
            return
        for key, _ in _prefix_scan(self._spo, 0, _SPAN1 << ID_BITS):
            yield key >> _HIGH, (key >> ID_BITS) & mask, key & mask

    def match(
        self, s: Term | None, p: Term | None, o: Term | None
    ) -> Iterator[tuple[Term, Term, Term]]:
        """Term-level match; unseen terms short-circuit to empty."""
        ids = []
        for term in (s, p, o):
            if term is None:
                ids.append(None)
            else:
                term_id = self.lookup_term(term)
                if term_id is None:
                    return
                ids.append(term_id)
        for s_id, p_id, o_id in self.match_ids(*ids):
            yield self.term(s_id), self.term(p_id), self.term(o_id)

    def count(self, s: Term | None, p: Term | None, o: Term | None) -> int:
        return sum(1 for _ in self.match(s, p, o))

    # -- stats ------------------------------------------------------------------------

    def collect_statistics(self) -> TripleStatistics:
        """One pass over the SPO index: per-predicate counts and distincts.

        The walk is a full SPO range scan and charges like one: one
        ``index_probe``, one ``index_node`` per B+tree node visited (the
        leftmost descent, then each leaf) and one ``value_cpu`` per
        stored triple.  The caller adds a flat ``sparql_analyze`` for
        the refresh.
        """
        predicate_counts: dict[Term, int] = {}
        subjects_by_pred: dict[Term, set[int]] = {}
        objects_by_pred: dict[Term, set[int]] = {}
        all_subjects: set[int] = set()
        all_objects: set[int] = set()
        for s_id, p_id, o_id in self._match_ids_raw(None, None, None):
            predicate = self._id_to_term[p_id]
            predicate_counts[predicate] = (
                predicate_counts.get(predicate, 0) + 1
            )
            subjects_by_pred.setdefault(predicate, set()).add(s_id)
            objects_by_pred.setdefault(predicate, set()).add(o_id)
            all_subjects.add(s_id)
            all_objects.add(o_id)
        return TripleStatistics(
            triple_count=self.triple_count,
            predicate_counts=predicate_counts,
            distinct_subjects={
                p: len(s) for p, s in subjects_by_pred.items()
            },
            distinct_objects={
                p: len(o) for p, o in objects_by_pred.items()
            },
            total_subjects=len(all_subjects),
            total_objects=len(all_objects),
        )

    def size_bytes(self) -> int:
        term_bytes = sum(
            len(t.encode()) if isinstance(t, str) else 8
            for t in self._id_to_term
        )
        # three indexes, ~24 bytes per entry each
        return term_bytes + 3 * 24 * self.triple_count
