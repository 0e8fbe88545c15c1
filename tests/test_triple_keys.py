"""The triple store's packed index keys.

Each covering index keys a triple by one int, its three term ids in the
index's order.  The packing must sort exactly as the id tuple does (so
every B+tree keeps its shape and its charges), decode losslessly, and
answer every bound/unbound pattern as a plain set of triples would,
under the current view and under a held snapshot.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf.triples import ID_BITS, TripleStore, decode_key, encode_key
from repro.simclock.ledger import meter
from repro.storage.btree import BPlusTree
from repro.txn import oracle

MAX_ID = (1 << ID_BITS) - 1
ids = st.integers(0, MAX_ID)
id_triples = st.tuples(ids, ids, ids)

SUBJECTS = ["sn:a", "sn:b", "sn:c", 7]
PREDICATES = ["snb:knows", "snb:likes", "rdf:type"]
OBJECTS = ["sn:a", "sn:c", "sn:d", 7, "Person"]
triples = st.tuples(
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS),
)
operations = st.lists(st.tuples(st.booleans(), triples), max_size=40)


def _patterns(s, p, o):
    """The 8 bound/unbound patterns over one triple."""
    for bound in itertools.product((True, False), repeat=3):
        yield tuple(t if b else None for t, b in zip((s, p, o), bound))


def _expected(model, pattern):
    return {
        t
        for t in model
        if all(b is None or b == v for b, v in zip(pattern, t))
    }


def _assert_matches(store, model):
    probes = set(itertools.product(SUBJECTS, PREDICATES, OBJECTS[:3]))
    for probe in probes | model:
        for pattern in _patterns(*probe):
            got = list(store.match(*pattern))
            assert len(got) == len(set(got)), pattern
            assert set(got) == _expected(model, pattern), pattern


@settings(max_examples=200, deadline=None)
@given(a=id_triples, b=id_triples)
@example(a=(0, 0, 0), b=(MAX_ID, MAX_ID, MAX_ID))
@example(a=(0, MAX_ID, MAX_ID), b=(1, 0, 0))
@example(a=(5, MAX_ID, 0), b=(5, MAX_ID, 1))
def test_packed_order_is_tuple_order(a, b):
    assert decode_key(encode_key(*a)) == a
    assert decode_key(encode_key(*b)) == b
    assert (encode_key(*a) < encode_key(*b)) == (a < b)
    assert (encode_key(*a) == encode_key(*b)) == (a == b)


@settings(max_examples=60, deadline=None)
@given(ops=operations, snapshot_at=st.none() | st.integers(0, 40))
def test_match_equals_a_set_model(ops, snapshot_at):
    """Random adds and removes; with ``snapshot_at`` set, a snapshot is
    held from that step on and must keep seeing the set as it was."""
    store = TripleStore("model")
    model: set = set()
    held = None
    seen_by_held: set = set()
    try:
        for step, (add, triple) in enumerate(ops):
            if step == snapshot_at:
                held = oracle.ORACLE.begin()
                seen_by_held = set(model)
            if add:
                assert store.add(*triple) == (triple not in model)
                model.add(triple)
            else:
                assert store.remove(*triple) == (triple in model)
                model.discard(triple)
        _assert_matches(store, model)
        if held is not None:
            with oracle.reading(held):
                _assert_matches(store, seen_by_held)
    finally:
        if held is not None:
            oracle.ORACLE.release(held)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=120,
    )
)
def test_scans_charge_as_tuple_keys(keys):
    """Every pattern's scan of the packed SPO index is charged exactly
    as the tuple-keyed scan over the same inserts: small nodes and small
    ids make prefix-aligned separator keys common."""
    store = TripleStore("charges")
    store._spo = BPlusTree(order=4)
    tuples = BPlusTree(order=4)
    for key in keys:
        store._spo.insert(encode_key(*key), True)
        tuples.insert(key, True)
    big = 1 << 62
    for s, p, o in set(keys) | {(0, 0, 0), (6, 6, 6), (3, 0, 6)}:
        for s_id, p_id, o_id in _patterns(s, p, o):
            if s_id is None or (p_id is None and o_id is not None):
                continue  # not answered from SPO
            # the tuple-keyed scan: the prefix padded with -1 and with
            # a bound above every id, both ends inclusive
            lo = (s_id, -1 if p_id is None else p_id, -1)
            hi = (s_id, big if p_id is None else p_id, big)
            with meter() as old:
                expected = [
                    k
                    for k, _ in tuples.range_scan(lo, hi)
                    if o_id is None or k[2] == o_id
                ]
            with meter() as new:
                got = list(store._match_ids_raw(s_id, p_id, o_id))
            assert got == expected
            assert new.snapshot() == old.snapshot()
    with meter() as old:
        expected = [k for k, _ in tuples.items()]
    with meter() as new:
        got = list(store._match_ids_raw(None, None, None))
    assert got == expected
    assert new.snapshot() == old.snapshot()


def test_term_ids_past_the_key_field_overflow():
    store = TripleStore("full")
    assert store.add("sn:a", "snb:knows", "sn:b")  # ids 0, 1, 2
    # pretend ids 3 .. 2**21 - 2 are taken: the next term gets the last
    store._id_to_term.extend([None] * (MAX_ID - 3))
    assert store.add("sn:last", "snb:knows", "sn:a")
    assert store.lookup_term("sn:last") == MAX_ID
    last = ("sn:last", "snb:knows", "sn:a")
    for pattern in _patterns(*last):
        assert last in set(store.match(*pattern)), pattern
    with pytest.raises(OverflowError):
        store.add("sn:one-too-many", "snb:knows", "sn:a")
    assert store.triple_count == 2
    assert list(store.match("sn:last", None, None)) == [last]
