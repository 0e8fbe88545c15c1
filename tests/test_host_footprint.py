"""Host-memory guards for the largest stores (DESIGN §2).

The host layout of stored data is overhead the cost model never sees:
no ledger, tree shape or modelled byte depends on it.  These tests pin
the compact layouts and bound the bytes a dataset and three loaded
stores keep, so a later change cannot quietly give the memory back.

The bounds are 1.15x what each retained at SF3 / 16,000 (tracemalloc,
Python 3.11) when the layouts landed.  A load's first run in a process
also keeps lazily built module state, so the bound covers a cold run;
a test order that warms those caches first only measures less.
"""

import dataclasses
import gc
import tracemalloc
from array import array

import pytest

from repro.core import make_connector
from repro.snb import GeneratorConfig, generate, schema

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=16000, seed=13)

#: bytes retained, measured when the compact layouts landed
MEASURED = {
    "generate": 359_530,
    "virtuoso-sparql": 1_399_741,
    "sqlg": 1_373_610,
    "postgres-sql": 663_919,
}
SLACK = 1.15


def _retained(build):
    """What ``build()`` returns, and the traced bytes it keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept, used


@pytest.fixture(scope="module")
def generated():
    return _retained(lambda: generate(CONFIG))


def _load(key, dataset):
    connector = make_connector(key)
    connector.load(dataset)
    return connector


class TestLayouts:
    def test_rdf_index_leaves_keep_keys_in_int_arrays(self, generated):
        connector = _load("virtuoso-sparql", generated[0])
        store = connector.db.store
        for index in (store._spo, store._pos, store._osp):
            leaf = index._root
            while not leaf.is_leaf:
                leaf = leaf.children[0]
            assert index.height() > 1
            while leaf is not None:
                assert type(leaf.keys) is array
                assert leaf.keys.typecode == "q"
                leaf = leaf.next

    def test_heap_handles_are_ints(self, generated):
        dataset = generated[0]
        connector = _load("postgres-sql", dataset)
        person = connector.db.catalog.table("person")
        handles = person.lookup("id", dataset.persons[0].id)
        assert len(handles) == 1
        assert type(handles[0]) is int
        assert all(type(handle) is int for handle, _row in person.scan())

    @pytest.mark.parametrize(
        "cls",
        [
            obj
            for obj in vars(schema).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_snb_records_are_slotted(self, cls):
        assert "__slots__" in vars(cls)
        assert "__dict__" not in dir(cls)


class TestRetainedBytes:
    def test_generate(self, generated):
        assert generated[1] <= SLACK * MEASURED["generate"]

    @pytest.mark.parametrize(
        "key", ["virtuoso-sparql", "sqlg", "postgres-sql"]
    )
    def test_load(self, generated, key):
        connector, used = _retained(lambda: _load(key, generated[0]))
        assert connector.size_bytes() > 0
        assert used <= SLACK * MEASURED[key]
