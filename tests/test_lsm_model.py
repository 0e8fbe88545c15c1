"""The LSM tree's host-side structures against the code they replaced.

* ``BloomFilter`` keeps its bits in a ``bytearray``; the reference is
  the single Python int it used to ``|=`` into, bit for bit.
* ``LSMTree.range_scan`` bisects an ordered memtable key list; the
  reference walks the whole memtable.  A state machine interleaves
  writes, flushes and compactions with scans and requires the same
  answer as a dict model and the same ledger, counter for counter and
  in the same order, as the reference scan.
"""

from collections.abc import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.simclock import meter
from repro.simclock.ledger import charge
from repro.storage import LSMTree
from repro.storage.lsm import _TOMBSTONE, BloomFilter


def reference_bits(bloom: BloomFilter, keys: list[bytes]) -> int:
    """The filter as one Python int, built the way ``add`` used to."""
    bits = 0
    for key in keys:
        for pos in bloom._positions(key):
            bits |= 1 << pos
    return bits


def reference_range_scan(
    lsm: LSMTree, lo: bytes, hi_exclusive: bytes
) -> Iterator[tuple[bytes, bytes]]:
    """``range_scan`` as it was: every memtable key tested in turn."""
    candidates: dict[bytes, object] = {}
    for sstable in reversed(lsm._sstables):
        for key, value in sstable.range_from(lo):
            if key >= hi_exclusive:
                break
            candidates[key] = value
    charge("lsm_memtable_op")
    for key, value in lsm._memtable.items():
        if lo <= key < hi_exclusive:
            candidates[key] = value
    for key in sorted(candidates):
        value = candidates[key]
        if value is not _TOMBSTONE:
            charge("value_cpu")
            yield key, value  # type: ignore[misc]


class TestBloomBits:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.binary(min_size=0, max_size=12), max_size=300),
        st.integers(1, 400),
    )
    def test_bits_match_the_int_construction(self, keys, expected):
        bloom = BloomFilter(expected)
        for key in keys:
            bloom.add(key)
        assert len(bloom._bits) == (bloom.size + 7) // 8
        as_int = int.from_bytes(bloom._bits, "little")
        assert as_int == reference_bits(bloom, keys)
        with meter() as ledger:
            assert all(bloom.might_contain(key) for key in keys)
        assert ledger.counters.get("lsm_bloom_check", 0) == len(keys)


KEYS = st.builds(
    bytes, st.lists(st.sampled_from(b"abcd"), min_size=0, max_size=3)
)


class LSMScanMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.lsm = LSMTree(memtable_limit=8, max_sstables=2)
        self.model: dict[bytes, bytes] = {}

    @rule(key=KEYS, value=st.binary(min_size=0, max_size=4))
    def put(self, key, value):
        self.lsm.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.lsm.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        self.lsm.flush()

    @rule(lo=KEYS, hi=KEYS)
    def range_scan(self, lo, hi):
        with meter() as reference_ledger:
            expected = list(reference_range_scan(self.lsm, lo, hi))
        with meter() as ledger:
            got = list(self.lsm.range_scan(lo, hi))
        assert got == expected
        assert got == sorted(
            (k, v) for k, v in self.model.items() if lo <= k < hi
        )
        assert list(ledger.snapshot().items()) == list(
            reference_ledger.snapshot().items()
        )

    @precondition(lambda self: self.lsm.compaction_count > 0)
    @rule()
    def compacted_reads(self):
        for key, value in self.model.items():
            assert self.lsm.get(key) == value

    @invariant()
    def memtable_keys_in_order(self):
        keys = self.lsm._memkeys
        assert keys is None or keys == sorted(self.lsm._memtable)


LSMScanMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
TestLSMScanMachine = LSMScanMachine.TestCase
