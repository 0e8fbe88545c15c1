"""Unit tests for the cost model and ledger stack."""

import pytest

from repro.simclock import (
    DEFAULT_WEIGHTS,
    CostModel,
    Ledger,
    charge,
    meter,
    metered,
)
from repro.simclock.ledger import active_ledgers


class TestCostModel:
    def test_default_weights_all_positive(self):
        assert all(w > 0 for w in DEFAULT_WEIGHTS.values())

    def test_cost_is_weighted_sum(self):
        model = CostModel()
        counters = {"page_read": 2, "buffer_hit": 10}
        expected = (
            2 * DEFAULT_WEIGHTS["page_read"] + 10 * DEFAULT_WEIGHTS["buffer_hit"]
        )
        assert model.cost_us(counters) == pytest.approx(expected)

    def test_overrides_apply(self):
        model = CostModel({"page_read": 1.0})
        assert model.weight("page_read") == 1.0
        # untouched weights survive
        assert model.weight("buffer_hit") == DEFAULT_WEIGHTS["buffer_hit"]

    def test_strict_rejects_unknown_override(self):
        with pytest.raises(KeyError):
            CostModel({"not_a_weight": 1.0})

    def test_strict_rejects_unknown_counter(self):
        with pytest.raises(KeyError):
            CostModel().cost_us({"bogus": 1})

    def test_lenient_ignores_unknown(self):
        model = CostModel(strict=False)
        assert model.cost_us({"bogus": 100}) == 0.0

    def test_breakdown_sorted_descending(self):
        model = CostModel()
        parts = model.breakdown_us({"buffer_hit": 1, "page_read": 1})
        values = list(parts.values())
        assert values == sorted(values, reverse=True)
        assert "buffer_hit" in parts and "page_read" in parts

    def test_breakdown_drops_zero_counters(self):
        parts = CostModel().breakdown_us({"page_read": 0})
        assert parts == {}


class TestLedger:
    def test_charge_accumulates(self):
        ledger = Ledger()
        ledger.charge("page_read")
        ledger.charge("page_read", 3)
        assert ledger.counters["page_read"] == 4

    def test_merge(self):
        a, b = Ledger(), Ledger()
        a.charge("tuple_cpu", 5)
        b.charge("tuple_cpu", 2)
        b.charge("page_read", 1)
        a.merge(b)
        assert a.counters["tuple_cpu"] == 7
        assert a.counters["page_read"] == 1

    def test_merge_mapping(self):
        a = Ledger()
        a.merge({"buffer_hit": 2.0})
        assert a.counters["buffer_hit"] == 2.0

    def test_cost_us(self):
        ledger = Ledger()
        ledger.charge("client_rtt", 2)
        assert ledger.cost_us(CostModel()) == pytest.approx(
            2 * DEFAULT_WEIGHTS["client_rtt"]
        )

    def test_snapshot_is_copy(self):
        ledger = Ledger()
        ledger.charge("tuple_cpu")
        snap = ledger.snapshot()
        snap["tuple_cpu"] = 99
        assert ledger.counters["tuple_cpu"] == 1

    def test_clear(self):
        ledger = Ledger()
        ledger.charge("tuple_cpu")
        ledger.clear()
        assert ledger.total_units() == 0


class TestActiveLedgerStack:
    def test_charge_without_active_ledger_is_noop(self):
        charge("page_read")  # must not raise

    def test_meter_captures_charges(self):
        with meter() as ledger:
            charge("page_read", 2)
        assert ledger.counters["page_read"] == 2

    def test_nested_meters_both_charged(self):
        with meter() as outer:
            charge("tuple_cpu")
            with meter() as inner:
                charge("tuple_cpu", 4)
        assert inner.counters["tuple_cpu"] == 4
        assert outer.counters["tuple_cpu"] == 5

    def test_stack_unwinds_on_exception(self):
        depth = active_ledgers()
        with pytest.raises(RuntimeError):
            with meter():
                raise RuntimeError("boom")
        assert active_ledgers() == depth

    def test_metered_existing_ledger(self):
        ledger = Ledger()
        with metered(ledger):
            charge("value_cpu", 7)
        assert ledger.counters["value_cpu"] == 7
