"""Cache smoke bench: cold vs. warm reads, batched writes.

Three measurements, all on the SF3 snapshot:

* **Cold vs. warm two-hop reads.**  The two-hop mix end-to-end through
  Cypher: the first request pays parse/plan/compile, the repeats hit
  the always-on statement and closure caches.  Warm must be cheaper.
* **Plan invalidation.**  An update batch followed by ANALYZE must
  evict the cached Cypher plans and closures; warm reads re-converge
  to the same answers afterwards.
* **Batched vs. per-event writes.**  The Figure 3 harness with
  ``write_batch_size=32`` (one group-committed transaction, one WAL
  fsync, one client round-trip per batch) against the paper's per-event
  writer.  Batched throughput must be at least 2x.

Results land in ``BENCH_cache.json`` at the repo root (the CI
perf-smoke artifact).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import make_connector
from repro.driver import InteractiveConfig, InteractiveWorkloadRunner
from repro.simclock import CostModel, meter

from conftest import SCALE_DIVISOR, banner

MODEL = CostModel()
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_cache.json"
REPS = 5

_RESULTS: dict[str, dict] = {}


def _cost_ms(run) -> float:
    with meter() as ledger:
        run()
    return ledger.cost_us(MODEL) / 1000.0


def _warm_ms(run) -> float:
    """Median cost over REPS repeats (the first, cold call excluded)."""
    costs = sorted(_cost_ms(run) for _ in range(REPS))
    return costs[len(costs) // 2]


def _record_read(name: str, cold_ms: float, warm_ms: float) -> None:
    _RESULTS[name] = {
        "cold_ms": round(cold_ms, 4),
        "warm_ms": round(warm_ms, 4),
        "speedup": round(cold_ms / warm_ms, 1),
    }


# -- cold vs. warm two-hop reads ---------------------------------------------


def test_cypher_two_hop_cold_vs_warm(sf3_dataset):
    """Engine-level: statement and closure caches (reported, unasserted
    on a fixed ratio — cypher_exec dominates both sides)."""
    connector = make_connector("neo4j-cypher")
    connector.load(sf3_dataset)
    pids = [p.id for p in sf3_dataset.persons[:8]]

    cold_ms = sum(
        _cost_ms(lambda p=pid: connector.two_hop(p)) for pid in pids
    )
    warm_ms = sum(
        _warm_ms(lambda p=pid: connector.two_hop(p)) for pid in pids
    )
    _record_read("cypher_two_hop_end_to_end", cold_ms, warm_ms)
    assert warm_ms < cold_ms


# -- batched write pipeline ---------------------------------------------------


def _interactive(dataset, batch_size: int):
    connector = make_connector("postgres-sql")
    connector.load(dataset)
    config = InteractiveConfig(
        readers=4,
        cores=8,
        duration_ms=1_000.0,
        write_batch_size=batch_size,
    )
    return InteractiveWorkloadRunner(connector, dataset, config).run()


def test_batched_writer_throughput(sf3_dataset):
    per_event = _interactive(sf3_dataset, batch_size=1)
    batched = _interactive(sf3_dataset, batch_size=32)
    assert per_event.read_failures == 0 and batched.read_failures == 0
    _RESULTS["sql_write_pipeline"] = {
        "per_event_writes_per_s": round(per_event.write_throughput),
        "batched_writes_per_s": round(batched.write_throughput),
        "batch_size": 32,
        "speedup": round(
            batched.write_throughput / per_event.write_throughput, 2
        ),
        "per_event_p99_ms": round(
            per_event.write_latency.percentile(99), 3
        ),
        "batched_p99_ms": round(batched.write_latency.percentile(99), 3),
    }
    assert batched.write_throughput >= 2.0 * per_event.write_throughput


def test_plan_invalidation_under_updates_and_analyze(sf3_dataset):
    """The BENCH_cache blind spot: an update batch followed by the
    maintenance ANALYZE must evict cached Cypher plans *and* compiled
    closures (counted as invalidations), and warm reads must re-converge
    to the same answers afterwards."""
    connector = make_connector("neo4j-cypher")
    connector.load(sf3_dataset)
    pids = [p.id for p in sf3_dataset.persons[:8]]

    answers_before = {pid: connector.two_hop(pid) for pid in pids}
    warm_before_ms = sum(
        _warm_ms(lambda p=pid: connector.two_hop(p)) for pid in pids
    )
    before = {s.name: s.invalidations for s in connector.cache_stats()}

    connector.apply_update_batch(sf3_dataset.updates[:50])
    connector.db.analyze()

    after = {s.name: s.invalidations for s in connector.cache_stats()}
    cold_after_ms = sum(
        _cost_ms(lambda p=pid: connector.two_hop(p)) for pid in pids
    )
    warm_after_ms = sum(
        _warm_ms(lambda p=pid: connector.two_hop(p)) for pid in pids
    )
    _RESULTS["plan_invalidation_under_updates"] = {
        "warm_before_ms": round(warm_before_ms, 4),
        "cold_after_analyze_ms": round(cold_after_ms, 4),
        "warm_after_ms": round(warm_after_ms, 4),
        "plan_invalidations": after["cypher-plans"] - before["cypher-plans"],
        "closure_invalidations": (
            after["cypher-closures"] - before["cypher-closures"]
        ),
    }
    assert after["cypher-plans"] > before["cypher-plans"]
    assert after["cypher-closures"] > before["cypher-closures"]
    # answers survive the invalidation (updates only add new entities)
    for pid in pids:
        assert set(answers_before[pid]) <= set(connector.two_hop(pid))
    # the re-plan/re-compile happened once; repeats are warm again
    assert warm_after_ms < cold_after_ms


def test_write_report():
    """Runs last: persist the artifact the CI perf-smoke job uploads."""
    assert _RESULTS, "cache benches did not run"
    report = {
        "bench": "cache",
        "scale_factor": 3,
        "scale_divisor": SCALE_DIVISOR,
        "repetitions": REPS,
        "results": _RESULTS,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(banner("Caches: cold vs. warm reads, batched writes"))
    for name, row in _RESULTS.items():
        print(f"{name}: {json.dumps(row)}")
