"""MVCC smoke bench: writers never block snapshot readers.

Three interactive runs (Figure 3 harness) of the same system at the
same reader count:

* **read-only** — no update stream at all: the reader-throughput
  ceiling for this configuration;
* **snapshot + writes** — the full update stream lands while readers
  run under MVCC snapshots.  Readers take no locks, so the only cost
  they may pay is versioning itself (timestamp allocation, version
  checks, chain walks, cache bypass for stale views).  The acceptance
  bar: **at least 0.7x** the read-only throughput, with **zero**
  reader lock waits;
* **read-committed + writes** — the fallback level for contrast: each
  update transaction drains the read/write latch, so every writer
  excludes every reader and reader throughput collapses.

Results land in ``BENCH_mvcc.json`` at the repo root (the CI
perf-smoke artifact).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import make_connector
from repro.driver import InteractiveConfig, InteractiveWorkloadRunner

from conftest import SCALE_DIVISOR, banner

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_mvcc.json"
SYSTEM = "postgres-sql"
READERS = 8
DURATION_MS = 300.0
#: the satellite acceptance bar: snapshot readers under a write mix
#: must clear this fraction of the read-only ceiling
THROUGHPUT_FLOOR = 0.7

_RESULTS: dict[str, dict] = {}


def _run(dataset, *, isolation: str, with_writes: bool) -> dict:
    connector = make_connector(SYSTEM)
    connector.load(dataset)
    config = InteractiveConfig(
        readers=READERS,
        duration_ms=DURATION_MS,
        window_ms=DURATION_MS / 4,
        isolation_level=isolation,
        max_update_events=None if with_writes else 0,
    )
    result = InteractiveWorkloadRunner(connector, dataset, config).run()
    return {
        "isolation": isolation,
        "with_writes": with_writes,
        "reads": result.read_latency.count,
        "read_throughput_per_s": round(result.read_throughput, 1),
        "read_p50_ms": round(result.read_latency.percentile(50), 4),
        "read_p99_ms": round(result.read_latency.percentile(99), 4),
        "updates_applied": result.updates_applied,
        "reader_lock_waits": result.reader_lock_waits,
        "reader_lock_wait_ms": round(result.reader_lock_wait_us / 1000.0, 3),
    }


def test_snapshot_readers_keep_their_throughput(sf3_dataset):
    read_only = _run(sf3_dataset, isolation="snapshot", with_writes=False)
    snapshot = _run(sf3_dataset, isolation="snapshot", with_writes=True)
    locked = _run(sf3_dataset, isolation="read-committed", with_writes=True)

    ratio = (
        snapshot["read_throughput_per_s"]
        / read_only["read_throughput_per_s"]
    )
    _RESULTS["reader_throughput_under_write_mix"] = {
        "system": SYSTEM,
        "readers": READERS,
        "duration_ms": DURATION_MS,
        "read_only": read_only,
        "snapshot_with_writes": snapshot,
        "read_committed_with_writes": locked,
        "snapshot_vs_read_only_ratio": round(ratio, 3),
        "throughput_floor": THROUGHPUT_FLOOR,
    }

    # writers really ran, and snapshot readers never waited on them
    assert snapshot["updates_applied"] > 0
    assert snapshot["reader_lock_waits"] == 0
    assert snapshot["reader_lock_wait_ms"] == 0.0
    assert ratio >= THROUGHPUT_FLOOR, (
        f"snapshot readers under a write mix reached only {ratio:.2f}x "
        f"the read-only ceiling (floor {THROUGHPUT_FLOOR:g}x)"
    )
    # the fallback level shows the latch the snapshots removed
    assert locked["reader_lock_waits"] > 0
    assert locked["reads"] < snapshot["reads"]


def test_write_report():
    """Runs last: persist the artifact the CI perf-smoke job uploads."""
    assert _RESULTS, "mvcc benches did not run"
    report = {
        "bench": "mvcc",
        "scale_factor": 3,
        "scale_divisor": SCALE_DIVISOR,
        "results": _RESULTS,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(banner("MVCC snapshot reads: writers never block readers"))
    for name, row in _RESULTS.items():
        print(f"{name}: {json.dumps(row)}")
