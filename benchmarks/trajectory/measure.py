"""One run of one workload, and the metrics computed from it.

``run_workload`` is what a subprocess (or a test) calls.  With
``trace=False`` it sets up ``setup_repeats`` times, runs the measured
phase once and returns the end-to-end metrics.  With ``trace=True`` it
runs the phase at a quarter of the op count twice, each on a fresh load:
once plain (counts, per-connector times) and once under cProfile (host
time by package); the ratio of the two is the tracing overhead.  Counts
per op are scale-free, so the quarter-size run describes the full one.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict
from pathlib import Path

import checks
import tracing
from catalog import END_TO_END, MODULES, PER_LAYER
from layers import LAYERS, check_layer_map, split_us
from repro.core import SUT_KEYS, LatencyRecorder
from workloads import (
    DEFAULT,
    READ_OPS,
    SPECS,
    Loaded,
    Op,
    Phase,
    Sizing,
    run_phase,
    set_up_repeated,
)

TRACE_FRACTION = 0.25
ROUND_TRIPS = ("client_rtt", "server_rtt", "backend_rtt", "lock_rtt")


def geomean(values) -> float:
    """Over the values that are not NaN; 0.0 when none is left or one is
    not positive."""
    values = [v for v in values if v == v]
    if not values or min(values) <= 0.0:
        return 0.0
    return statistics.geometric_mean(values)


def percentile(values, p: float) -> float:
    """Nearest rank; NaN if empty."""
    recorder = LatencyRecorder()
    recorder.samples_ms = list(values)
    return recorder.percentile(p)


def mean(values) -> float:
    """0.0 for a SUT that completed nothing (a crashed Gremlin Server)."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def by_cell(ops: list[Op]) -> dict[tuple[str, str], list[Op]]:
    """Completed ops by (SUT, op type), the cells of the paper's tables."""
    cells = defaultdict(list)
    for op in ops:
        if op.ok:
            cells[op.sut, op.op].append(op)
    return cells


def by_sut(ops: list[Op]) -> dict[str, list[Op]]:
    """Completed ops by SUT; every SUT has an entry."""
    mine: dict[str, list[Op]] = {sut: [] for sut in SUT_KEYS}
    for op in ops:
        if op.ok:
            mine[op.sut].append(op)
    return mine


def store_ratios(loaded: Loaded) -> dict[str, float]:
    return {
        key: connector.size_bytes() / loaded.raw_bytes
        for key, connector in loaded.connectors.items()
    }


def sim_reads_per_s(phase: Phase) -> float:
    """Geometric mean over SUTs of simulated read throughput: the
    driver's own figure for the 16 simulated readers of
    ``interactive_sf3``, completed reads per simulated second of one
    closed-loop client elsewhere."""
    if phase.interactive:
        return geomean(
            r.read_throughput for r in phase.interactive.values()
        )
    rates = []
    for mine in by_sut(phase.recorder.ops).values():
        reads = [op.sim_us for op in mine if op.op in READ_OPS]
        if reads:
            rates.append(len(reads) / (sum(reads) / 1e6))
    return geomean(rates)


def shape_claims(workload: str, phase: Phase) -> dict[str, bool]:
    if workload == "micro_sf10":
        cells = by_cell(phase.recorder.ops)
        return checks.micro_shape({
            cell: statistics.fmean(op.sim_us for op in ops) / 1000.0
            for cell, ops in cells.items()
        })
    if workload == "interactive_sf3":
        return checks.interactive_shape(phase.interactive)
    return {}


def end_to_end(
    phase: Phase, loaded: Loaded, setup_s: float
) -> dict[str, float]:
    ops = phase.recorder.ops
    cells = by_cell(ops)
    mine = by_sut(ops)
    return {
        "setup_s": setup_s,
        "wall_ops_per_s": geomean(
            len(mine[sut]) / host_s
            for sut, host_s in phase.recorder.host_s.items()
        ),
        "wall_geomean_ms": geomean(
            statistics.median(op.host_ms for op in cell)
            for cell in cells.values()
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_geomean_ms": geomean(
            statistics.fmean(op.sim_us for op in cell) / 1000.0
            for cell in cells.values()
        ),
        "sim_p99_ms": geomean(
            percentile((op.sim_us for op in sut_ops), 99) / 1000.0
            for sut_ops in mine.values()
        ),
        "sim_reads_per_s": sim_reads_per_s(phase),
        "store_bytes_per_raw_byte": geomean(store_ratios(loaded).values()),
    }


def per_layer(
    plain: Phase,
    profiled: Phase,
    loaded: Loaded,
    generate_s: float,
    load_s: dict[str, float],
    verdict: dict,
) -> tuple[dict[str, float], dict[str, int]]:
    """The per-layer metrics, and ``repro.exec`` calls by SUT."""
    recorder = plain.recorder
    ops = recorder.ops
    n = len(ops)
    counters = recorder.counters.counters
    out = {}
    layer_us = split_us(counters, recorder.model)
    for layer in LAYERS:
        out[f"costmodel.{layer}.sim_us_per_op"] = layer_us[layer] / n
    ratios = store_ratios(loaded)
    for sut, mine in by_sut(ops).items():
        prefix = f"connectors.{sut}"
        out[f"{prefix}.sim_ms_per_op"] = (
            mean(op.sim_us for op in mine) / 1000.0
        )
        out[f"{prefix}.wall_ms_per_op"] = mean(op.host_ms for op in mine)
        out[f"{prefix}.load_s"] = load_s[sut]
        out[f"{prefix}.store_bytes_per_raw_byte"] = ratios[sut]

    self_s, calls, charges, exec_calls = tracing.host_by_module(
        profiled.recorder.profiles
    )
    traced_n = len(profiled.recorder.ops)
    for mod in MODULES:
        out[f"{mod}.host_self_us_per_op"] = self_s[mod] * 1e6 / traced_n
        out[f"{mod}.host_calls_per_op"] = calls[mod] / traced_n

    def per_op(*names: str) -> float:
        return sum(counters.get(name, 0.0) for name in names) / n

    page_reads = counters.get("page_read", 0.0)
    buffer_hits = counters.get("buffer_hit", 0.0)
    out.update({
        "storage.page_reads_per_op": page_reads / n,
        "storage.buffer.hit_ratio": (
            buffer_hits / (buffer_hits + page_reads)
            if buffer_hits + page_reads else 0.0
        ),
        "storage.index_probes_per_op": per_op("index_probe"),
        "storage.wal.appends_per_op": per_op("wal_append"),
        "storage.wal.fsyncs_per_op": per_op("wal_fsync"),
        "storage.mvcc.version_checks_per_op": per_op("version_check"),
        "storage.mvcc.version_walks_per_op": per_op("version_walk"),
        "storage.lsm.compaction_items_per_op": per_op("lsm_compaction_item"),
        "txn.lock_acquires_per_op": per_op("lock_acquire"),
        "connectors.round_trips_per_op": per_op(*ROUND_TRIPS),
        "cache.hits_per_op": per_op("cache_hit"),
        "exec.closure_compiles_per_op": per_op("closure_compile"),
        "simclock.charges_per_op": charges / traced_n,
    })

    results = plain.interactive
    writes = [op for op in ops if op.op not in READ_OPS]
    out.update({
        "driver.host_us_per_sim_ms": (
            sum(recorder.host_s.values()) * 1e6
            / sum(plain.sim_duration_ms.values())
            if results else 0.0
        ),
        "driver.reader_lock_wait_ms": sum(
            r.reader_lock_wait_us for r in results.values()
        ) / 1000.0,
        "driver.write_trough_over_peak": (
            _trough_over_peak(results["neo4j-cypher"]) if results else 0.0
        ),
        "driver.sim_writes_per_s": geomean(
            r.write_throughput for r in results.values()
        ),
        "kafka.records_consumed": float(len(writes)) if results else 0.0,
        "snb.generate_s": generate_s,
        "connectors.wall_p99_ms": percentile(
            [op.host_ms for op in ops if op.ok], 99
        ),
        "tracing.overhead_ratio": (
            sum(profiled.recorder.host_s.values()) / traced_n
        ) / (sum(recorder.host_s.values()) / n),
        "checks.failed_ops_pct": (
            100.0 * verdict["failed"] / verdict["attempted"]
        ),
        "checks.shape_violations": float(len(verdict["shape_violations"])),
        "checks.mismatches": float(verdict["mismatches"]),
    })
    return out, exec_calls


def _trough_over_peak(result) -> float:
    """neo4j-cypher's checkpoint dip: the lowest interior write-rate
    window over the highest (``bench_figure3_throughput.py``)."""
    series = [rate for _, rate in result.write_windows.series()]
    if not series or max(series) == 0.0:
        return 0.0
    interior = series[1:-1] if len(series) > 2 else series
    return min(interior) / max(series)


def judge(workload: str, phase: Phase, mismatches: int) -> dict:
    """Attempted/failed ops and every reason the run is not correct."""
    ops = phase.recorder.ops
    shape = shape_claims(workload, phase)
    idle_writers = [
        sut for sut, r in phase.interactive.items() if r.updates_applied == 0
    ]
    return {
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "mismatches": mismatches + phase.snapshot_drifts,
        "shape_violations": [c for c, holds in shape.items() if not holds],
        "idle_writers": idle_writers,
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizing: Sizing = DEFAULT,
    trace_path: Path | None = None,
) -> dict:
    """Set up, run and check one workload; returns the result record."""
    check_layer_map()
    spec = SPECS[workload]

    def measured(profiled: bool, repeats: int, scale: float):
        runs = set_up_repeated(spec, spec.divisor(sizing), repeats)
        loaded = runs[-1]
        probes = checks.probe_set(loaded.dataset, sizing.probe_params)
        mismatches = checks.count_mismatches(loaded.connectors, probes)
        phase = run_phase(
            workload, loaded, seed, seconds * scale, profiled=profiled
        )
        if workload == "write_mix_sf3":
            # every SUT applied the same events: they must still agree
            mismatches += checks.count_mismatches(loaded.connectors, probes)
        return runs, phase, judge(workload, phase, mismatches)

    if not trace:
        runs, phase, verdict = measured(False, sizing.setup_repeats, 1.0)
        metrics = end_to_end(
            phase, runs[-1], statistics.median(r.setup_s for r in runs)
        )
        catalog = END_TO_END
    else:
        (plain,), phase, verdict = measured(False, 1, TRACE_FRACTION)
        (again,), profiled, _ = measured(True, 1, TRACE_FRACTION)
        metrics, exec_calls = per_layer(
            phase, profiled, plain,
            statistics.median((plain.generate_s, again.generate_s)),
            {
                key: statistics.median((plain.load_s[key], again.load_s[key]))
                for key in SUT_KEYS
            },
            verdict,
        )
        verdict["exec_calls_by_sut"] = exec_calls
        catalog = PER_LAYER
        if trace_path is not None:
            tracing.write_trace(
                trace_path, workload, seed, profiled.recorder.ops
            )
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not (
            verdict["mismatches"]
            or verdict["shape_violations"]
            or verdict["idle_writers"]
        ),
        **verdict,
        "metrics": {
            m.name: {"value": metrics[m.name], "unit": m.unit}
            for m in catalog
        },
    }
    if not trace:  # the paper's tables, from the full-size run
        record["cells"] = {
            f"{sut}/{op}": {
                "n": len(cell),
                "sim_ms": statistics.fmean(o.sim_us for o in cell) / 1000.0,
                "wall_ms": statistics.median(o.host_ms for o in cell),
            }
            for (sut, op), cell in sorted(by_cell(phase.recorder.ops).items())
        }
    return record
