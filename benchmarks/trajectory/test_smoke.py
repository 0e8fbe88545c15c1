"""Smoke test of the trajectory benchmark (not tier-1).

    PYTHONPATH=src python -m pytest benchmarks/trajectory

Runs every workload at ``SMOKE`` size (tiny datasets, 0.4 s worth of
ops) in this process.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import catalog  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from repro.simclock import DEFAULT_WEIGHTS  # noqa: E402

SEED = 7
SECONDS = 0.4
ROOT = Path(__file__).resolve().parents[2]


def smoke(workload: str, trace: bool, **kwargs) -> dict:
    return measure.run_workload(
        workload, SEED, SECONDS, trace, workloads.SMOKE, **kwargs
    )


@pytest.fixture(scope="module")
def untraced() -> dict[str, dict]:
    return {w: smoke(w, False) for w in catalog.WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, dict]:
    out = tmp_path_factory.mktemp("trace")
    return {
        w: smoke(w, True, trace_path=out / f"{w}.jsonl")
        | {"trace_path": out / f"{w}.jsonl"}
        for w in catalog.WORKLOADS
    }


def test_benchmark_json_is_the_catalog():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/trajectory"]
    assert contract["command"] == ["python3", "benchmarks/trajectory/run.py"]
    assert contract["run_seconds"] == run.RUN_SECONDS
    assert contract["workloads"] == [
        {"name": name, "why": why} for name, why in catalog.WORKLOADS.items()
    ]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.PER_LAYER
    ]
    assert all(len(why) <= 200 for why in catalog.WORKLOADS.values())
    assert len(catalog.PER_LAYER) <= 128


def test_every_metric_is_reported_with_its_unit(untraced, traced):
    for results, metrics in (
        (untraced, catalog.END_TO_END), (traced, catalog.PER_LAYER)
    ):
        for workload, result in results.items():
            assert result["workload"] == workload
            assert result["attempted"] >= 1
            assert isinstance(result["correct"], bool)
            assert list(result["metrics"]) == [m.name for m in metrics]
            for m in metrics:
                reported = result["metrics"][m.name]
                assert reported["unit"] == m.unit
                assert reported["value"] == reported["value"], m.name
    for result in untraced.values():
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_answers_agree_and_no_op_fails(untraced, traced):
    for result in (*untraced.values(), *traced.values()):
        assert result["mismatches"] == 0
        if result["workload"] != "interactive_sf3":
            assert result["failed"] == 0
        # the paper's shape claims are made at the default size only
        if not result["shape_violations"] and not result["idle_writers"]:
            assert result["correct"]


def test_simulated_metrics_repeat_exactly(untraced):
    for workload, first in untraced.items():
        second = smoke(workload, False)
        for m in catalog.END_TO_END:
            if m.exact:
                assert (
                    first["metrics"][m.name] == second["metrics"][m.name]
                ), (workload, m.name)
        assert first["attempted"] == second["attempted"]
        assert {k: c["sim_ms"] for k, c in first["cells"].items()} == {
            k: c["sim_ms"] for k, c in second["cells"].items()
        }


def test_workloads_bypass_the_layers_they_were_chosen_to_bypass(traced):
    def value(workload: str, name: str) -> float:
        return traced[workload]["metrics"][name]["value"]

    for workload in catalog.WORKLOADS:
        kafka_calls = value(workload, "kafka.host_calls_per_op")
        assert (kafka_calls > 0) == (workload == "interactive_sf3")
        assert value(workload, "storage.mvcc.version_walks_per_op") == 0
        assert value(workload, "costmodel.cluster.sim_us_per_op") == 0
    for name in ("storage.wal.fsyncs_per_op",
                 "storage.mvcc.version_checks_per_op"):
        assert value("read_mix_sf3", name) == 0
        assert value("write_mix_sf3", name) > 0
    assert value("read_mix_sf3", "exec.host_calls_per_op") > 0
    # interpreted runs reach repro.exec only through sqlg (README, finding 5)
    for workload in ("micro_sf10", "interactive_sf3"):
        by_sut = traced[workload]["exec_calls_by_sut"]
        assert by_sut.pop("sqlg") > 0
        assert not any(by_sut.values())


def test_trace_file_has_one_span_per_op(traced):
    result = traced["read_mix_sf3"]
    spans = [
        json.loads(line)
        for line in result["trace_path"].read_text().splitlines()
    ]
    root, ops = spans[0], spans[1:]
    assert root["parent"] is None and root["workload"] == "read_mix_sf3"
    assert len(ops) == result["attempted"]
    assert all(span["parent"] == root["id"] for span in ops)
    assert set(ops[0]["costmodel"]) == set(layers.LAYERS)
    assert ops[0]["end"] >= ops[0]["start"]


def test_a_wrong_answer_is_a_mismatch():
    spec = workloads.SPECS["read_mix_sf3"]
    loaded = workloads.set_up(spec, spec.divisor(workloads.SMOKE))
    probes = checks.probe_set(loaded.dataset, 2)
    assert checks.count_mismatches(loaded.connectors, probes) == 0
    liar = loaded.connectors["titan-c"]
    honest = liar.one_hop
    liar.one_hop = lambda person_id: honest(person_id) + [-1]
    assert checks.count_mismatches(loaded.connectors, probes) == 2


def test_a_set_up_serves_one_phase():
    spec = workloads.SPECS["micro_sf10"]
    loaded = workloads.set_up(spec, spec.divisor(workloads.SMOKE))
    workloads.run_phase("micro_sf10", loaded, SEED, SECONDS, profiled=False)
    with pytest.raises(RuntimeError, match="load afresh"):
        workloads.run_phase(
            "micro_sf10", loaded, SEED, SECONDS, profiled=False
        )


def test_an_unmapped_or_unknown_counter_fails():
    layers.check_layer_map()
    with pytest.raises(layers.LayerMapError, match="brand_new_counter"):
        layers.check_layer_map({**DEFAULT_WEIGHTS, "brand_new_counter": 1.0})
    with pytest.raises(layers.LayerMapError, match="page_read"):
        layers.check_layer_map(
            {k: v for k, v in DEFAULT_WEIGHTS.items() if k != "page_read"}
        )
    with pytest.raises(layers.LayerMapError, match="unknown layer"):
        layers.check_layer_map(
            layer_of={**layers.LAYER_OF, "page_read": "disk"}
        )


def _results(tmp_path: Path, name: str, runs: list[dict]) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(
        {"schema": 1, "machine": run.machine(), "runs": runs}
    ))
    return path


def test_compare_flags_a_regression(tmp_path, untraced, capsys):
    # shape claims are not made at smoke size; judge the numbers only
    base = [result | {"correct": True} for result in untraced.values()]
    same = _results(tmp_path, "a.json", base)
    assert compare.compare_files(same, same) == 0
    assert "REGRESSION" not in capsys.readouterr().out

    worse = json.loads(json.dumps(base))
    worse[0]["metrics"]["sim_geomean_ms"]["value"] *= 1.5
    worse[1]["metrics"]["wall_ops_per_s"]["value"] *= 0.5
    assert compare.compare_files(
        same, _results(tmp_path, "b.json", worse)
    ) == 1
    out = capsys.readouterr().out
    assert "2 REGRESSION" in out.splitlines()[-1]


def test_compare_calls_a_noisy_set_unresolved():
    metric = catalog.BY_NAME["wall_ops_per_s"]
    steady = {1: 100.0, 2: 101.0, 3: 99.0, 4: 100.5}
    noisy = {1: 60.0, 2: 100.0, 3: 140.0, 4: 80.0}
    assert compare.verdict(metric, steady, steady) == "ok"
    assert compare.verdict(metric, steady, noisy) == "unresolved"
    slower = {seed: 0.7 * v for seed, v in steady.items()}
    assert compare.verdict(metric, steady, slower) == "REGRESSION"
