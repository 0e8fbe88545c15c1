"""Correctness: cross-system answers and the paper's shape claims."""

from __future__ import annotations

import math

from repro.core.benchmark import WorkloadParams
from repro.core.connectors import Connector, OperationFailed
from repro.driver import InteractiveResult
from repro.snb import SnbDataset
from workloads import READ_OPS, normalize

REFERENCE = "postgres-sql"
#: the probe set is fixed per dataset, whatever ``--seed`` is
PROBE_SEED = 1


def probe_set(dataset: SnbDataset, count: int) -> list[tuple[str, tuple]]:
    """Every read op x ``count`` curated parameters."""
    params = WorkloadParams.curate(dataset, count=count, seed=PROBE_SEED)
    probes = []
    for op in READ_OPS:
        if op == "shortest_path":
            arguments = params.path_pairs
        elif op.startswith("message"):
            arguments = [(mid,) for mid in params.message_ids]
        else:
            arguments = [(pid,) for pid in params.person_ids]
        probes += [(op, args) for args in arguments]
    return probes


def count_mismatches(
    connectors: dict[str, Connector], probes: list[tuple[str, tuple]]
) -> int:
    """Answers that differ from the reference system's."""

    def answers(connector: Connector) -> list:
        out = []
        for op, args in probes:
            try:
                out.append(normalize(getattr(connector, op)(*args)))
            except OperationFailed:
                out.append(OperationFailed)
        return out

    expected = answers(connectors[REFERENCE])
    return sum(
        got != want
        for key, connector in connectors.items()
        if key != REFERENCE
        for got, want in zip(answers(connector), expected)
    )


# -- shape claims (EXPERIMENTS.md) ---------------------------------------------------

NATIVE = ("neo4j-cypher", "postgres-sql", "virtuoso-sql", "virtuoso-sparql")
GREMLIN = ("neo4j-gremlin", "titan-c", "titan-b", "sqlg")


def micro_shape(cell_sim_ms: dict[tuple[str, str], float]) -> dict[str, bool]:
    """Table 3's claims over mean simulated ms per (SUT, op) cell; a
    cell that never completed is NaN."""

    def column(op: str) -> dict[str, float]:
        return {
            sut: ms for (sut, cell_op), ms in cell_sim_ms.items()
            if cell_op == op
        }

    lookup, one_hop, two_hop = (
        column("point_lookup"), column("one_hop"), column("two_hop")
    )
    return {
        "postgres fastest point lookup":
            min(lookup, key=lookup.get) == "postgres-sql",
        "postgres fastest 1-hop":
            min(one_hop, key=one_hop.get) == "postgres-sql",
        "virtuoso-sql fastest 2-hop":
            min(two_hop, key=two_hop.get) == "virtuoso-sql",
        "every Gremlin SUT >= 10x native on point lookup":
            min(lookup[s] for s in GREMLIN)
            >= 10 * max(lookup[s] for s in NATIVE if s != "neo4j-cypher"),
        "sqlg slowest TinkerPop 2-hop":
            max(GREMLIN, key=two_hop.get) == "sqlg",
    }


def interactive_shape(results: dict[str, InteractiveResult]) -> dict[str, bool]:
    """The assertions of ``bench_figure3_throughput.py``."""
    reads = {k: r.read_throughput for k, r in results.items()}
    writes = {k: r.write_throughput for k, r in results.items()}
    viable = {k: v for k, v in writes.items() if k != "titan-b"}
    return {
        "a native-SQL RDBMS has the best write throughput":
            max(viable, key=viable.get) in ("postgres-sql", "virtuoso-sql"),
        "postgres writes 1.15-4x virtuoso-sql":
            1.15 < _ratio(writes["postgres-sql"], writes["virtuoso-sql"]) < 4,
        "virtuoso-sql writes 1.5-8x virtuoso-sparql":
            1.5 < _ratio(
                writes["virtuoso-sql"], writes["virtuoso-sparql"]
            ) < 8,
        "neo4j-cypher writes faster than titan-c":
            writes["neo4j-cypher"] > writes["titan-c"],
        "Gremlin SUTs have the lowest read throughput":
            min(reads[k] for k in NATIVE)
            > max(reads[k] for k in ("neo4j-gremlin", "titan-c", "sqlg")),
        "titan-b collapses under concurrency":
            reads["titan-b"] < 0.5 * reads["titan-c"],
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else math.inf
