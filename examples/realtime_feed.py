"""The paper's Figure 1 architecture, end to end.

Update operations flow through a Kafka topic; a dedicated writer consumes
and applies them to the system under test while concurrent readers run
the interactive mix.  Prints the resulting read/write throughput and the
write-rate time series (watch Neo4j's checkpoint dips).

Run:  python examples/realtime_feed.py [sut-key [duration-ms]]
"""

import sys

from repro.core import SUT_KEYS, make_connector
from repro.core.report import render_series
from repro.driver import InteractiveConfig, InteractiveWorkloadRunner
from repro.snb import GeneratorConfig, generate


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "neo4j-cypher"
    if key not in SUT_KEYS:
        raise SystemExit(f"unknown SUT {key!r}; choose from {SUT_KEYS}")
    duration_ms = float(sys.argv[2]) if len(sys.argv) > 2 else 1_000.0

    dataset = generate(GeneratorConfig(scale_factor=3, scale_divisor=4000))
    connector = make_connector(key)
    connector.load(dataset)
    print(
        f"Loaded {dataset.vertex_count():,} vertices into {key}; "
        f"{len(dataset.updates):,} updates queued in Kafka"
    )

    config = InteractiveConfig(
        readers=16,
        duration_ms=duration_ms,
        window_ms=50.0,
        checkpoint_interval_ms=250.0,
        checkpoint_stall_us_per_record=2_500.0,
    )
    result = InteractiveWorkloadRunner(connector, dataset, config).run()

    print(
        f"\n{config.readers} readers + 1 writer for "
        f"{config.duration_ms:.0f} ms simulated:"
    )
    print(f"  reads/s  : {result.read_throughput:,.0f}")
    print(f"  writes/s : {result.write_throughput:,.0f}")
    print(f"  updates applied: {result.updates_applied}")
    print(f"  mean read latency : {result.read_latency.mean():.3f} ms")
    print(f"  p99 read latency  : {result.read_latency.percentile(99):.3f} ms")
    print()
    print(
        render_series(
            f"write throughput over time ({key})",
            {key: result.write_windows.series()},
        )
    )


if __name__ == "__main__":
    main()
