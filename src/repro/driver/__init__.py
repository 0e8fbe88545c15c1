"""The LDBC workload driver analogue.

* :mod:`repro.driver.workload`  — the interactive query mix of Section 4.3
  (short reads + the two-hop complex query).
* :mod:`repro.driver.loader`    — data-ingestion harnesses for Table 4 and
  Appendix A (1..16 concurrent loaders over the discrete-event simulator).
* :mod:`repro.driver.executor`  — the real-time interactive workload
  runner of Figure 3: N simulated readers + one writer consuming the
  Kafka update stream (``write_batch_size`` events per transaction; 1 is
  the per-event writer), with per-system contention models (Gremlin
  Server worker pool, Titan-B writer serialization, Neo4j checkpoint
  stalls).

The generator emits the update stream in dependency-safe order and the
Kafka producer publishes it in that order to a topic that is one log, so
the single writer applies events as it consumes them: no LDBC-style
dependency scheduler is needed.
"""

from repro.driver.workload import QueryMix, ReadOp
from repro.driver.loader import LoadReport, concurrent_load, sequential_load
from repro.driver.executor import (
    InteractiveConfig,
    InteractiveResult,
    InteractiveWorkloadRunner,
)

__all__ = [
    "QueryMix",
    "ReadOp",
    "LoadReport",
    "sequential_load",
    "concurrent_load",
    "InteractiveConfig",
    "InteractiveResult",
    "InteractiveWorkloadRunner",
]
