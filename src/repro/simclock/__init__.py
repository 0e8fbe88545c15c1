"""Virtual time substrate: cost accounting and discrete-event simulation.

Every engine in this repository does *real* algorithmic work on real data
structures, but the latencies and throughputs reported by the benchmark
harness are *simulated*: engines charge named cost counters (page reads,
round trips, serialized items, ...) to the active :class:`Ledger`, and a
:class:`CostModel` converts the counters into simulated microseconds.

Sequential harnesses (the latency tables, Table 4 loading) sum ledger
costs directly.  Concurrent experiments (Figure 3 throughput, Appendix A
concurrent loading) run on the :class:`Simulator`, a small
generator-based discrete-event simulator with FIFO :class:`Resource`
queues used to model contention (worker pools, write latches,
checkpoint stalls); it owns the only simulated clock.
"""

from repro.simclock.costmodel import DEFAULT_WEIGHTS, CostModel
from repro.simclock.events import (
    Acquire,
    Join,
    Process,
    Release,
    Resource,
    Simulator,
    Timeout,
)
from repro.simclock.ledger import Ledger, charge, meter, metered

__all__ = [
    "CostModel",
    "DEFAULT_WEIGHTS",
    "Ledger",
    "charge",
    "meter",
    "metered",
    "Simulator",
    "Process",
    "Resource",
    "Timeout",
    "Acquire",
    "Release",
    "Join",
]
