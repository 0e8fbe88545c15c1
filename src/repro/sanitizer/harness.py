"""The ``repro sanitize`` harness: one instrumented Figure 3 run.

The run is staged so clean executions stay silent:

1. load happens *outside* tracing (the bulk path is
   single-threaded by construction — racing it would only add noise);
2. the interactive workload runs under :func:`~repro.sanitizer.runtime.
   tracing`, with every simulated worker tagged by the driver;
3. an optional seeded fault (:mod:`repro.sanitizer.faults`) is planted
   while tracing is still live, so lock/race faults land in the trace;
4. tracing is torn down, then the race detector and the snapshot-
   anomaly audit replay the trace and the integrity auditors walk the
   engine — outside tracing, because
   the WAL-replay audit re-inserts every row into a scratch database
   and those writes must not pollute the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.core import make_connector
from repro.driver import InteractiveConfig, InteractiveWorkloadRunner
from repro.sanitizer.anomalies import audit_history
from repro.sanitizer.faults import FAULTS, applicable_modes, inject
from repro.sanitizer.integrity import audit_connector
from repro.sanitizer.race import analyze_trace
from repro.sanitizer.runtime import tracing
from repro.snb.datagen import SnbDataset


@dataclass
class SanitizeReport:
    """Everything one instrumented run produced."""

    system: str
    write_batch_size: int
    inject: str | None
    expected: frozenset[str]
    event_count: int
    updates_applied: int
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def observed_codes(self) -> frozenset[str]:
        return frozenset(d.code for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """Clean runs must be silent; injected runs must report exactly
        the planted fault's codes."""
        return self.observed_codes == self.expected


def run_sanitize(
    system: str,
    dataset: SnbDataset,
    *,
    readers: int = 4,
    duration_ms: float = 200.0,
    write_batch_size: int = 1,
    max_update_events: int | None = None,
    inject_mode: str | None = None,
) -> SanitizeReport:
    """Run one system's interactive workload under instrumentation."""
    connector = make_connector(system)
    connector.load(dataset)
    targets = connector.sanitize_targets()
    if inject_mode is not None and inject_mode not in FAULTS:
        raise ValueError(
            f"unknown fault mode {inject_mode!r}; known: "
            f"{', '.join(sorted(FAULTS))}"
        )
    if (
        inject_mode is not None
        and inject_mode not in applicable_modes(targets)
    ):
        raise ValueError(
            f"fault {inject_mode!r} is not applicable to {system}"
        )

    config = InteractiveConfig(
        readers=readers,
        duration_ms=duration_ms,
        window_ms=duration_ms / 4,
        max_update_events=max_update_events,
        write_batch_size=write_batch_size,
    )
    with tracing() as trace:
        result = InteractiveWorkloadRunner(connector, dataset, config).run()
        if inject_mode is not None:
            inject(inject_mode, targets)

    diagnostics = analyze_trace(trace.events)
    diagnostics += audit_history(trace.events)
    diagnostics += audit_connector(connector)
    return SanitizeReport(
        system=system,
        write_batch_size=write_batch_size,
        inject=inject_mode,
        expected=(
            FAULTS[inject_mode].expected
            if inject_mode is not None
            else frozenset()
        ),
        event_count=len(trace.events),
        updates_applied=result.updates_applied,
        diagnostics=diagnostics,
    )
