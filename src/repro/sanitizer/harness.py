"""The ``repro sanitize`` harness: one audited Figure 3 run.

1. the system loads the dataset and runs the interactive workload;
2. an optional seeded fault (:mod:`repro.sanitizer.faults`) is planted;
3. the integrity auditors walk the engine's persisted state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic
from repro.core import make_connector
from repro.driver import InteractiveConfig, InteractiveWorkloadRunner
from repro.sanitizer.faults import FAULTS, applicable_modes, inject
from repro.sanitizer.integrity import audit_connector
from repro.snb.datagen import SnbDataset


@dataclass
class SanitizeReport:
    """What one audited run produced."""

    system: str
    write_batch_size: int
    inject: str | None
    expected: frozenset[str]
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
    """Run one system's interactive workload, then audit it."""
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
    result = InteractiveWorkloadRunner(connector, dataset, config).run()
    if inject_mode is not None:
        inject(inject_mode, targets)
    return SanitizeReport(
        system=system,
        write_batch_size=write_batch_size,
        inject=inject_mode,
        expected=(
            FAULTS[inject_mode].expected
            if inject_mode is not None
            else frozenset()
        ),
        updates_applied=result.updates_applied,
        diagnostics=audit_connector(connector),
    )
