"""Whole-program lock analysis of the engine source (QA801, QA803).

The passes prove a lock discipline on every path, by composing
per-function summaries over a module-level call graph:

* :mod:`~repro.analysis.program.callgraph` — sources, functions, and
  conservative name-based call resolution.
* :mod:`~repro.analysis.program.summaries` — per-function facts: lock
  and transaction acquisitions, calls and blocking-I/O sites, in
  source order.
* :mod:`~repro.analysis.program.passes` — the QA801 and QA803 passes,
  and :class:`Program` with the one fixpoint driver every
  interprocedural fact is computed by.
* :mod:`~repro.analysis.program.baseline` — the committed suppression
  file that keeps `repro lint --program` green on the current tree.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.program.baseline import (
    DEFAULT_BASELINE_PATH,
    BaselineEntry,
    apply_baseline,
    load_baseline,
    unresolvable_entries,
)
from repro.analysis.program.callgraph import (
    SCOPE_PACKAGES,
    build_call_graph,
    default_paths,
    default_sources,
    module_name,
    sources_from_paths,
)
from repro.analysis.program.passes import (
    PASS_NAMES,
    Program,
    run_passes,
)
from repro.analysis.program.summaries import summarize

__all__ = [
    "DEFAULT_BASELINE_PATH",
    "PASS_NAMES",
    "SCOPE_PACKAGES",
    "BaselineEntry",
    "Program",
    "ProgramLintReport",
    "analyze_program",
    "analyze_program_report",
    "analyze_program_sources",
    "apply_baseline",
    "load_baseline",
    "unresolvable_entries",
]


def build_program(sources: Mapping[str, str]) -> Program:
    """Parse + summarize a source mapping into a pass-ready Program."""
    graph, failures = build_call_graph(sources)
    if failures:
        module, error = failures[0]
        raise SyntaxError(f"cannot parse {module}: {error}")
    return Program(graph, summarize(graph))


def analyze_program_sources(
    sources: Mapping[str, str],
    passes: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """Run the QA8xx passes over an explicit source mapping (tests)."""
    selected = None if passes is None else set(passes)
    return run_passes(build_program(sources), selected)


@dataclass
class ProgramLintReport:
    """One ``--program`` run: kept findings plus baseline health.

    ``diagnostics`` is what the gate fires on (new findings only, when
    a baseline was applied).  ``stale`` entries matched no diagnostic
    this run and ``unresolvable`` entries no longer name any function
    or class in the tree — both mean the baseline has drifted from the
    code and should be pruned.  A run over explicit ``paths`` judges
    only the entries whose module it analysed or that exist nowhere
    in the tree.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0
    stale: list[BaselineEntry] = field(default_factory=list)
    unresolvable: list[BaselineEntry] = field(default_factory=list)


def analyze_program_report(
    paths: Iterable[str | Path] | None = None,
    baseline: str | Path | None = DEFAULT_BASELINE_PATH,
    passes: Iterable[str] | None = None,
) -> ProgramLintReport:
    """Run the analyzer over the engine tree (or explicit ``paths``).

    Diagnostics matching the baseline file are suppressed; pass
    ``baseline=None`` to see everything.
    """
    sources = (
        default_sources()
        if paths is None
        else sources_from_paths(paths)
    )
    program = build_program(sources)
    selected = None if passes is None else set(passes)
    diagnostics = run_passes(program, selected)
    if baseline is None:
        return ProgramLintReport(diagnostics=diagnostics)
    entries = load_baseline(baseline)
    kept, suppressed, stale = apply_baseline(diagnostics, entries)
    unresolvable = unresolvable_entries(
        entries, set(program.summaries)
    )
    # an entry that names nothing is reported once, as unresolvable
    # (it is necessarily stale too)
    stale = [e for e in stale if e not in unresolvable]
    if paths is not None:
        # an entry for a module of the tree that this run did not
        # analyse may be live; only the whole-tree run can tell
        unseen = {module_name(p) for p in default_paths()} - set(sources)
        stale = [e for e in stale if not e.names_module_in(unseen)]
        unresolvable = [
            e for e in unresolvable if not e.names_module_in(unseen)
        ]
    return ProgramLintReport(
        diagnostics=kept,
        suppressed=suppressed,
        stale=stale,
        unresolvable=unresolvable,
    )


def analyze_program(
    paths: Iterable[str | Path] | None = None,
    baseline: str | Path | None = DEFAULT_BASELINE_PATH,
    passes: Iterable[str] | None = None,
) -> list[Diagnostic]:
    """The kept diagnostics of :func:`analyze_program_report`."""
    return analyze_program_report(paths, baseline, passes).diagnostics
