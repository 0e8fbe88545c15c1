"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``     write an SNB dataset as LDBC-style CSVs
``latency``      the Table 2/3 micro benchmark for chosen systems
``interactive``  the Figure 3 real-time workload for one system
``load``         the Table 4 / Appendix A ingestion experiment
``validate``     cross-check that all systems answer queries identically
``lint``         statically analyse the query catalogs against the schema
``sanitize``     run the interactive workload under the race detector
                 and data-integrity auditors (optionally fault-injected)
``systems``      list the eight SUT keys
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

from repro.core import SUT_KEYS, make_connector
from repro.core.benchmark import (
    MICRO_QUERIES,
    LatencyBenchmark,
    dataset_statistics,
)
from repro.core.report import render_series, render_table
from repro.driver import (
    InteractiveConfig,
    InteractiveWorkloadRunner,
    concurrent_load,
    sequential_load,
)
from repro.snb import GeneratorConfig, generate
from repro.snb.serializer import serialize_to_dir


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale-factor", type=float, default=3.0,
        help="LDBC scale factor (paper uses 3 and 10)",
    )
    parser.add_argument(
        "--scale-divisor", type=float, default=4000.0,
        help="shrink factor below paper scale (default 4000)",
    )
    parser.add_argument("--seed", type=int, default=42)


def _dataset(args: argparse.Namespace):
    return generate(
        GeneratorConfig(
            scale_factor=args.scale_factor,
            scale_divisor=args.scale_divisor,
            seed=args.seed,
        )
    )


def _parse_systems(value: str) -> list[str]:
    if value == "all":
        return list(SUT_KEYS)
    keys = [k.strip() for k in value.split(",") if k.strip()]
    unknown = [k for k in keys if k not in SUT_KEYS]
    if unknown:
        raise SystemExit(
            f"unknown systems {unknown}; known: {', '.join(SUT_KEYS)}"
        )
    return keys


def cmd_systems(_args: argparse.Namespace) -> int:
    for key in SUT_KEYS:
        connector_cls = type(make_connector(key))
        print(f"{key:16s} {connector_cls.system:10s} {connector_cls.language}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    stats = dataset_statistics(dataset)
    sizes = serialize_to_dir(dataset, args.out)
    print(
        f"wrote {len(sizes)} CSV files to {args.out} "
        f"({sum(sizes.values()) / 1e6:.2f} MB)"
    )
    print(
        f"vertices={stats['vertices']:,} edges={stats['edges']:,} "
        f"updates={len(dataset.updates):,}"
    )
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    systems = _parse_systems(args.systems)
    bench = LatencyBenchmark(dataset, repetitions=args.reps)
    rows = []
    for key in systems:
        connector = make_connector(key)
        connector.load(dataset)
        results = bench.run(connector)
        rows.append(
            [key]
            + [
                None if math.isnan(results[q]) else results[q]
                for q in MICRO_QUERIES
            ]
        )
    print(
        render_table(
            f"Mean simulated latency (ms), SF{args.scale_factor:g} / "
            f"divisor {args.scale_divisor:g}, {args.reps} reps "
            f"('-' marks DNF)",
            ["System", "point lookup", "1-hop", "2-hop", "shortest path"],
            rows,
        )
    )
    return 0


def cmd_interactive(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    connector = make_connector(args.system)
    connector.load(dataset)
    config = InteractiveConfig(
        readers=args.readers,
        duration_ms=args.duration_ms,
        window_ms=args.duration_ms / 20,
    )
    result = InteractiveWorkloadRunner(connector, dataset, config).run()
    print(
        f"{args.system}: {config.readers} readers + 1 writer, "
        f"{config.duration_ms:.0f} ms simulated"
    )
    print(f"  reads/s : {result.read_throughput:,.0f}")
    print(f"  writes/s: {result.write_throughput:,.0f}")
    print(f"  read p99: {result.read_latency.percentile(99):.3f} ms")
    if result.server_crashed:
        print("  !! Gremlin Server crashed under load")
    print(
        render_series(
            "write throughput over time",
            {args.system: result.write_windows.series()},
        )
    )
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    dataset = _dataset(args)
    connector = make_connector(args.system)
    provider = getattr(connector, "provider", None)
    if provider is None:
        raise SystemExit(
            f"{args.system} is not a TinkerPop system; the loading "
            f"experiment covers the Gremlin-loaded systems"
        )
    if args.loaders == 1:
        report = sequential_load(provider, dataset)
    else:
        if not connector.supports_concurrent_loading():
            raise SystemExit(
                f"{args.system} does not support concurrent loading"
            )
        report = concurrent_load(provider, dataset, args.loaders)
    print(
        render_table(
            f"{args.system}, {args.loaders} loader(s)",
            ["total min", "vertices/s", "edges/s"],
            [[
                round(report.total_minutes, 2),
                round(report.vertices_per_second),
                round(report.edges_per_second),
            ]],
        )
    )
    return 0


def _mvcc_audit(
    connectors: dict,
    held_ops: list,
    update_events: list,
    reference_key: str,
) -> tuple[int, int]:
    """The ``validate --mvcc`` snapshot-stability audit.

    One snapshot is held open across the whole audit: every system's
    answers under it must be identical before and after the update
    stream lands (writers never disturb a reader's view), and once the
    snapshot is released every system must agree on the new current
    state.  Returns ``(checks, mismatches)``.
    """
    from repro.txn import oracle

    checks = 0
    mismatches = 0
    for connector in connectors.values():
        connector.set_isolation_level("snapshot")

    def answers(key: str) -> list:
        return [
            _normalize(getattr(connectors[key], op)(*op_args))
            for op, op_args in held_ops
        ]

    snapshot = oracle.ORACLE.begin()
    try:
        with oracle.reading(snapshot):
            before = {key: answers(key) for key in connectors}
        for key, connector in connectors.items():
            for event in update_events:
                connector.apply_update(event)
        with oracle.reading(snapshot):
            for key in connectors:
                for (op, op_args), old, new in zip(
                    held_ops, before[key], answers(key)
                ):
                    checks += 1
                    if old != new:
                        mismatches += 1
                        print(
                            f"MVCC DRIFT {op}{op_args}: {key} held "
                            f"snapshot changed under concurrent writes"
                        )
    finally:
        oracle.ORACLE.release(snapshot)

    # released: every system serves the same post-update current state
    current = {key: answers(key) for key in connectors}
    reference = current[reference_key]
    for key, rows in current.items():
        for (op, op_args), answer, expected in zip(
            held_ops, rows, reference
        ):
            checks += 1
            if answer != expected:
                mismatches += 1
                print(
                    f"MVCC MISMATCH {op}{op_args}: {key} disagrees "
                    f"with {reference_key} after snapshot release"
                )
    return checks, mismatches


def cmd_validate(args: argparse.Namespace) -> int:
    """Load every chosen system and cross-check their answers."""
    from repro.core.benchmark import WorkloadParams

    dataset = _dataset(args)
    systems = _parse_systems(args.systems)
    if len(systems) < 2:
        raise SystemExit("validation needs at least two systems")
    # pin the mode on every system so one run cross-checks one
    # executor: plain validate exercises the interpreters,
    # --compiled exercises the compiled/vectorized closures
    mode = "compiled" if getattr(args, "compiled", False) else "interpreted"
    connectors = {}
    for key in systems:
        connector = make_connector(key)
        connector.load(dataset)
        connector.set_execution_mode(mode)
        connectors[key] = connector
    params = WorkloadParams.curate(dataset, count=args.checks, seed=args.seed)
    reference_key = systems[0]
    mismatches = 0
    checks = 0

    def compare(op: str, *op_args) -> None:
        nonlocal mismatches, checks
        answers = {
            key: getattr(c, op)(*op_args) for key, c in connectors.items()
        }
        reference = answers[reference_key]
        for key, answer in answers.items():
            checks += 1
            if _normalize(answer) != _normalize(reference):
                mismatches += 1
                print(
                    f"MISMATCH {op}{op_args}: {key} disagrees with "
                    f"{reference_key}"
                )

    for pid in params.person_ids:
        compare("point_lookup", pid)
        compare("one_hop", pid)
        compare("two_hop", pid)
        compare("person_profile", pid)
        compare("person_recent_posts", pid, 10)
        compare("person_friends", pid)
        compare("complex_two_hop", pid, 20)
        compare("friends_recent_posts", pid, 10)
    for pair in params.path_pairs:
        compare("shortest_path", *pair)
    for mid in params.message_ids:
        compare("message_content", mid)
        compare("message_creator", mid)
        compare("message_forum", mid)
        compare("message_replies", mid)
    if getattr(args, "mvcc", False):
        held_ops = [
            (op, (pid,))
            for pid in params.person_ids
            for op in (
                "person_profile",
                "one_hop",
                "person_friends",
            )
        ] + [("person_recent_posts", (pid, 10)) for pid in params.person_ids]
        m_checks, m_mismatches = _mvcc_audit(
            connectors,
            held_ops,
            dataset.updates[: args.mvcc_updates],
            reference_key,
        )
        checks += m_checks
        mismatches += m_mismatches
        print(
            f"mvcc audit: {m_checks} held-snapshot + post-release "
            f"checks, {m_mismatches} mismatches"
        )
    print(
        f"{checks} cross-checks over {len(connectors)} systems: "
        f"{mismatches} mismatches"
    )
    return 1 if mismatches else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run every static-analysis pass and print the diagnostics.

    Exit status is 1 when any ERROR-severity diagnostic is found (or,
    with ``--strict``, any diagnostic at all), so CI can gate on it.
    With ``--format json`` each diagnostic is one JSON object per line
    (machine-readable; the summary line is suppressed).

    ``--program`` switches from the query-catalog passes to the
    whole-program QA8xx passes over the engine source itself; findings
    matching the committed baseline file are suppressed, so the gate
    fails only on *new* diagnostics.  Baseline entries that match no
    finding (stale) or no longer name any function in the tree
    (unresolvable) fail the run with a prune instruction — unless
    ``--diff``, the CI gate, which reports only diagnostics new
    relative to the baseline and tolerates baseline drift so
    pre-existing justified entries never re-fail a build.

    ``--format sarif`` emits one SARIF 2.1.0 log (both lint modes) for
    upload to code hosts that annotate pull requests.
    """
    import json
    import sys

    from repro.analysis import Severity, lint_all

    hygiene_failures: list[str] = []
    if args.program:
        from repro.analysis.program import (
            DEFAULT_BASELINE_PATH,
            analyze_program_report,
        )

        baseline = args.baseline or DEFAULT_BASELINE_PATH
        report = analyze_program_report(
            paths=args.paths or None, baseline=baseline
        )
        diagnostics = report.diagnostics
        scope = "whole-program passes"
        for entry in report.unresolvable:
            hygiene_failures.append(
                f"baseline entry {entry.code} {entry.location!r} no "
                f"longer resolves to any function or class in the "
                f"analyzed tree — the code it justified was renamed "
                f"or removed; prune it from {baseline}"
            )
        for entry in report.stale:
            hygiene_failures.append(
                f"baseline entry {entry.code} {entry.location!r} "
                f"matched no diagnostic this run — the finding it "
                f"suppressed is gone; prune it from {baseline}"
            )
    else:
        diagnostics = lint_all()
        scope = "4 dialect catalogs"
    if args.format == "sarif":
        from repro.analysis.sarif import dumps as sarif_dumps

        print(sarif_dumps(diagnostics))
    elif args.format == "json":
        for diagnostic in diagnostics:
            print(json.dumps(diagnostic.to_dict(), sort_keys=True))
    else:
        for diagnostic in diagnostics:
            print(f"{diagnostic.severity.name:7s} {diagnostic}")
    error_count = sum(
        1 for d in diagnostics if d.severity is Severity.ERROR
    )
    warning_count = len(diagnostics) - error_count
    if args.format == "text":
        label = (
            "new diagnostic(s) vs. baseline"
            if args.diff
            else "error(s)"
        )
        print(
            f"lint: {error_count} {label}, {warning_count} "
            f"warning(s) across {scope}"
        )
    if hygiene_failures:
        # diff mode (the CI new-findings gate) reports drift without
        # failing on it; the plain run is the hygiene gate
        for failure in hygiene_failures:
            print(
                f"{'note' if args.diff else 'ERROR'}: {failure}",
                file=sys.stderr,
            )
        if not args.diff:
            return 1
    if error_count or (args.strict and diagnostics):
        return 1
    return 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run the Figure 3 workload under full instrumentation.

    Without ``--inject``: exit 1 if any diagnostic fires (the clean run
    must be silent).  With ``--inject MODE``: exit 0 only when the run
    reports *exactly* the planted fault's expected codes, so the matrix
    doubles as an end-to-end self-test of the sanitizer.
    """
    import json

    from repro.sanitizer.faults import FAULTS, applicable_modes
    from repro.sanitizer.harness import run_sanitize

    dataset = _dataset(args)
    systems = _parse_systems(args.systems)
    reports = []
    for key in systems:
        if args.inject is not None:
            from repro.core import make_connector

            targets = make_connector(key).sanitize_targets()
            if args.inject not in applicable_modes(targets):
                print(f"{key}: fault {args.inject!r} not applicable, skipped")
                continue
        reports.append(
            run_sanitize(
                key,
                dataset,
                readers=args.readers,
                duration_ms=args.duration_ms,
                write_batch_size=args.write_batch_size,
                max_update_events=args.max_update_events,
                inject_mode=args.inject,
            )
        )

    failed = 0
    for report in reports:
        if args.format == "json":
            for diagnostic in report.diagnostics:
                row = diagnostic.to_dict()
                row["system"] = report.system
                print(json.dumps(row, sort_keys=True))
        else:
            for diagnostic in report.diagnostics:
                print(f"{report.system}: {diagnostic}")
        if not report.ok:
            failed += 1
        if args.format != "json":
            verdict = "ok" if report.ok else "FAILED"
            wanted = (
                f", expected {sorted(report.expected)}"
                if report.inject
                else ""
            )
            print(
                f"{report.system}: {verdict} — "
                f"{len(report.diagnostics)} diagnostic(s), "
                f"{report.event_count} events, "
                f"{report.updates_applied} update(s) applied, "
                f"batch={report.write_batch_size}"
                f"{wanted}"
            )
    if args.inject is not None and not reports:
        known = ", ".join(sorted(FAULTS))
        print(f"no system supports {args.inject!r} (known modes: {known})")
        return 1
    return 1 if failed else 0


def _normalize(value):
    if isinstance(value, list):
        return [tuple(v) if isinstance(v, (list, tuple)) else v for v in value]
    if isinstance(value, tuple):
        return tuple(value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("systems", help="list the systems under test")
    p.set_defaults(fn=cmd_systems)

    p = sub.add_parser("generate", help="write a dataset as CSVs")
    _add_dataset_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("latency", help="Table 2/3 micro benchmark")
    _add_dataset_args(p)
    p.add_argument("--systems", default="all",
                   help="comma-separated SUT keys or 'all'")
    p.add_argument("--reps", type=int, default=10)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("interactive", help="Figure 3 workload")
    _add_dataset_args(p)
    p.add_argument("--system", required=True, choices=SUT_KEYS)
    p.add_argument("--readers", type=int, default=16)
    p.add_argument("--duration-ms", type=float, default=1000.0)
    p.set_defaults(fn=cmd_interactive)

    p = sub.add_parser(
        "validate", help="cross-check answers across systems"
    )
    _add_dataset_args(p)
    p.add_argument("--systems", default="all")
    p.add_argument("--checks", type=int, default=5,
                   help="curated parameters per operation")
    p.add_argument(
        "--compiled", action="store_true",
        help="run every system in compiled (vectorized) execution mode "
             "instead of the classic interpreters",
    )
    p.add_argument(
        "--mvcc", action="store_true",
        help="additionally audit snapshot isolation: hold a snapshot "
             "open on every system, apply the update stream, and "
             "require held reads to be byte-stable and released reads "
             "to agree across systems",
    )
    p.add_argument("--mvcc-updates", type=int, default=25,
                   help="update events applied during the --mvcc audit")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser(
        "lint", help="static analysis of the query catalogs"
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on warnings as well as errors",
    )
    p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="json prints one diagnostic object per line; sarif emits "
             "one SARIF 2.1.0 log for CI upload",
    )
    p.add_argument(
        "--program", action="store_true",
        help="run the whole-program QA8xx passes over the engine "
             "source instead of the query-catalog passes",
    )
    p.add_argument(
        "--baseline", nargs="?", default=None, const=None,
        metavar="PATH",
        help="suppression file for --program (default: the committed "
             "clean baseline; the bare flag makes that default "
             "explicit)",
    )
    p.add_argument(
        "--diff", action="store_true",
        help="with --program: report only diagnostics new relative "
             "to the baseline and do not fail on stale baseline "
             "entries (the CI gate mode)",
    )
    p.add_argument(
        "--paths", nargs="+", default=None, metavar="FILE",
        help="analyze these files instead of the engine tree "
             "(--program only; used by the analyzer's own tests)",
    )
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "sanitize",
        help="race detection + integrity audits over a workload run",
    )
    _add_dataset_args(p)
    p.add_argument("--systems", default="all",
                   help="comma-separated SUT keys or 'all'")
    p.add_argument("--readers", type=int, default=4)
    p.add_argument("--duration-ms", type=float, default=200.0)
    p.add_argument(
        "--write-batch-size", type=int, default=1,
        help=">1 drains updates through the group-committed batch path",
    )
    p.add_argument(
        "--max-update-events", type=int, default=None,
        help="cap the Kafka update stream (full stream by default)",
    )
    p.add_argument(
        "--inject", default=None, metavar="MODE",
        help="plant a seeded fault; the run then must report exactly "
             "that fault's codes (see repro.sanitizer.faults)",
    )
    p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="json prints one diagnostic object per line",
    )
    p.set_defaults(fn=cmd_sanitize)

    p = sub.add_parser("load", help="Table 4 / Appendix A ingestion")
    _add_dataset_args(p)
    p.add_argument(
        "--system", required=True,
        choices=["neo4j-gremlin", "titan-c", "titan-b", "sqlg"],
    )
    p.add_argument("--loaders", type=int, default=1)
    p.set_defaults(fn=cmd_load)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
