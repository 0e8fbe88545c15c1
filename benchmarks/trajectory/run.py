"""The trajectory benchmark: all 8 SUTs, four workloads, two clocks.

    python3 benchmarks/trajectory/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1
        one workload in this process; the last line of standard output is
        one JSON object {correct, attempted, failed, metrics} (the
        end-to-end metrics with --trace 0, the per-layer ones with 1)

    python3 benchmarks/trajectory/run.py [--seed N] [--seconds S]
        [--runs R] [--trace 0|1] [--out FILE]
        every workload, each run in a fresh subprocess with fresh loads,
        seeds N..N+R-1; prints every metric and writes results.json

    python3 benchmarks/trajectory/run.py --compare A.json B.json
        delta table of two result files; exit 1 on a regression

``sim_*`` is what the modelled 2015 systems would take (cost-model time,
deterministic); ``wall_*``/``host_*``/``setup_s`` is what this Python
takes.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT_DIR = HERE / "out"
RUN_SECONDS = 8.0


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def print_metrics(result: dict) -> None:
    state = "correct" if result["correct"] else "NOT CORRECT"
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"trace={result['trace']}: {state}, "
        f"{result['attempted']} ops attempted, {result['failed']} failed, "
        f"{result['mismatches']} mismatches, "
        f"{len(result['shape_violations'])} shape violations"
    )
    for reason in (*result["shape_violations"], *result["idle_writers"]):
        print(f"   violated: {reason}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")


def run_one(args: argparse.Namespace) -> int:
    """The driver contract: one workload, here, result on the last line."""
    from measure import run_workload
    from workloads import DEFAULT, SMOKE

    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        SMOKE if args.smoke else DEFAULT,
        trace_path=OUT_DIR / f"{args.workload}.trace.jsonl",
    )
    print_metrics(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result))
    summary = {
        key: result[key]
        for key in ("correct", "attempted", "failed", "metrics")
    }
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each run in a subprocess of its own."""
    from catalog import WORKLOADS

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs = []
    status = 0
    for workload in WORKLOADS:
        for seed in range(args.seed, args.seed + args.runs):
            for trace in ((0, 1) if args.trace else (0,)):
                part = OUT_DIR / f"{workload}.seed{seed}.trace{trace}.json"
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(part),
                ]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(
                    command, stdout=subprocess.PIPE, text=True
                )
                # the child's table, without its machine-readable last line
                print(done.stdout.rsplit("\n", 2)[0], flush=True)
                if done.returncode:
                    status = 1
                if part.exists():
                    runs.append(json.loads(part.read_text()))
                    part.unlink()
    out = args.out or OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    # one run per line, so that a diff of two result files reads run by run
    out.write_text(
        '{"schema": 1, "machine": %s, "runs": [\n%s\n]}\n'
        % (json.dumps(machine()), ",\n".join(map(json.dumps, runs)))
    )
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", nargs=2, type=Path, default=None,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro").is_dir():
        print(f"no system under test: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.compare is not None:
        from compare import compare_files

        return compare_files(*args.compare)
    if args.workload is None:
        return run_all(args)
    from catalog import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; known: {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
