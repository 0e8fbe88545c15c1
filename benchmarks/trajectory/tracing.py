"""The traced run's host side: cProfile by package, spans to a file.

Tracing lives entirely in the benchmark: one span per op (``workloads.Op``)
kept in memory and written when the run ends, and ``cProfile`` enabled
only inside the measured phase.  A function's ``tottime`` is its own time
minus its callees', i.e. a span's self time, so summing it by package
attributes every host microsecond to exactly one layer.  Spans inside
the engines are a later change (``repro.obs``).
"""

from __future__ import annotations

import cProfile
import json
import pstats
from pathlib import Path

from catalog import MODULES, STORAGE_MODULES
from workloads import Op

_HERE = str(Path(__file__).resolve().parent)


def module_of(filename: str) -> str | None:
    """The profile bucket of a source file; None for the benchmark's own
    frames, which are not the system's work."""
    if filename.startswith(_HERE):
        return None
    _, sep, tail = filename.rpartition("/repro/")
    if not sep:
        return "python"
    package, _, rest = tail.partition("/")
    if package == "storage":
        stem = rest.removesuffix(".py")
        if stem in STORAGE_MODULES:
            return f"storage.{stem}"
    return package if package in MODULES else "python"


def host_by_module(
    profiles: dict[str, cProfile.Profile],
) -> tuple[dict[str, float], dict[str, int], int, dict[str, int]]:
    """(self seconds by module, calls by module, ``charge()`` calls,
    ``repro.exec`` calls by SUT) over the per-SUT profiles."""
    self_s = dict.fromkeys(MODULES, 0.0)
    calls = dict.fromkeys(MODULES, 0)
    charges = 0
    exec_calls = {}
    for sut, profile in profiles.items():
        exec_calls[sut] = 0
        for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in (
            pstats.Stats(profile).stats.items()  # type: ignore[attr-defined]
        ):
            module = module_of(filename)
            if module is None:
                continue
            self_s[module] += tottime
            calls[module] += ncalls
            if module == "exec":
                exec_calls[sut] += ncalls
            if func == "charge" and filename.endswith("simclock/ledger.py"):
                charges += ncalls
    return self_s, calls, charges, exec_calls


def write_trace(path: Path, workload: str, seed: int, ops: list[Op]) -> None:
    """One JSON object per line: the workload-run span, then its ops."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as sink:
        root = {
            "id": 0, "parent": None, "workload": workload, "seed": seed,
            "start": ops[0].start if ops else 0.0,
            "end": ops[-1].end if ops else 0.0,
        }
        sink.write(json.dumps(root) + "\n")
        for i, op in enumerate(ops, start=1):
            span = {
                "id": i, "parent": 0, "workload": workload, "sut": op.sut,
                "op": op.op, "start": op.start, "end": op.end,
                "sim_us": op.sim_us, "ok": op.ok, "costmodel": op.split_us,
            }
            sink.write(json.dumps(span) + "\n")
