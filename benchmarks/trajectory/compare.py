"""``run.py --compare A.json B.json``: what changed between two result files.

A file holds a *set*: one or more runs per workload (``--runs``).  Per
workload and metric the table gives A's median (the base), B's median
and their ratio, then a verdict:

``same``/``changed``  a metric that must repeat exactly (``sim_*``,
                      counts, sizes), compared run by run for equal seeds
``ok``                within the metric's bound
``REGRESSION``        B's median is worse than A's by more than the bound
``unresolved``        the runs of a set spread (interquartile range over
                      median) wider than the bound, so neither of the
                      above can be said

Per-layer metrics have no bound and get a verdict only when exact.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from catalog import BY_NAME, Metric


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median; 0 for one run."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def worsening(metric: Metric, base: float, new: float) -> float:
    """By what share of ``base`` ``new`` is worse (negative: better)."""
    if not base:
        return 0.0
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def verdict(metric: Metric, a: dict[int, float], b: dict[int, float]) -> str:
    """``a``/``b`` map seed -> value for one workload and metric."""
    base = statistics.median(a.values())
    new = statistics.median(b.values())
    worse = worsening(metric, base, new)
    if metric.exact and set(a) == set(b):
        if all(a[seed] == b[seed] for seed in a):
            return "same"
        if metric.bound is not None and worse > metric.bound:
            return "REGRESSION"
        return "changed"
    if metric.bound is None:
        return ""
    if max(spread(list(a.values())), spread(list(b.values()))) > metric.bound:
        return "unresolved"
    return "REGRESSION" if worse > metric.bound else "ok"


def by_metric(results: dict) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> seed -> value over a file's runs."""
    table = defaultdict(dict)
    for run in results["runs"]:
        for name, metric in run["metrics"].items():
            table[run["workload"], name][run["seed"]] = metric["value"]
    return table


def compare_files(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    print(f"A = {path_a}  {a['machine']}")
    print(f"B = {path_b}  {b['machine']}")
    if a["machine"] != b["machine"]:
        print("machines differ: host-time rows compare boxes, not code")
    table_a, table_b = by_metric(a), by_metric(b)
    tally = defaultdict(int)
    print(f"{'workload':16s} {'metric':44s} {'A (base)':>12s} "
          f"{'B':>12s} {'B/A':>8s}  verdict")
    for key in table_a:
        workload, name = key
        if key not in table_b or name not in BY_NAME:
            print(f"{workload:16s} {name:44s} only in one file")
            tally["missing"] += 1
            continue
        metric = BY_NAME[name]
        base = statistics.median(table_a[key].values())
        new = statistics.median(table_b[key].values())
        ratio = f"{new / base:8.4f}" if base else "       -"
        result = verdict(metric, table_a[key], table_b[key])
        tally[result] += 1
        print(f"{workload:16s} {name:44s} {base:12.6g} {new:12.6g} "
              f"{ratio}  {result} {metric.unit}")
    for run in (*a["runs"], *b["runs"]):
        if not run["correct"]:
            tally["incorrect runs"] += 1
    print(", ".join(f"{count} {what}" for what, count in tally.items() if what))
    bad = tally["REGRESSION"] + tally["missing"] + tally["incorrect runs"]
    return 1 if bad else 0
