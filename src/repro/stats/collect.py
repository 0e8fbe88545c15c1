"""Statistics containers and collectors.

Each engine's ``ANALYZE`` builds one of the containers below with a full
scan (the datasets in scope are small enough that sampling would add
noise without saving anything).  Containers are plain data: they never
reach back into the stores, so stale statistics can only mislead the
planners, never break answers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any


#: equi-width histogram resolution for numeric columns
HISTOGRAM_BUCKETS = 32


@dataclass
class EquiWidthHistogram:
    """Equi-width bucket counts over a numeric column's value range.

    Gives range predicates (``creationdate > ?``-style) a data-driven
    selectivity instead of the System R 1/3 default: full buckets below
    the constant count entirely, the containing bucket contributes a
    linear fraction (uniformity within a bucket).
    """

    low: float
    high: float
    counts: list[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, value: float) -> float:
        """Fraction of values strictly below ``value`` (approximate)."""
        total = self.total
        if total == 0:
            return 0.0
        if value <= self.low:
            return 0.0
        if value > self.high:
            return 1.0
        width = (self.high - self.low) / len(self.counts)
        if width <= 0:
            return 0.0
        position = (value - self.low) / width
        bucket = min(int(position), len(self.counts) - 1)
        below = sum(self.counts[:bucket])
        within = (position - bucket) * self.counts[bucket]
        return min(1.0, (below + within) / total)

    def selectivity(self, op: str, value: float) -> float:
        """Selectivity of ``col <op> value`` for ``< <= > >=``."""
        below = self.fraction_below(value)
        if op in ("<", "<="):
            estimate = below
        else:
            estimate = 1.0 - below
        # never return a hard zero: the planner multiplies these
        return min(1.0, max(estimate, 1e-4))


@dataclass
class ColumnStats:
    """Per-column distribution summary."""

    distinct: int = 0
    null_count: int = 0
    minimum: Any = None
    maximum: Any = None
    #: present for numeric columns with at least two distinct values
    histogram: EquiWidthHistogram | None = None


@dataclass
class TableStats:
    """Row count plus per-column stats for one SQL table."""

    name: str
    row_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def distinct(self, column: str) -> int | None:
        stats = self.columns.get(column)
        return stats.distinct if stats is not None else None


class SqlStatistics:
    """ANALYZE output for a relational catalog."""

    def __init__(self) -> None:
        self.tables: dict[str, TableStats] = {}

    def table(self, name: str) -> TableStats | None:
        return self.tables.get(name.lower())


def collect_sql_statistics(catalog: Any) -> SqlStatistics:
    """Full-scan statistics for every table in a relational catalog.

    One scan per table; each column is then summarized as a whole.
    """
    stats = SqlStatistics()
    for name in catalog.table_names():
        table = catalog.table(name)
        names = list(table.column_names)
        rows = [row for _handle, row in table.scan()]
        # one column's values at a time
        by_column = zip(*rows) if rows else [()] * len(names)
        stats.tables[name.lower()] = TableStats(
            name=name.lower(),
            row_count=len(rows),
            columns={
                column: _column_stats(values)
                for column, values in zip(names, by_column)
            },
        )
    return stats


def _column_stats(column: Sequence[Any]) -> ColumnStats:
    values = [value for value in column if value is not None]
    try:
        low, high = min(values, default=None), max(values, default=None)
    except TypeError:
        low, high = _running_min_max(values)
    return ColumnStats(
        distinct=len(set(values)),
        null_count=len(column) - len(values),
        minimum=low,
        maximum=high,
        histogram=_build_histogram(_as_floats(values)),
    )


def _running_min_max(values: list[Any]) -> tuple[Any, Any]:
    """Min and max of a column whose values do not all compare: each
    value is compared with the extremes so far, and a value that raises
    ``TypeError`` leaves them as they are (distinct counts still hold)."""
    low = high = None
    for value in values:
        try:
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        except TypeError:
            pass
    return low, high


def _as_floats(values: list[Any]) -> list[float] | None:
    """The values as floats, or None when any is not a number (a bool
    is not one)."""
    if not set(map(type, values)) <= {int, float} and not all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in values
    ):
        return None
    return [float(value) for value in values]


def _build_histogram(
    values: list[float] | None,
) -> EquiWidthHistogram | None:
    """Bucket the column's numeric values (None if not worth having)."""
    if not values:
        return None
    low, high = min(values), max(values)
    if low == high:
        return None
    counts = [0] * HISTOGRAM_BUCKETS
    width = (high - low) / HISTOGRAM_BUCKETS
    for value in values:
        bucket = min(int((value - low) / width), HISTOGRAM_BUCKETS - 1)
        counts[bucket] += 1
    return EquiWidthHistogram(low=low, high=high, counts=counts)


@dataclass
class GraphStatistics:
    """ANALYZE output for a property-graph store.

    ``rel_degrees`` maps relationship type to ``(count, distinct start
    nodes, distinct end nodes)`` — enough to estimate average out/in
    fan-out per type.  ``prop_distinct`` maps indexed ``(label, prop)``
    pairs to their distinct value counts.
    """

    node_count: int = 0
    rel_count: int = 0
    label_counts: dict[str, int] = field(default_factory=dict)
    rel_degrees: dict[str, tuple[int, int, int]] = field(
        default_factory=dict
    )
    prop_distinct: dict[tuple[str, str], int] = field(default_factory=dict)

    def label_count(self, label: str) -> int | None:
        return self.label_counts.get(label)

    def avg_degree(self, rel_type: str | None, direction: str) -> float:
        """Average fan-out per node following ``rel_type`` edges.

        ``direction`` is ``out``/``in``/``both``; an unknown type falls
        back to the overall edge/node ratio.
        """
        if rel_type is None or rel_type not in self.rel_degrees:
            if not self.node_count:
                return 1.0
            return max(1.0, 2.0 * self.rel_count / self.node_count)
        count, starts, ends = self.rel_degrees[rel_type]
        if direction == "out":
            return count / max(starts, 1)
        if direction == "in":
            return count / max(ends, 1)
        return count / max(starts, 1) + count / max(ends, 1)


@dataclass
class TripleStatistics:
    """ANALYZE output for a triple store.

    Per-predicate triple counts plus distinct subject/object counts give
    the matching-triple estimate for every bound-position combination of
    a triple pattern.
    """

    triple_count: int = 0
    predicate_counts: dict[Any, int] = field(default_factory=dict)
    distinct_subjects: dict[Any, int] = field(default_factory=dict)
    distinct_objects: dict[Any, int] = field(default_factory=dict)
    total_subjects: int = 0
    total_objects: int = 0

    def pattern_count(
        self, s_bound: bool, predicate: Any, o_bound: bool
    ) -> float:
        """Estimated triples matching one pattern given its bound slots."""
        if predicate is not None:
            total = float(self.predicate_counts.get(predicate, 0))
            if s_bound:
                total /= max(self.distinct_subjects.get(predicate, 1), 1)
            if o_bound:
                total /= max(self.distinct_objects.get(predicate, 1), 1)
            return total
        total = float(self.triple_count)
        if s_bound:
            total /= max(self.total_subjects, 1)
        if o_bound:
            total /= max(self.total_objects, 1)
        return total
