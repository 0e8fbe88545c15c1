"""Statistics subsystem shared by the four query engines.

``ANALYZE`` entry points on the engine facades collect the containers in
:mod:`repro.stats.collect`; planners consult them through the
:class:`~repro.stats.selectivity.Selectivity` estimator.  The static
analysis passes use :mod:`repro.stats.snbmodel` (the closed-form SNB
cardinality model) to attach expected row counts to their warnings.
"""

from repro.stats.batching import (
    MAX_BATCH_SIZE,
    MIN_BATCH_SIZE,
    choose_batch_size,
)
from repro.stats.collect import (
    ColumnStats,
    EquiWidthHistogram,
    GraphStatistics,
    SqlStatistics,
    TableStats,
    TripleStatistics,
    collect_sql_statistics,
)
from repro.stats.selectivity import Selectivity
from repro.stats.snbmodel import (
    expected_entity_rows,
    expected_table_rows,
    format_rows,
)

__all__ = [
    "MAX_BATCH_SIZE",
    "MIN_BATCH_SIZE",
    "choose_batch_size",
    "ColumnStats",
    "EquiWidthHistogram",
    "GraphStatistics",
    "Selectivity",
    "SqlStatistics",
    "TableStats",
    "TripleStatistics",
    "collect_sql_statistics",
    "expected_entity_rows",
    "expected_table_rows",
    "format_rows",
]
