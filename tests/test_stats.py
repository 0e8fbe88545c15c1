"""The statistics subsystem: collectors, estimators, the SNB model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import GraphDatabase
from repro.rdf import RdfDatabase
from repro.relational import Database
from repro.stats import (
    ColumnStats,
    GraphStatistics,
    Selectivity,
    TableStats,
    TripleStatistics,
    collect_sql_statistics,
    expected_entity_rows,
    expected_table_rows,
    format_rows,
)
from repro.stats.collect import _build_histogram


class TestSqlCollection:
    def make_db(self):
        db = Database("row")
        db.execute(
            "CREATE TABLE person (id BIGINT PRIMARY KEY, city TEXT)"
        )
        for pid in range(10):
            db.execute(
                "INSERT INTO person VALUES (?, ?)",
                (pid, "x" if pid % 2 else "y"),
            )
        return db

    def test_analyze_counts_rows_and_distincts(self):
        db = self.make_db()
        stats = db.analyze()
        table = stats.table("person")
        assert table is not None
        assert table.row_count == 10
        assert table.distinct("id") == 10
        assert table.distinct("city") == 2

    def test_min_max_and_unknown_column(self):
        db = self.make_db()
        table = db.analyze().table("person")
        assert table.columns["id"].minimum == 0
        assert table.columns["id"].maximum == 9
        assert table.distinct("nope") is None

    def test_analyze_statement_form(self):
        db = self.make_db()
        assert db.execute("ANALYZE person") == 0
        assert db.stats is not None
        assert db.stats.table("person").row_count == 10

    def test_table_lookup_is_case_insensitive(self):
        db = self.make_db()
        stats = db.analyze()
        assert stats.table("PERSON") is stats.table("person")


def _per_value_statistics(catalog):
    """The reference: ANALYZE as one loop over every value of every row
    (incomparable values skipped for min/max, as they always were)."""
    tables = {}
    for name in catalog.table_names():
        table = catalog.table(name)
        columns = list(table.column_names)
        values = [set() for _ in columns]
        nulls = [0] * len(columns)
        minima = [None] * len(columns)
        maxima = [None] * len(columns)
        numeric = [[] for _ in columns]
        rows = 0
        for _handle, row in table.scan():
            rows += 1
            for i, value in enumerate(row):
                if value is None:
                    nulls[i] += 1
                    continue
                values[i].add(value)
                if numeric[i] is not None:
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        numeric[i].append(float(value))
                    else:
                        numeric[i] = None
                try:
                    if minima[i] is None or value < minima[i]:
                        minima[i] = value
                    if maxima[i] is None or value > maxima[i]:
                        maxima[i] = value
                except TypeError:
                    pass
        tables[name.lower()] = TableStats(
            name=name.lower(),
            row_count=rows,
            columns={
                column: ColumnStats(
                    distinct=len(values[i]),
                    null_count=nulls[i],
                    minimum=minima[i],
                    maximum=maxima[i],
                    histogram=_build_histogram(numeric[i]),
                )
                for i, column in enumerate(columns)
            },
        )
    return tables


class _Rows:
    """A catalog of one table that scans the given rows."""

    column_names = ("a", "b", "c")

    def __init__(self, rows):
        self.rows = rows

    def table_names(self):
        return ["T"]

    def table(self, name):
        return self

    def scan(self):
        return enumerate(self.rows)


# every scalar a column may hold, incomparable mixes included
_CELL = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from(["", "a", "b"]),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_CELL, _CELL, _CELL), max_size=40))
def test_column_statistics_match_the_per_value_loop(rows):
    catalog = _Rows(rows)
    got = collect_sql_statistics(catalog).tables
    # repr tells 1 from True and 1.0, which == would not
    assert repr(got) == repr(_per_value_statistics(catalog))


class TestSelectivity:
    def test_equality_is_uniform_over_distincts(self):
        assert Selectivity.equality(100) == 0.01
        assert Selectivity.equality(None) == 0.1

    def test_inequality_complements_equality(self):
        assert Selectivity.inequality(4) == 0.75
        assert Selectivity.inequality(None) == 1.0

    def test_join_divides_by_larger_side(self):
        assert Selectivity.join(100, 200, 10, 50) == 400.0
        # floor at one row
        assert Selectivity.join(1, 1, 1000, 1000) == 1.0


class TestGraphStatistics:
    def test_avg_degree_by_direction(self):
        stats = GraphStatistics(
            node_count=10,
            rel_count=40,
            rel_degrees={"knows": (40, 10, 8)},
        )
        assert stats.avg_degree("knows", "out") == 4.0
        assert stats.avg_degree("knows", "in") == 5.0
        assert stats.avg_degree("knows", "both") == 9.0

    def test_unknown_type_falls_back_to_global_ratio(self):
        stats = GraphStatistics(node_count=10, rel_count=40)
        assert stats.avg_degree("likes", "out") == 8.0

    def test_store_collection(self):
        db = GraphDatabase()
        ids = [
            db.store.create_node(("person",), {"id": i}) for i in range(4)
        ]
        db.store.create_node(("forum",), {"id": 99})
        db.store.create_rel("knows", ids[0], ids[1])
        db.store.create_rel("knows", ids[1], ids[2])
        stats = db.store.collect_statistics()
        assert stats.node_count == 5
        assert stats.rel_count == 2
        assert stats.label_count("person") == 4
        assert stats.label_count("forum") == 1
        assert stats.rel_degrees["knows"][0] == 2


class TestTripleStatistics:
    def test_pattern_count_divides_bound_slots(self):
        stats = TripleStatistics(
            triple_count=100,
            predicate_counts={"knows": 50},
            distinct_subjects={"knows": 10},
            distinct_objects={"knows": 25},
            total_subjects=20,
            total_objects=40,
        )
        assert stats.pattern_count(False, "knows", False) == 50.0
        assert stats.pattern_count(True, "knows", False) == 5.0
        assert stats.pattern_count(True, "knows", True) == 0.2
        # unknown predicate: nothing matches
        assert stats.pattern_count(False, "nope", False) == 0.0
        # unbound predicate: whole store scaled by bound slots
        assert stats.pattern_count(True, None, False) == 5.0

    def test_store_collection(self):
        db = RdfDatabase()
        db.insert_triples([
            ("sn:a", "snb:knows", "sn:b"),
            ("sn:a", "snb:knows", "sn:c"),
            ("sn:b", "snb:id", 2),
        ])
        stats = db.store.collect_statistics()
        assert stats.triple_count == 3
        assert stats.predicate_counts["snb:knows"] == 2
        assert stats.distinct_subjects["snb:knows"] == 1
        assert stats.distinct_objects["snb:knows"] == 2


class TestSnbModel:
    def test_person_scales_with_sf(self):
        sf10 = expected_table_rows("person")
        sf3 = expected_table_rows("person", 3)
        assert sf10 is not None and sf3 is not None
        assert sf10 > sf3 > 0

    def test_dimension_tables_are_constant(self):
        assert expected_table_rows("tag") == expected_table_rows("tag", 3)

    def test_unknown_table_is_none(self):
        assert expected_table_rows("no_such_table") is None
        assert expected_entity_rows({"no_such_entity"}) is None

    def test_format_rows_scales_units(self):
        assert format_rows(42) == "~42"
        assert format_rows(833_000) == "~833k"
        assert format_rows(2_100_000) == "~2.1M"
