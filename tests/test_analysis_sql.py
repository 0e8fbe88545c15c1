"""The SQL walker: clean built-in catalog, seeded-defect detection."""

import pytest

from repro.analysis import analyze_sql
from repro.core.connectors.sql import SQL_QUERIES


def codes(queries, operation="test"):
    return [d.code for d in analyze_sql(operation, queries).diagnostics]


class TestBuiltinCatalog:
    def test_every_operation_is_clean(self):
        for operation, queries in SQL_QUERIES.items():
            result = analyze_sql(operation, queries)
            assert result.diagnostics == [], (
                operation,
                [str(d) for d in result.diagnostics],
            )

    def test_point_lookup_footprint(self):
        result = analyze_sql("point_lookup", SQL_QUERIES["point_lookup"])
        assert result.footprint == {"person"}

    def test_fk_columns_reach_the_footprint(self):
        result = analyze_sql(
            "person_recent_posts", SQL_QUERIES["person_recent_posts"]
        )
        assert "hasCreator" in result.footprint


class TestMutations:
    def test_unknown_table(self):
        # the unresolvable columns cascade into QA103s; the table
        # diagnosis leads
        found = codes(("SELECT id FROM persons WHERE id = ?",))
        assert found[0] == "QA104"

    def test_unknown_column(self):
        assert codes(
            ("SELECT nickname FROM person WHERE id = ?",)
        ) == ["QA103"]

    def test_parse_error(self):
        assert codes(("SELECT FROM WHERE",)) == ["QA105"]

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT id FROM person WHERE id = @",  # unexpected character
            "SELECT id FROM person WHERE firstname = 'abc",  # unterminated
        ],
    )
    def test_lex_error_is_a_parse_error(self, text):
        assert codes((text,)) == ["QA105"]

    def test_insert_arity_mismatch(self):
        # person has 9 columns
        assert codes(("INSERT INTO person VALUES (?, ?, ?)",)) == ["QA106"]

    def test_wrong_typed_predicate(self):
        assert codes(
            ("SELECT id FROM person WHERE firstname = 42",)
        ) == ["QA201"]

    def test_string_literal_against_int_column(self):
        assert codes(
            ("SELECT id FROM person WHERE id = 'alice'",)
        ) == ["QA201"]

    def test_cartesian_join(self):
        # the JOIN condition never references the preceding table
        assert "QA301" in codes(
            ("SELECT p.id, f.id FROM person p "
             "JOIN forum f ON f.id = ? WHERE p.id = ?",)
        )

    def test_non_sargable_filter(self):
        assert codes(
            ("SELECT id FROM person WHERE id + 1 = ?",)
        ) == ["QA302"]

    def test_aggregates_are_not_flagged(self):
        assert codes(
            ("SELECT count(id) FROM person WHERE id = ?",)
        ) == []

    def test_shortest_path_len_checks_its_string_args(self):
        assert codes(
            ("SELECT shortest_path_len('knows', 'p1', 'nope', ?, ?)",)
        ) == ["QA103"]

    def test_shortest_path_len_unknown_table(self):
        assert codes(
            ("SELECT shortest_path_len('knowz', 'p1', 'p2', ?, ?)",)
        ) == ["QA104"]
