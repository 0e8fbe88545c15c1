"""Prepare-time validation: connectors reject invalid catalogs at
construction, before any benchmark runs."""

import pytest

from repro.analysis import QueryValidationError
from repro.cli import main
from repro.core import SUT_KEYS, make_connector
from repro.core.connectors.cypher import CYPHER_QUERIES, CypherConnector
from repro.core.connectors.sql import SQL_QUERIES, PostgresConnector


class TestValidCatalogs:
    def test_every_connector_constructs(self):
        for key in SUT_KEYS:
            make_connector(key)


class TestInvalidCatalogs:
    def test_misspelled_label_is_rejected(self):
        class BadCypherConnector(CypherConnector):
            query_catalog = {
                "point_lookup": (
                    "MATCH (p:Persn {id: $id}) RETURN p.id",
                ),
            }

        with pytest.raises(QueryValidationError) as excinfo:
            BadCypherConnector()
        diagnostics = excinfo.value.diagnostics
        assert [d.code for d in diagnostics] == ["QA101"]
        assert "QA101" in str(excinfo.value)

    def test_unknown_table_is_rejected(self):
        class BadSqlConnector(PostgresConnector):
            query_catalog = {
                "point_lookup": ("SELECT id FROM persons WHERE id = ?",),
            }

        with pytest.raises(QueryValidationError) as excinfo:
            BadSqlConnector()
        assert excinfo.value.diagnostics[0].code == "QA104"

    def test_unlexable_query_is_rejected(self):
        class BadSqlConnector(PostgresConnector):
            query_catalog = {
                "point_lookup": ("SELECT id FROM person WHERE id = @",),
            }

        with pytest.raises(QueryValidationError) as excinfo:
            BadSqlConnector()
        assert [d.code for d in excinfo.value.diagnostics] == ["QA105"]

    def test_mutated_builtin_catalog_is_rejected(self):
        mutated = dict(CYPHER_QUERIES)
        mutated["one_hop"] = (
            "MATCH (p:Person {id: $id})-[:KNOWZ]-(f:Person) "
            "RETURN f.id AS id ORDER BY id",
        )

        class MutatedConnector(CypherConnector):
            query_catalog = mutated

        with pytest.raises(QueryValidationError):
            MutatedConnector()

    def test_warnings_do_not_block_construction(self):
        # an unanchored scan is a WARNING: flagged by lint --strict but
        # not a construction-time rejection
        class SlowSqlConnector(PostgresConnector):
            query_catalog = dict(SQL_QUERIES)

        SlowSqlConnector()


class TestLintCli:
    def test_lint_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_lint_strict_is_clean(self, capsys):
        assert main(["lint", "--strict"]) == 0
