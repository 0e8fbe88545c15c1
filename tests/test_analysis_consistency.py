"""Cross-dialect consistency: the four catalogs store one update."""

from repro.analysis import check_insert_consistency
from repro.analysis.consistency import (
    DECLARED_INSERT_DELTAS,
    INSERT_OPERATIONS,
)
from repro.analysis.linter import analyze_catalog, connector_catalogs


def built_in_results():
    return {
        dialect: analyze_catalog(dialect, queries)
        for dialect, queries in connector_catalogs().items()
    }


class TestInsertFootprints:
    def test_builtin_deltas_are_exactly_the_declared_ones(self):
        diagnostics = check_insert_consistency(built_in_results())
        assert diagnostics == [], [str(d) for d in diagnostics]

    def test_every_insert_operation_is_present_everywhere(self):
        per_dialect = built_in_results()
        for dialect, results in per_dialect.items():
            for operation in INSERT_OPERATIONS:
                assert operation in results, (dialect, operation)

    def test_undeclared_surplus_is_qa403(self, monkeypatch):
        # forget the sparql add_person delta: the footprint is still
        # what it always was, but now nobody vouches for it
        trimmed = {
            key: value
            for key, value in DECLARED_INSERT_DELTAS.items()
            if key != ("sparql", "add_person")
        }
        monkeypatch.setattr(
            "repro.analysis.consistency.DECLARED_INSERT_DELTAS", trimmed
        )
        diagnostics = check_insert_consistency(built_in_results())
        assert [d.code for d in diagnostics] == ["QA403"]
        assert "undeclared surplus" in diagnostics[0].message
        assert "studyAt" in diagnostics[0].message

    def test_unmaterialised_declaration_is_qa403(self, monkeypatch):
        # declare a delta no catalog produces
        padded = dict(DECLARED_INSERT_DELTAS)
        padded[("cypher", "add_forum")] = frozenset({"tag"})
        monkeypatch.setattr(
            "repro.analysis.consistency.DECLARED_INSERT_DELTAS", padded
        )
        diagnostics = check_insert_consistency(built_in_results())
        assert [d.code for d in diagnostics] == ["QA403"]
        assert "declared delta not present" in diagnostics[0].message
        assert "tag" in diagnostics[0].message
