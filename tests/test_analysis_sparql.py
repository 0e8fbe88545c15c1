"""The SPARQL walker: clean built-in catalog, seeded-defect detection."""

from repro.analysis import analyze_sparql
from repro.core.connectors.sparql import SPARQL_QUERIES


def codes(queries, operation="test"):
    return [d.code for d in analyze_sparql(operation, queries).diagnostics]


class TestBuiltinCatalog:
    def test_every_operation_is_clean(self):
        for operation, queries in SPARQL_QUERIES.items():
            result = analyze_sparql(operation, queries)
            assert result.diagnostics == [], (
                operation,
                [str(d) for d in result.diagnostics],
            )

    def test_one_hop_footprint(self):
        result = analyze_sparql("one_hop", SPARQL_QUERIES["one_hop"])
        assert "knows" in result.footprint
        assert "person" in result.footprint


class TestMutations:
    def test_unknown_class(self):
        assert codes(
            ("SELECT ?p WHERE { ?p rdf:type snb:Persn . "
             "?p snb:id $id }",)
        ) == ["QA101"]

    def test_unknown_predicate(self):
        assert codes(
            ("SELECT ?x WHERE { ?p snb:id $id . ?p snb:nickname ?x }",)
        ) == ["QA102"]

    def test_wrong_typed_literal_object(self):
        # firstName is declared str; 42 is an int literal
        assert codes(
            ('SELECT ?p WHERE { ?p snb:id $id . ?p snb:firstName 42 }',)
        ) == ["QA201"]

    def test_wrong_typed_filter_comparison(self):
        assert codes(
            ('SELECT ?fn WHERE { ?p snb:id $id . '
             '?p snb:firstName ?fn . FILTER(?fn = 42) }',)
        ) == ["QA201"]
