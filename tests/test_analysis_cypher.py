"""The Cypher walker: clean built-in catalog, seeded-defect detection."""

import pytest

from repro.analysis import analyze_cypher
from repro.core.connectors.cypher import CYPHER_QUERIES


def codes(queries, operation="test"):
    return [d.code for d in analyze_cypher(operation, queries).diagnostics]


class TestBuiltinCatalog:
    def test_every_operation_is_clean(self):
        for operation, queries in CYPHER_QUERIES.items():
            result = analyze_cypher(operation, queries)
            assert result.diagnostics == [], (
                operation,
                [str(d) for d in result.diagnostics],
            )

    def test_point_lookup_footprint(self):
        result = analyze_cypher(
            "point_lookup", CYPHER_QUERIES["point_lookup"]
        )
        assert result.footprint == {"person"}

    def test_one_hop_footprint(self):
        result = analyze_cypher("one_hop", CYPHER_QUERIES["one_hop"])
        assert result.footprint == {"person", "knows"}


class TestMutations:
    def test_misspelled_label(self):
        assert codes(
            ("MATCH (p:Persn {id: $id}) RETURN p.id",)
        ) == ["QA101"]

    def test_unknown_relationship_type(self):
        assert "QA102" in codes(
            ("MATCH (p:Person {id: $id})-[:KNOWZ]-(f:Person) "
             "RETURN f.id",)
        )

    def test_unknown_property(self):
        assert codes(
            ("MATCH (p:Person {id: $id}) RETURN p.nickname",)
        ) == ["QA103"]

    def test_parse_error(self):
        assert codes(("MATCH (p:Person RETURN",)) == ["QA105"]

    @pytest.mark.parametrize(
        "text",
        [
            "MATCH (p:Person {id: $id}) RETURN p ~",  # unexpected character
            "MATCH (p:Person {firstName: 'abc}) RETURN p.id",  # unterminated
        ],
    )
    def test_lex_error_is_a_parse_error(self, text):
        assert codes((text,)) == ["QA105"]

    def test_unbound_variable(self):
        assert codes(
            ("MATCH (p:Person {id: $id}) RETURN q.id",)
        ) == ["QA107"]

    def test_wrong_typed_predicate(self):
        assert codes(
            ("MATCH (p:Person) WHERE p.firstName = 42 RETURN p.id",)
        ) == ["QA201"]

    def test_wrong_typed_property_map(self):
        assert codes(
            ("MATCH (p:Person {firstName: 42}) RETURN p.id",)
        ) == ["QA201"]

    def test_swapped_edge_type(self):
        # CONTAINER_OF runs forum -> post; it cannot join two persons
        assert codes(
            ("MATCH (p:Person {id: $id})-[:CONTAINER_OF]->(f:Forum) "
             "RETURN f.id",)
        ) == ["QA202"]

    def test_cartesian_product(self):
        assert codes(
            ("MATCH (a:Person {id: $a}), (b:Person) RETURN a.id, b.id",)
        ) == ["QA301"]

    def test_anchored_disconnected_patterns_are_fine(self):
        assert codes(
            ("MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
             "RETURN a.id, b.id",)
        ) == []

    def test_non_sargable_filter(self):
        assert codes(
            ("MATCH (p:Person) WHERE length(p.firstName) = 5 "
             "RETURN p.id",)
        ) == ["QA302"]
