"""The Gremlin walker: clean built-in catalog, seeded-defect detection."""

from repro.analysis import analyze_gremlin
from repro.core.connectors.gremlin import GREMLIN_TRAVERSALS
from repro.tinkerpop import P


def codes(builder, sample=None, operation="test"):
    entries = ((builder, sample or {}),)
    return [
        d.code for d in analyze_gremlin(operation, entries).diagnostics
    ]


class TestBuiltinCatalog:
    def test_every_operation_is_clean(self):
        for operation, entries in GREMLIN_TRAVERSALS.items():
            result = analyze_gremlin(operation, entries)
            assert result.diagnostics == [], (
                operation,
                [str(d) for d in result.diagnostics],
            )

    def test_point_lookup_footprint(self):
        result = analyze_gremlin(
            "point_lookup", GREMLIN_TRAVERSALS["point_lookup"]
        )
        assert result.footprint == {"person"}

    def test_message_forum_footprint(self):
        result = analyze_gremlin(
            "message_forum", GREMLIN_TRAVERSALS["message_forum"]
        )
        assert {"post", "comment", "forum", "containerOf"} <= (
            result.footprint
        )


class TestMutations:
    def test_unknown_vertex_label(self):
        assert codes(
            lambda g: g.V().has("persn", "id", 0).valueMap()
        ) == ["QA101"]

    def test_unknown_edge_label(self):
        assert codes(
            lambda g: g.V().has("person", "id", 0).both("knowz")
        ) == ["QA102"]

    def test_unknown_property(self):
        assert codes(
            lambda g: g.V().has("person", "id", 0).values("nickname")
        ) == ["QA103"]

    def test_wrong_typed_predicate(self):
        assert codes(
            lambda g: g.V().has("person", "id", 0)
            .has("firstName", P.eq(42))
        ) == ["QA201"]
