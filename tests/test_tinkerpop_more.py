"""Additional traversal-engine coverage: edge steps, paths, predicates."""

import pytest

from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.tinkerpop import Graph, P, anon
from repro.tinkerpop.structure import Edge, Vertex
from repro.tinkerpop.traversal import TraversalError


@pytest.fixture()
def g():
    provider = Neo4jProvider()
    provider.store.create_index("airport", "code")
    g = Graph(provider).traversal()
    airports = {}
    for code, country in [
        ("YYZ", "ca"), ("FRA", "de"), ("NRT", "jp"), ("YVR", "ca"),
    ]:
        airports[code] = (
            g.addV("airport").property("code", code)
            .property("country", country).next()
        )
    for a, b, km in [
        ("YYZ", "FRA", 6300), ("FRA", "NRT", 9300), ("YYZ", "YVR", 3300),
        ("YVR", "NRT", 7500),
    ]:
        g.V(airports[a].id).addE("route").to(airports[b]).property(
            "km", km
        ).iterate()
    return g


class TestEdgeSteps:
    def test_outE_inV(self, g):
        codes = sorted(
            g.V().has("airport", "code", "YYZ").outE("route").inV()
            .values("code")
        )
        assert codes == ["FRA", "YVR"]

    def test_inE_outV(self, g):
        codes = g.V().has("airport", "code", "NRT").inE("route").outV().values(
            "code"
        ).toList()
        assert sorted(codes) == ["FRA", "YVR"]

    def test_edge_value_filtering(self, g):
        kms = (
            g.V().has("airport", "code", "YYZ").outE("route")
            .has("km", P.gt(5000)).values("km").toList()
        )
        assert kms == [6300]

    def test_other_v_from_both(self, g):
        codes = sorted(
            g.V().has("airport", "code", "FRA").bothE("route").otherV()
            .values("code")
        )
        assert codes == ["NRT", "YYZ"]

    def test_edge_value_map(self, g):
        maps = (
            g.V().has("airport", "code", "FRA").outE("route").valueMap()
            .toList()
        )
        assert maps == [{"km": 9300}]


class TestPathsAndPredicates:
    def test_path_contains_elements(self, g):
        paths = (
            g.V().has("airport", "code", "YYZ").outE("route").inV()
            .path().toList()
        )
        for path in paths:
            assert isinstance(path[0], Vertex)
            assert isinstance(path[1], Edge)
            assert isinstance(path[2], Vertex)

    def test_within_on_strings(self, g):
        codes = sorted(
            g.V().hasLabel("airport")
            .has("country", P.within(["ca"])).values("code")
        )
        assert codes == ["YVR", "YYZ"]

    def test_lte_gte(self, g):
        assert g.V().hasLabel("airport").bothE("route").has(
            "km", P.lte(3300)
        ).dedup().count().next() == 1
        assert g.V().hasLabel("airport").bothE("route").has(
            "km", P.gte(9300)
        ).dedup().count().next() == 1

    def test_repeat_emit(self, g):
        codes = (
            g.V().has("airport", "code", "YYZ")
            .repeat(anon().out("route").simplePath()).emit().times(2)
            .values("code").toList()
        )
        # emits intermediate and final hops
        assert set(codes) == {"FRA", "YVR", "NRT"}

    def test_values_skips_missing_keys(self, g):
        g.addV("airport").property("code", "XXX").next()  # no country
        countries = g.V().hasLabel("airport").values("country").toList()
        assert len(countries) == 4  # XXX contributes nothing

    def test_filter_helper(self, g):
        big = (
            g.V().hasLabel("airport").values("code")
            .filter_(lambda code: code.startswith("Y")).toList()
        )
        assert sorted(big) == ["YVR", "YYZ"]


class TestErrors:
    def test_values_on_scalar_rejected(self, g):
        with pytest.raises(TraversalError):
            g.V().hasLabel("airport").values("code").values("code").toList()

    def test_out_on_edge_rejected(self, g):
        with pytest.raises(TraversalError):
            g.V().hasLabel("airport").outE("route").out("route").toList()

    def test_next_on_empty(self, g):
        with pytest.raises(TraversalError):
            g.V().has("airport", "code", "ZZZ").next()

    def test_repeat_without_terminator(self, g):
        with pytest.raises(TraversalError):
            g.V().hasLabel("airport").repeat(anon().out("route")).toList()

    def test_to_without_addE(self, g):
        vertex = g.V().has("airport", "code", "YYZ").next()
        with pytest.raises(TraversalError):
            g.V().to(vertex)
