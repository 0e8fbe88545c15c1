"""Tests for the TinkerPop stack, run against all four providers.

Parameterizing the same traversal tests over Neo4j, Sqlg and both Titan
backends validates the paper's premise: one Gremlin implementation of
the workload executes against any compliant system.
"""

import pytest

from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.simclock import meter
from repro.sqlg import SqlgProvider
from repro.tinkerpop import (
    Graph,
    GremlinServer,
    GremlinServerError,
    P,
    anon,
)
from repro.tinkerpop.traversal import TraversalError
from repro.titan import titan_berkeley, titan_cassandra


def make_neo4j():
    provider = Neo4jProvider()
    provider.store.create_index("person", "id")
    return provider


def make_sqlg():
    provider = SqlgProvider()
    provider.define_vertex_label("person", {"id": int, "name": str, "age": int})
    provider.define_edge_label("knows", {"since": int})
    return provider


def make_titan_c():
    provider = titan_cassandra()
    provider.create_index("person", "id")
    return provider


def make_titan_b():
    provider = titan_berkeley()
    provider.create_index("person", "id")
    return provider


PROVIDERS = {
    "neo4j": make_neo4j,
    "sqlg": make_sqlg,
    "titan-c": make_titan_c,
    "titan-b": make_titan_b,
}


@pytest.fixture(params=sorted(PROVIDERS))
def g(request):
    provider = PROVIDERS[request.param]()
    graph = Graph(provider)
    g = graph.traversal()
    vertex = {}
    for pid, name, age in [
        (1, "alice", 30),
        (2, "bob", 35),
        (3, "carol", 28),
        (4, "dave", 41),
        (5, "erin", 25),
    ]:
        vertex[pid] = (
            g.addV("person")
            .property("id", pid)
            .property("name", name)
            .property("age", age)
            .next()
        )
    for a, b, since in [(1, 2, 2010), (2, 3, 2011), (3, 4, 2012), (1, 5, 2013)]:
        g.V(vertex[a].id).addE("knows").to(vertex[b]).property(
            "since", since
        ).iterate()
    return g


class TestTraversals:
    def test_point_lookup(self, g):
        rows = g.V().has("person", "id", 3).values("name").toList()
        assert rows == ["carol"]

    def test_lookup_missing(self, g):
        assert g.V().has("person", "id", 999).toList() == []

    def test_value_map(self, g):
        maps = g.V().has("person", "id", 1).valueMap().toList()
        assert maps[0]["name"] == "alice"
        assert maps[0]["age"] == 30

    def test_one_hop_both(self, g):
        names = sorted(
            g.V().has("person", "id", 1).both("knows").values("name")
        )
        assert names == ["bob", "erin"]

    def test_one_hop_directed(self, g):
        assert g.V().has("person", "id", 2).out("knows").values("name").toList() == ["carol"]
        assert g.V().has("person", "id", 2).in_("knows").values("name").toList() == ["alice"]

    def test_two_hop_dedup(self, g):
        names = (
            g.V().has("person", "id", 1)
            .both("knows").both("knows")
            .has("id", P.neq(1))
            .dedup().values("name").toList()
        )
        assert sorted(names) == ["carol"]

    def test_edge_properties(self, g):
        since = (
            g.V().has("person", "id", 1)
            .bothE("knows").has("since", P.gt(2012))
            .values("since").toList()
        )
        assert since == [2013]

    def test_other_v(self, g):
        names = sorted(
            g.V().has("person", "id", 1).bothE("knows").otherV().values("name")
        )
        assert names == ["bob", "erin"]

    def test_count(self, g):
        assert g.V().hasLabel("person").count().next() == 5

    def test_order_by(self, g):
        names = (
            g.V().hasLabel("person").order().by("age", descending=True)
            .values("name").limit(2).toList()
        )
        assert names == ["dave", "bob"]

    def test_limit(self, g):
        assert len(g.V().hasLabel("person").limit(3).toList()) == 3

    def test_repeat_times(self, g):
        names = (
            g.V().has("person", "id", 1)
            .repeat(anon().both("knows").simplePath()).times(2)
            .dedup().values("name").toList()
        )
        assert sorted(names) == ["carol"]

    def test_repeat_until_shortest_path(self, g):
        paths = (
            g.V().has("person", "id", 1)
            .repeat(anon().both("knows").simplePath())
            .until(anon().has("id", P.eq(4)))
            .path().limit(1).toList()
        )
        # path: v1 -> v2 -> v3 -> v4 (4 vertices, 3 hops)
        assert len(paths[0]) == 4

    def test_repeat_until_unreachable_is_empty(self, g):
        results = (
            g.V().has("person", "id", 1)
            .repeat(anon().both("knows").simplePath())
            .until(anon().has("id", P.eq(12345)))
            .limit(1).toList()
        )
        assert results == []

    def test_within_predicate(self, g):
        names = sorted(
            g.V().hasLabel("person").has("id", P.within([1, 4])).values("name")
        )
        assert names == ["alice", "dave"]

    def test_property_mutation(self, g):
        g.V().has("person", "id", 5).property("age", 26).iterate()
        assert g.V().has("person", "id", 5).values("age").next() == 26

    def test_anonymous_traversal_cannot_iterate(self, g):
        with pytest.raises(TraversalError):
            anon().both("knows").toList()

    def test_by_requires_order(self, g):
        with pytest.raises(TraversalError):
            g.V().by("age")


class TestGremlinServer:
    def test_submit_executes(self):
        provider = make_neo4j()
        server = GremlinServer(provider)
        g0 = Graph(provider).traversal()
        g0.addV("person").property("id", 1).property("name", "a").iterate()
        results = server.submit(
            lambda g: g.V().has("person", "id", 1).values("name")
        )
        assert results == ["a"]
        assert server.requests_served == 1

    def test_submit_charges_server_overhead(self):
        provider = make_neo4j()
        server = GremlinServer(provider)
        Graph(provider).traversal().addV("person").property(
            "id", 1
        ).iterate()
        with meter() as ledger:
            server.submit(lambda g: g.V().has("person", "id", 1))
        assert ledger.counters["server_rtt"] >= 1
        assert ledger.counters["gremlin_compile"] == 1
        assert ledger.counters["serialize_item"] == 1

    def test_gremlin_overhead_dominates_embedded(self):
        """Server-mediated access costs orders of magnitude more than
        embedded traversal — Figure 2's architecture, Table 2's result."""
        from repro.simclock import CostModel

        provider = make_neo4j()
        Graph(provider).traversal().addV("person").property(
            "id", 1
        ).iterate()
        server = GremlinServer(provider)
        model = CostModel()
        with meter() as embedded:
            Graph(provider).traversal().V().has("person", "id", 1).toList()
        with meter() as served:
            server.submit(lambda g: g.V().has("person", "id", 1))
        assert served.cost_us(model) > 50 * embedded.cost_us(model)

    def test_crash_semantics(self):
        provider = make_neo4j()
        server = GremlinServer(provider)
        server.crash()
        with pytest.raises(GremlinServerError):
            server.submit(lambda g: g.V())
        assert server.requests_failed == 1
        server.restart()
        server.submit(lambda g: g.V())


class TestBackendCharacteristics:
    def test_titan_c_charges_backend_rtt(self):
        provider = make_titan_c()
        g = Graph(provider).traversal()
        with meter() as ledger:
            g.addV("person").property("id", 1).iterate()
        assert ledger.counters["backend_rtt"] >= 1
        assert ledger.counters["lock_rtt"] >= 1  # uniqueness locking

    def test_titan_b_no_rtt_but_serialized_writers(self):
        provider = make_titan_b()
        g = Graph(provider).traversal()
        with meter() as ledger:
            g.addV("person").property("id", 1).iterate()
        assert ledger.counters["backend_rtt"] == 0
        assert ledger.counters["lock_rtt"] == 0
        assert provider.serializes_writers

    def test_sqlg_issues_sql_per_step(self):
        provider = make_sqlg()
        g = Graph(provider).traversal()
        g.addV("person").property("id", 1).property("name", "a").iterate()
        g.addV("person").property("id", 2).property("name", "b").iterate()
        v1 = g.V().has("person", "id", 1).next()
        v2 = g.V().has("person", "id", 2).next()
        g.V(v1.id).addE("knows").to(v2).property("since", 2010).iterate()
        statements_before = provider.db.statements_executed
        names = (
            g.V().has("person", "id", 1).both("knows").values("name").toList()
        )
        assert names == ["b"]
        # lookup + adjacency (out & in) + props: several small statements
        assert provider.db.statements_executed - statements_before >= 3

    @pytest.mark.parametrize("name", sorted(PROVIDERS))
    def test_edge_ids_are_per_graph(self, name):
        """A second graph in one process numbers its edges afresh."""
        edges = []
        for _ in range(2):
            g = Graph(PROVIDERS[name]()).traversal()
            a = g.addV("person").property("id", 1).next()
            b = g.addV("person").property("id", 2).next()
            edges.append(g.V(a.id).addE("knows").to(b).next())
        assert edges[0] == edges[1]

    def test_titan_adjacency_is_range_scan(self):
        provider = make_titan_c()
        g = Graph(provider).traversal()
        for pid in (1, 2, 3):
            g.addV("person").property("id", pid).iterate()
        v1 = g.V().has("person", "id", 1).next()
        for other in (2, 3):
            vo = g.V().has("person", "id", other).next()
            g.V(v1.id).addE("knows").to(vo).iterate()
        assert sorted(
            g.V().has("person", "id", 1).out("knows").values("id")
        ) == [2, 3]
