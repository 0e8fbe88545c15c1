"""Tests for the Gremlin Server's protection mechanisms: step budgets,
evaluation (cost) timeouts, and crash/restart behaviour."""

import pytest

from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.simclock import CostModel, Ledger, metered
from repro.tinkerpop import (
    Graph,
    GremlinServer,
    GremlinServerError,
    anon,
    P,
)
from repro.tinkerpop.traversal import (
    StepBudgetExceeded,
    cost_guard,
    step_budget,
)


def ring_graph(n=40):
    provider = Neo4jProvider()
    provider.store.create_index("v", "id")
    g = Graph(provider).traversal()
    vertices = [
        g.addV("v").property("id", i).next() for i in range(n)
    ]
    for i in range(n):
        g.V(vertices[i].id).addE("e").to(vertices[(i + 1) % n]).iterate()
    return provider


def dense_graph(n=10):
    """Complete graph: simple-path enumeration explodes factorially."""
    provider = Neo4jProvider()
    provider.store.create_index("v", "id")
    g = Graph(provider).traversal()
    vertices = [
        g.addV("v").property("id", i).next() for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            g.V(vertices[i].id).addE("e").to(vertices[j]).iterate()
    return provider


class TestStepBudget:
    def test_budget_aborts_runaway_traversal(self):
        provider = dense_graph()
        g = Graph(provider).traversal()
        with pytest.raises(StepBudgetExceeded):
            with step_budget(500):
                # unreachable target: exhaustive simple-path enumeration
                g.V().has("v", "id", 0).repeat(
                    anon().both("e").simplePath()
                ).until(anon().has("id", P.eq(99999))).toList()

    def test_budget_allows_cheap_traversal(self):
        provider = ring_graph()
        g = Graph(provider).traversal()
        with step_budget(10_000):
            assert g.V().has("v", "id", 3).values("id").toList() == [3]

    def test_budget_scope_ends_with_block(self):
        provider = ring_graph()
        g = Graph(provider).traversal()
        with step_budget(10_000):
            pass
        # outside the block: unlimited again
        assert g.V().hasLabel("v").count().next() == 40


class TestCostGuard:
    def test_guard_aborts_on_simulated_time(self):
        provider = dense_graph()
        g = Graph(provider).traversal()
        ledger = Ledger()
        with pytest.raises(StepBudgetExceeded):
            with metered(ledger), cost_guard(
                ledger, CostModel(), limit_us=10.0, check_every=64
            ):
                g.V().has("v", "id", 0).repeat(
                    anon().both("e").simplePath()
                ).until(anon().has("id", P.eq(99999))).toList()

    def test_guard_allows_within_budget(self):
        provider = ring_graph()
        g = Graph(provider).traversal()
        ledger = Ledger()
        with metered(ledger), cost_guard(
            ledger, CostModel(), limit_us=1e9, check_every=64
        ):
            g.V().has("v", "id", 1).both("e").toList()


class TestServerTimeout:
    def test_request_timeout_raises_server_error(self):
        provider = dense_graph()
        server = GremlinServer(provider, request_timeout_us=50.0)
        with pytest.raises(GremlinServerError, match="timeout"):
            server.submit(
                lambda g: g.V().has("v", "id", 0)
                .repeat(anon().both("e").simplePath())
                .until(anon().has("id", P.eq(99999)))
            )
        assert server.requests_timed_out == 1

    def test_timeout_disabled(self):
        provider = ring_graph(10)
        server = GremlinServer(provider, request_timeout_us=None)
        results = server.submit(lambda g: g.V().hasLabel("v").count())
        assert results == [10]

    def test_server_survives_timeouts(self):
        provider = dense_graph()
        server = GremlinServer(provider, request_timeout_us=50.0)
        with pytest.raises(GremlinServerError):
            server.submit(
                lambda g: g.V().has("v", "id", 0)
                .repeat(anon().both("e").simplePath())
                .until(anon().has("id", P.eq(99999)))
            )
        # a timeout is not a crash: the next cheap request succeeds
        assert not server.crashed
        assert server.submit(
            lambda g: g.V().has("v", "id", 1).values("id")
        ) == [1]
