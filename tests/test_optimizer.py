"""Cost-based optimization across the four engines.

Each class designs a worst-case textual order, checks the optimizer
rewrites it (plan shape and/or simulated cost), and — most importantly —
checks the answers never change.
"""

import pytest

from repro.graphdb import GraphDatabase
from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.rdf import RdfDatabase
from repro.relational import Database
from repro.simclock import CostModel, meter
from repro.tinkerpop import Graph

MODEL = CostModel()


def cost_of(run) -> float:
    with meter() as ledger:
        run()
    return ledger.cost_us(MODEL)


# --- SQL -------------------------------------------------------------------------


@pytest.fixture
def sql_db():
    db = Database("row")
    db.execute(
        "CREATE TABLE person (id BIGINT PRIMARY KEY, city TEXT)"
    )
    db.execute("CREATE TABLE knows (p1 BIGINT, p2 BIGINT)")
    db.execute("CREATE INDEX ON knows (p1) USING HASH")
    db.execute("CREATE INDEX ON knows (p2) USING HASH")
    for pid in range(40):
        db.execute(
            "INSERT INTO person VALUES (?, ?)", (pid, f"c{pid % 4}")
        )
        for off in (1, 2, 3):
            db.execute(
                "INSERT INTO knows VALUES (?, ?)",
                (pid, (pid + off) % 40),
            )
    db.analyze()
    return db


REVERSED_2HOP = (
    "SELECT DISTINCT k2.p2 FROM knows k2 "
    "JOIN knows k1 ON k2.p1 = k1.p2 "
    "JOIN person p ON k1.p1 = p.id "
    "WHERE p.id = 7"
)


class TestSqlJoinReordering:
    def test_reversed_from_clause_starts_at_the_point_filter(self, sql_db):
        plan = sql_db.explain(REVERSED_2HOP)
        assert "IndexEqScan(person" in plan
        assert "HashJoin" not in plan

    def test_textual_order_preserved_when_disabled(self, sql_db):
        sql_db.set_join_reordering(False)
        try:
            plan = sql_db.explain(REVERSED_2HOP)
            # textual order drives from the full knows scan
            assert "SeqScan(knows as k2)" in plan
        finally:
            sql_db.set_join_reordering(True)
        assert "SeqScan(knows as k2)" not in sql_db.explain(REVERSED_2HOP)

    def test_answers_identical_either_way(self, sql_db):
        optimized = sql_db.query(REVERSED_2HOP)
        sql_db.set_join_reordering(False)
        try:
            textual = sql_db.query(REVERSED_2HOP)
        finally:
            sql_db.set_join_reordering(True)
        assert sorted(optimized) == sorted(textual)

    def test_reordered_plan_is_cheaper(self, sql_db):
        # interpreted execution: the classic iterator model this cost
        # ratio was calibrated against (vectorization narrows the gap
        # because the bad plan's extra tuples get the cheap batch rate)
        sql_db.options.execution_mode = "interpreted"
        optimized = cost_of(lambda: sql_db.query(REVERSED_2HOP))
        sql_db.set_join_reordering(False)
        try:
            textual = cost_of(lambda: sql_db.query(REVERSED_2HOP))
        finally:
            sql_db.set_join_reordering(True)
        assert textual > 2.0 * optimized

    def test_reordered_plan_is_cheaper_compiled(self, sql_db):
        optimized = cost_of(lambda: sql_db.query(REVERSED_2HOP))
        sql_db.set_join_reordering(False)
        try:
            textual = cost_of(lambda: sql_db.query(REVERSED_2HOP))
        finally:
            sql_db.set_join_reordering(True)
        assert textual > optimized

    def test_explain_estimates_every_node(self, sql_db):
        for sql in (
            REVERSED_2HOP,
            "SELECT id FROM person WHERE city = 'c1'",
            "SELECT count(*) FROM knows",
        ):
            plan = sql_db.explain(sql)
            for line in plan.splitlines():
                assert "[est_rows=" in line, line


# --- SPARQL ----------------------------------------------------------------------


@pytest.fixture
def rdf_db():
    db = RdfDatabase()
    triples = []
    for pid in range(40):
        person = f"sn:pers{pid}"
        triples.append((person, "rdf:type", "snb:Person"))
        triples.append((person, "snb:id", pid))
        for off in (1, 2, 3):
            triples.append(
                (person, "snb:knows", f"sn:pers{(pid + off) % 40}")
            )
    db.insert_triples(triples)
    db.analyze()
    return db


UNBOUND_FIRST = (
    "SELECT DISTINCT ?fofid WHERE { "
    "?f snb:knows ?fof . ?fof snb:id ?fofid . "
    "?p snb:knows ?f . ?p snb:id $id . ?p rdf:type snb:Person } "
    "ORDER BY ?fofid"
)


class TestSparqlPatternOrdering:
    def test_stats_order_beats_textual(self, rdf_db):
        params = {"id": 7}
        optimized = cost_of(lambda: rdf_db.execute(UNBOUND_FIRST, params))
        rdf_db.executor.order_mode = "textual"
        try:
            textual = cost_of(
                lambda: rdf_db.execute(UNBOUND_FIRST, params)
            )
        finally:
            rdf_db.executor.order_mode = "stats"
        assert textual > 2.0 * optimized

    def test_answers_identical_across_modes(self, rdf_db):
        params = {"id": 7}
        results = {}
        for mode in ("stats", "boundness", "textual"):
            rdf_db.executor.order_mode = mode
            results[mode] = rdf_db.execute(UNBOUND_FIRST, params)
        rdf_db.executor.order_mode = "stats"
        assert results["stats"] == results["textual"]
        assert results["stats"] == results["boundness"]


# --- Cypher ----------------------------------------------------------------------


@pytest.fixture
def graph_db():
    db = GraphDatabase()
    for pid in range(40):
        db.execute(
            "CREATE (p:Person {id: $id, name: $name})",
            {"id": pid, "name": f"p{pid}"},
        )
    for pid in range(40):
        for off in (1, 2, 3):
            db.execute(
                "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
                "CREATE (a)-[:KNOWS]->(b)",
                {"a": pid, "b": (pid + off) % 40},
            )
    db.create_index("Person", "id")
    return db


TWO_HOP = (
    "MATCH (fof:Person)<-[:KNOWS]-(f:Person)<-[:KNOWS]-"
    "(p:Person {id: $id}) RETURN DISTINCT fof.id ORDER BY fof.id"
)


class TestCypherAnchorSelection:
    def test_stats_anchor_is_cheaper_than_heuristic(self, graph_db):
        params = {"id": 7}
        baseline = cost_of(lambda: graph_db.execute(TWO_HOP, params))
        graph_db.analyze()
        optimized = cost_of(lambda: graph_db.execute(TWO_HOP, params))
        assert optimized <= baseline

    def test_answers_identical_with_and_without_stats(self, graph_db):
        params = {"id": 7}
        before = graph_db.execute(TWO_HOP, params)
        graph_db.analyze()
        assert graph_db.execute(TWO_HOP, params) == before

    def test_label_scan_uses_the_label_index(self, graph_db):
        ids = list(graph_db.store.nodes_with_label("Person"))
        assert len(ids) == 40
        assert ids == sorted(ids)


# --- TinkerPop -------------------------------------------------------------------


class TestGremlinIndexFold:
    def make_g(self):
        provider = Neo4jProvider()
        provider.store.create_index("person", "name")
        g = Graph(provider).traversal()
        for pid, name in enumerate(["alice", "bob", "carol"]):
            g.addV("person").property("id", pid).property(
                "name", name
            ).iterate()
        return g

    def test_haslabel_has_folds_into_index(self, g=None):
        g = self.make_g()
        t = g.V().hasLabel("person").has("name", "bob")
        step = t.steps[0]
        assert step.index_key == "name"
        assert step.index_value == "bob"
        assert len(t.steps) == 1

    def test_folded_lookup_returns_the_same_rows(self):
        g = self.make_g()
        folded = g.V().hasLabel("person").has("name", "bob").values("id")
        assert folded.toList() == [1]

    def test_no_fold_without_an_index(self):
        provider = Neo4jProvider()
        g = Graph(provider).traversal()
        g.addV("person").property("name", "dana").iterate()
        t = g.V().hasLabel("person").has("name", "dana")
        assert t.steps[0].index_key is None
        assert len(t.steps) == 2
