"""Property-based shortest-path validation against networkx.

Every engine implements shortest path differently — recursive CTE
(Postgres), engine-internal frontier BFS (Virtuoso), bidirectional
record-chasing BFS (Neo4j), simple-path enumeration (Gremlin), iterative
frontier queries (SPARQL).  All of them must agree with networkx on
random graphs.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import GraphDatabase
from repro.relational import Database

# -- strategies ----------------------------------------------------------------


@st.composite
def undirected_graphs(draw):
    n = draw(st.integers(4, 14))
    density = draw(st.floats(0.1, 0.5))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    edges = {
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    }
    return n, sorted(edges)


def _expected(n, edges, a, b):
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    try:
        return nx.shortest_path_length(graph, a, b)
    except nx.NetworkXNoPath:
        return None


# -- engines under test ----------------------------------------------------------


def _postgres_sp(n, edges, a, b):
    db = Database("row")
    db.execute("CREATE TABLE knows (p1 BIGINT, p2 BIGINT)")
    db.execute("CREATE INDEX ON knows (p1) USING HASH")
    for x, y in edges:
        db.execute("INSERT INTO knows VALUES (?, ?)", (x, y))
        db.execute("INSERT INTO knows VALUES (?, ?)", (y, x))
    if a == b:
        return 0
    rows = db.query(
        "WITH RECURSIVE bfs (node, depth) AS ("
        "  SELECT k.p2, 1 FROM knows k WHERE k.p1 = ?"
        "  UNION"
        "  SELECT k.p2, b.depth + 1 FROM bfs b"
        "    JOIN knows k ON k.p1 = b.node WHERE b.depth < 20"
        ") SELECT MIN(depth) FROM bfs WHERE node = ?",
        (a, b),
    )
    return rows[0][0] if rows else None


def _virtuoso_sp(n, edges, a, b):
    db = Database("column", transitive_support=True)
    db.execute("CREATE TABLE knows (p1 BIGINT, p2 BIGINT)")
    db.execute("CREATE INDEX ON knows (p1) USING HASH")
    db.execute("CREATE INDEX ON knows (p2) USING HASH")
    for x, y in edges:
        db.execute("INSERT INTO knows VALUES (?, ?)", (x, y))
        db.execute("INSERT INTO knows VALUES (?, ?)", (y, x))
    rows = db.query(
        "SELECT shortest_path_len('knows', 'p1', 'p2', ?, ?)", (a, b)
    )
    return rows[0][0]


def _neo4j_sp(n, edges, a, b):
    db = GraphDatabase()
    db.create_index("V", "id")
    for v in range(n):
        db.execute("CREATE (x:V {id: $id})", {"id": v})
    for x, y in edges:
        db.execute(
            "MATCH (p:V {id: $a}), (q:V {id: $b}) CREATE (p)-[:E]->(q)",
            {"a": x, "b": y},
        )
    rows = db.execute(
        "MATCH p = shortestPath((x:V {id: $a})-[:E*]-(y:V {id: $b})) "
        "RETURN length(p)",
        {"a": a, "b": b},
    )
    return rows[0][0] if rows else None


def _gremlin_sp(n, edges, a, b):
    from repro.graphdb.tinkerpop_adapter import Neo4jProvider
    from repro.tinkerpop import Graph, P, anon

    provider = Neo4jProvider()
    provider.store.create_index("V", "id")
    g = Graph(provider).traversal()
    vertex = {
        v: g.addV("V").property("id", v).next() for v in range(n)
    }
    for x, y in edges:
        g.V(vertex[x].id).addE("E").to(vertex[y]).iterate()
    if a == b:
        return 0
    paths = (
        g.V().has("V", "id", a)
        .repeat(anon().both("E").simplePath())
        .until(anon().has("id", P.eq(b)))
        .path().limit(1).toList()
    )
    return len(paths[0]) - 1 if paths else None


ENGINES = {
    "postgres-recursive-cte": _postgres_sp,
    "virtuoso-transitive": _virtuoso_sp,
    "neo4j-shortestpath": _neo4j_sp,
    "gremlin-repeat-until": _gremlin_sp,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=20, deadline=None)
@given(data=undirected_graphs(), endpoints=st.tuples(st.integers(0, 13), st.integers(0, 13)))
def test_shortest_path_matches_networkx(engine, data, endpoints):
    n, edges = data
    a, b = endpoints[0] % n, endpoints[1] % n
    expected = _expected(n, edges, a, b)
    got = ENGINES[engine](n, edges, a, b)
    assert got == expected, (
        f"{engine}: sp({a},{b}) = {got}, networkx says {expected}; "
        f"edges={edges}"
    )


@settings(max_examples=15, deadline=None)
@given(data=undirected_graphs(), source=st.integers(0, 13))
def test_two_hop_matches_networkx(data, source):
    """The SQL 2-hop join semantics equal the graph 2-walk semantics."""
    n, edges = data
    a = source % n
    db = Database("row")
    db.execute("CREATE TABLE knows (p1 BIGINT, p2 BIGINT)")
    db.execute("CREATE INDEX ON knows (p1) USING HASH")
    for x, y in edges:
        db.execute("INSERT INTO knows VALUES (?, ?)", (x, y))
        db.execute("INSERT INTO knows VALUES (?, ?)", (y, x))
    rows = db.query(
        "SELECT DISTINCT k2.p2 FROM knows k1 "
        "JOIN knows k2 ON k2.p1 = k1.p2 "
        "WHERE k1.p1 = ? AND k2.p2 <> ? ORDER BY k2.p2",
        (a, a),
    )
    got = [r[0] for r in rows]

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    expected = set()
    for f in graph.neighbors(a):
        for ff in graph.neighbors(f):
            if ff != a:
                expected.add(ff)
    assert got == sorted(expected)
