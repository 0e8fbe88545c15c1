"""Pin what each execution-mode envelope charges.

The interpreted and compiled paths share their operator definitions;
what differs is the envelope around them: ``step_eval`` per traverser
vs ``vector_setup`` + ``tuple_vec`` per batch (Gremlin), ``cypher_row``
per row vs one dispatch per 1024-row chunk (Cypher RETURN),
``tuple_cpu`` per candidate vs per-batch dispatch (SQL joins, SPARQL
triple joins).  These tests pin the *full* ledger of fixed queries over
fixed small databases in both modes, cold and warm, so a pricing slip
shows here and not only in the trajectory benchmark.
"""

import pytest

from repro.graphdb import GraphDatabase
from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.options import EngineOptions
from repro.rdf import RdfDatabase
from repro.relational import Database
from repro.simclock import meter
from repro.tinkerpop import Graph, GremlinServer, P


def social_provider():
    """12 people on a ring with chords; ages cycle through 20..34."""
    provider = Neo4jProvider()
    provider.store.create_index("person", "id")
    g = Graph(provider).traversal()
    people = [
        g.addV("person").property("id", i).property("name", f"p{i}")
        .property("age", 20 + (i * 7) % 15).next()
        for i in range(12)
    ]
    for i in range(12):
        for step in (1, 2, 5):
            g.V(people[i].id).addE("knows").to(
                people[(i + step) % 12]
            ).iterate()
    return provider


CHAINS = {
    # source -> expansion -> expansion -> fused filter -> dedup -> values
    "filter-dedup-values": lambda g: g.V().has("person", "id", 0)
    .both("knows").both("knows").has("age", P.gt(24)).dedup()
    .values("name"),
    "order-limit": lambda g: g.V().hasLabel("person").out("knows")
    .order().by("age", True).limit(5).values("name"),
}

GREMLIN_ROWS = {
    "filter-dedup-values": ["p4", "p1", "p10", "p6", "p3", "p8", "p5", "p2"],
    "order-limit": ["p2", "p2", "p2", "p4", "p4"],
}

GREMLIN_WARM = {
    ("interpreted", "filter-dedup-values"): {
        "gremlin_compile": 1, "hash_probe": 1, "record_read": 86,
        "serialize_item": 8, "server_rtt": 1, "step_eval": 74, "ts_alloc": 1,
        "value_cpu": 132,
    },
    ("interpreted", "order-limit"): {
        "gremlin_compile": 1, "index_probe": 1, "record_read": 125,
        "serialize_item": 5, "server_rtt": 1, "step_eval": 24, "ts_alloc": 1,
        "value_cpu": 123,
    },
    ("compiled", "filter-dedup-values"): {
        "compiled_exec": 1, "hash_probe": 1, "record_read": 62,
        "server_rtt": 1, "ts_alloc": 1, "tuple_vec": 81, "value_cpu": 68,
        "vector_setup": 4,
    },
    ("compiled", "order-limit"): {
        "compiled_exec": 1, "index_probe": 1, "record_read": 125,
        "server_rtt": 1, "ts_alloc": 1, "tuple_vec": 94, "value_cpu": 128,
        "vector_setup": 4,
    },
}

#: what a first submit pays on top of a warm one
GREMLIN_COLD_EXTRA = {
    "interpreted": {},
    "compiled": {"gremlin_compile": 1, "closure_compile": 1},
}


@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_gremlin_ledger_is_pinned(mode, chain):
    server = GremlinServer(
        social_provider(), options=EngineOptions(execution_mode=mode)
    )
    warm = GREMLIN_WARM[mode, chain]
    cold = dict(warm)
    for name, units in GREMLIN_COLD_EXTRA[mode].items():
        cold[name] = cold.get(name, 0) + units
    for expected in (cold, warm):
        with meter() as ledger:
            rows = server.submit(CHAINS[chain], cache_key=chain)
        assert rows == GREMLIN_ROWS[chain]
        assert ledger.snapshot() == expected


def test_compiled_submit_compiles_once_per_request(monkeypatch):
    """The verdict compile's closure is the one the request runs."""
    import repro.exec.gremlinc as gremlinc

    calls = []
    real = gremlinc.compile_traversal

    def counting(traversal):
        calls.append(traversal)
        return real(traversal)

    monkeypatch.setattr(gremlinc, "compile_traversal", counting)
    server = GremlinServer(
        social_provider(), options=EngineOptions(execution_mode="compiled")
    )
    chain = "filter-dedup-values"
    for submits in (1, 2):  # cold, then warm
        assert server.submit(CHAINS[chain], cache_key=chain) == (
            GREMLIN_ROWS[chain]
        )
        assert len(calls) == submits


def clique_db(mode):
    """36 people, every ordered pair KNOWS: 1,260 rows (> one chunk)."""
    db = GraphDatabase(options=EngineOptions(execution_mode=mode))
    db.create_index("Person", "id")
    for i in range(36):
        db.execute(
            "CREATE (p:Person {id: $id, age: $age})",
            {"id": i, "age": 20 + i % 7},
        )
    ids = list(db.store.nodes_with_label("Person"))
    for a in ids:
        for b in ids:
            if a != b:
                db.store.create_rel("KNOWS", a, b, {})
    return db


STATEMENTS = {
    "return-order-limit": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) "
        "RETURN a.id AS a, b.id AS b ORDER BY b DESC, a LIMIT 5"
    ),
    "grouped-aggregate": (
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.age > 22 "
        "RETURN a.age AS age, count(*) AS n, max(b.id) AS top "
        "ORDER BY n DESC, age LIMIT 3"
    ),
}

CYPHER_ROWS = {
    "return-order-limit": [(0, 35), (1, 35), (2, 35), (3, 35), (4, 35)],
    "grouped-aggregate": [(20, 120, 34), (21, 100, 34), (22, 100, 34)],
}

CYPHER_WARM = {
    ("interpreted", "return-order-limit"): {
        "cypher_exec": 1, "cypher_row": 2520, "index_probe": 1,
        "record_read": 6372, "ts_alloc": 1, "value_cpu": 2520,
    },
    ("interpreted", "grouped-aggregate"): {
        "cypher_exec": 1, "cypher_row": 1400, "index_probe": 1,
        "record_read": 6512, "ts_alloc": 1, "value_cpu": 2660,
    },
    # 1,260 RETURN rows = 2 chunks of <= 1024: 2 vector_setup there
    ("compiled", "return-order-limit"): {
        "compiled_exec": 1, "index_probe": 1, "record_read": 5112,
        "ts_alloc": 1, "tuple_vec": 2556, "value_cpu": 2520,
        "vector_setup": 4,
    },
    ("compiled", "grouped-aggregate"): {
        "compiled_exec": 1, "index_probe": 1, "record_read": 5252,
        "ts_alloc": 1, "tuple_vec": 2696, "value_cpu": 2660,
        "vector_setup": 4,
    },
}

CYPHER_COLD_EXTRA = {
    "interpreted": {"cypher_parse": 1, "cypher_plan": 1},
    "compiled": {"cypher_parse": 1, "cypher_plan": 1, "closure_compile": 1},
}


@pytest.fixture(scope="module", params=["interpreted", "compiled"])
def clique(request):
    return request.param, clique_db(request.param)


@pytest.mark.parametrize("statement", sorted(STATEMENTS))
def test_cypher_ledger_is_pinned(clique, statement):
    mode, db = clique
    warm = CYPHER_WARM[mode, statement]
    cold = {**warm, **CYPHER_COLD_EXTRA[mode]}
    for expected in (cold, warm):
        with meter() as ledger:
            rows = db.execute(STATEMENTS[statement])
        assert rows == CYPHER_ROWS[statement]
        assert ledger.snapshot() == expected


@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_return_over_zero_rows_charges_no_row_work(mode):
    db = GraphDatabase(options=EngineOptions(execution_mode=mode))
    db.execute("CREATE (p:Person {id: 1})")
    with meter() as ledger:
        assert db.execute("MATCH (p:Person {id: 2}) RETURN p.id") == []
        assert db.execute(
            "MATCH (p:Person {id: 2}) RETURN count(*)"
        ) == [(0,)]
    charged = ledger.snapshot()
    assert "cypher_row" not in charged
    assert "tuple_vec" not in charged


@pytest.mark.parametrize(
    "key",
    [
        "neo4j-cypher", "neo4j-gremlin", "postgres-sql", "virtuoso-sql",
        "virtuoso-sparql",
    ],
)
def test_interpreted_reads_never_enter_repro_exec(key):
    """Nothing the interpreted path runs may live under repro/exec/
    (the trajectory smoke asserts the same over whole workloads)."""
    import sys

    from repro.core import make_connector
    from repro.core.benchmark import WorkloadParams
    from repro.snb import GeneratorConfig, generate

    dataset = generate(
        GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=13)
    )
    connector = make_connector(
        key, options=EngineOptions(execution_mode="interpreted")
    )
    connector.load(dataset)
    params = WorkloadParams.curate(dataset, count=2, seed=3)
    exec_frames = set()

    def profile(frame, event, arg):
        filename = frame.f_code.co_filename
        if event == "call" and "/repro/exec/" in filename:
            exec_frames.add((filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        for pid in params.person_ids:
            for op in (
                "point_lookup", "one_hop", "two_hop", "person_profile",
                "person_friends",
            ):
                getattr(connector, op)(pid)
            for op in (
                "person_recent_posts", "complex_two_hop",
                "friends_recent_posts",
            ):
                getattr(connector, op)(pid, 10)
        for pair in params.path_pairs:
            connector.shortest_path(*pair)
        for mid in params.message_ids:
            for op in (
                "message_content", "message_creator", "message_forum",
                "message_replies",
            ):
                getattr(connector, op)(mid)
    finally:
        sys.setprofile(None)
    assert not exec_frames


def relational_db(storage, mode):
    """t(id, parent, v) with an index on parent, u(id, tid, v): 12 rows
    each; every t row with parent p is a child of t row p."""
    db = Database(storage, options=EngineOptions(execution_mode=mode))
    db.execute(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, parent BIGINT, v INT)"
    )
    db.execute("CREATE INDEX ON t (parent)")
    db.execute("CREATE TABLE u (id BIGINT PRIMARY KEY, tid BIGINT, v INT)")
    for i in range(12):
        db.execute("INSERT INTO t VALUES (?, ?, ?)", (i, i // 3, i % 5))
        db.execute(
            "INSERT INTO u VALUES (?, ?, ?)", (i, (i * 5) % 7, i % 4)
        )
    return db


SQL_STATEMENTS = {
    "index-join-left": (
        "SELECT a.id, b.id FROM t a LEFT JOIN t b "
        "ON b.parent = a.id AND b.v > 3 ORDER BY a.id, b.id"
    ),
    "index-join-limit": (
        "SELECT a.id, b.id FROM t a JOIN t b ON b.parent = a.id LIMIT 2"
    ),
    "hash-join": (
        "SELECT a.id, b.id FROM t a JOIN u b ON b.tid = a.v "
        "ORDER BY a.id, b.id"
    ),
    "hash-join-left": (
        "SELECT a.id, b.id FROM t a LEFT JOIN u b "
        "ON b.tid = a.v AND b.v > 1 ORDER BY a.id, b.id"
    ),
    "nl-join": (
        "SELECT a.id, b.id FROM t a JOIN t b ON b.id < a.id "
        "WHERE a.id < 4 ORDER BY a.id, b.id"
    ),
    "nl-join-left": (
        "SELECT a.id, b.id FROM t a LEFT JOIN t b ON b.id < a.id "
        "WHERE a.id < 4 ORDER BY a.id, b.id"
    ),
    "group-by": "SELECT v, count(*), max(id) FROM t GROUP BY v ORDER BY v",
    "group-by-empty": (
        "SELECT v, count(*) FROM t WHERE id > 1000 GROUP BY v"
    ),
    "global-aggregate-empty": (
        "SELECT count(*), max(v) FROM t WHERE id > 1000"
    ),
    "distinct-desc-limit": "SELECT DISTINCT v FROM t ORDER BY v DESC LIMIT 2",
    "limit-zero": "SELECT id FROM t LIMIT 0",
    "recursive-reach": (
        "WITH RECURSIVE r (x) AS (SELECT id FROM t WHERE id = 1 "
        "UNION SELECT c.id FROM r JOIN t c ON c.parent = r.x) "
        "SELECT x FROM r ORDER BY x"
    ),
    "param-lookup": "SELECT v FROM t WHERE id = ?",
}

SQL_PARAMS = {"param-lookup": (7,)}

SQL_ROWS = {
    "distinct-desc-limit": [(4,), (3,)],
    "global-aggregate-empty": [(0, None)],
    "group-by": [(0, 3, 10), (1, 3, 11), (2, 2, 7), (3, 2, 8), (4, 2, 9)],
    "group-by-empty": [],
    "hash-join": [
        (0, 0), (0, 7), (1, 3), (1, 10), (2, 6), (3, 2), (3, 9), (4, 5),
        (5, 0), (5, 7), (6, 3), (6, 10), (7, 6), (8, 2), (8, 9), (9, 5),
        (10, 0), (10, 7), (11, 3), (11, 10),
    ],
    "hash-join-left": [
        (0, 7), (1, 3), (1, 10), (2, 6), (3, 2), (4, None), (5, 7), (6, 3),
        (6, 10), (7, 6), (8, 2), (9, None), (10, 7), (11, 3), (11, 10),
    ],
    "index-join-left": [
        (0, None), (1, 4), (2, None), (3, 9), (4, None), (5, None), (6, None),
        (7, None), (8, None), (9, None), (10, None), (11, None),
    ],
    "index-join-limit": [(0, 0), (0, 1)],
    "limit-zero": [],
    "nl-join": [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
    "nl-join-left": [
        (0, None), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
    ],
    "param-lookup": [(2,)],
    "recursive-reach": [(1,), (3,), (4,), (5,), (9,), (10,), (11,)],
}

SQL_WARM = {
    ("column", "compiled", "distinct-desc-limit"): {
        "column_seek": 3, "column_value": 36, "compiled_exec": 1,
        "hash_probe": 12, "sql_exec": 1, "sql_row": 2, "ts_alloc": 1,
        "tuple_vec": 36, "vector_setup": 4,
    },
    ("column", "compiled", "global-aggregate-empty"): {
        "column_seek": 3, "column_value": 36, "compiled_exec": 1,
        "sql_exec": 1, "sql_row": 1, "ts_alloc": 1, "tuple_vec": 25,
        "vector_setup": 3,
    },
    ("column", "compiled", "group-by"): {
        "column_seek": 3, "column_value": 36, "compiled_exec": 1,
        "sql_exec": 1, "sql_row": 5, "ts_alloc": 1, "tuple_vec": 34,
        "vector_setup": 4,
    },
    ("column", "compiled", "group-by-empty"): {
        "column_seek": 3, "column_value": 36, "compiled_exec": 1,
        "sql_exec": 1, "sql_row": 0, "ts_alloc": 1, "tuple_vec": 24,
        "vector_setup": 2,
    },
    ("column", "compiled", "hash-join"): {
        "column_seek": 6, "column_value": 72, "compiled_exec": 1,
        "hash_probe": 12, "sql_exec": 1, "sql_row": 20, "ts_alloc": 1,
        "tuple_vec": 108, "vector_setup": 6,
    },
    ("column", "compiled", "hash-join-left"): {
        "column_seek": 6, "column_value": 72, "compiled_exec": 1,
        "hash_probe": 12, "sql_exec": 1, "sql_row": 15, "ts_alloc": 1,
        "tuple_vec": 93, "vector_setup": 6,
    },
    ("column", "compiled", "index-join-left"): {
        "column_seek": 6, "column_value": 72, "compiled_exec": 1,
        "index_node": 12, "index_probe": 12, "sql_exec": 1, "sql_row": 12,
        "ts_alloc": 1, "tuple_vec": 60, "vector_setup": 5,
    },
    ("column", "compiled", "index-join-limit"): {
        "column_seek": 5, "column_value": 60, "compiled_exec": 1,
        "index_node": 12, "index_probe": 12, "sql_exec": 1, "sql_row": 2,
        "ts_alloc": 1, "tuple_vec": 48, "vector_setup": 4,
    },
    ("column", "compiled", "limit-zero"): {
        "compiled_exec": 1, "sql_exec": 1, "sql_row": 0, "ts_alloc": 1,
    },
    ("column", "compiled", "nl-join"): {
        "column_seek": 6, "column_value": 72, "compiled_exec": 1,
        "sql_exec": 1, "sql_row": 6, "ts_alloc": 1, "tuple_vec": 100,
        "vector_setup": 6,
    },
    ("column", "compiled", "nl-join-left"): {
        "column_seek": 6, "column_value": 72, "compiled_exec": 1,
        "sql_exec": 1, "sql_row": 7, "ts_alloc": 1, "tuple_vec": 102,
        "vector_setup": 6,
    },
    ("column", "compiled", "param-lookup"): {
        "column_seek": 2, "column_value": 2, "compiled_exec": 1,
        "hash_probe": 1, "sql_exec": 1, "sql_row": 1, "ts_alloc": 1,
        "tuple_vec": 2, "vector_setup": 3,
    },
    ("column", "compiled", "recursive-reach"): {
        "column_seek": 5, "column_value": 13, "compiled_exec": 1,
        "hash_probe": 1, "index_node": 7, "index_probe": 7, "sql_exec": 1,
        "sql_row": 7, "ts_alloc": 1, "tuple_vec": 49, "vector_setup": 16,
    },
    ("column", "interpreted", "distinct-desc-limit"): {
        "column_seek": 3, "column_value": 36, "hash_probe": 3, "sql_exec": 1,
        "sql_row": 2, "ts_alloc": 1, "tuple_cpu": 27,
    },
    ("column", "interpreted", "global-aggregate-empty"): {
        "column_seek": 3, "column_value": 36, "sql_exec": 1, "sql_row": 1,
        "ts_alloc": 1, "tuple_cpu": 25,
    },
    ("column", "interpreted", "group-by"): {
        "column_seek": 3, "column_value": 36, "sql_exec": 1, "sql_row": 5,
        "ts_alloc": 1, "tuple_cpu": 34,
    },
    ("column", "interpreted", "group-by-empty"): {
        "column_seek": 3, "column_value": 36, "sql_exec": 1, "sql_row": 0,
        "ts_alloc": 1, "tuple_cpu": 24,
    },
    ("column", "interpreted", "hash-join"): {
        "column_seek": 6, "column_value": 72, "hash_probe": 12, "sql_exec": 1,
        "sql_row": 20, "ts_alloc": 1, "tuple_cpu": 96,
    },
    ("column", "interpreted", "hash-join-left"): {
        "column_seek": 6, "column_value": 72, "hash_probe": 12, "sql_exec": 1,
        "sql_row": 15, "ts_alloc": 1, "tuple_cpu": 86,
    },
    ("column", "interpreted", "index-join-left"): {
        "column_seek": 6, "column_value": 72, "index_node": 12,
        "index_probe": 12, "sql_exec": 1, "sql_row": 12, "ts_alloc": 1,
        "tuple_cpu": 36, "tuple_vec": 12, "vector_setup": 1,
    },
    ("column", "interpreted", "index-join-limit"): {
        "column_seek": 5, "column_value": 60, "index_node": 12,
        "index_probe": 12, "sql_exec": 1, "sql_row": 2, "ts_alloc": 1,
        "tuple_cpu": 14, "tuple_vec": 12, "vector_setup": 1,
    },
    ("column", "interpreted", "limit-zero"): {
        "sql_exec": 1, "sql_row": 0, "ts_alloc": 1,
    },
    ("column", "interpreted", "nl-join"): {
        "column_seek": 6, "column_value": 72, "sql_exec": 1, "sql_row": 6,
        "ts_alloc": 1, "tuple_cpu": 96,
    },
    ("column", "interpreted", "nl-join-left"): {
        "column_seek": 6, "column_value": 72, "sql_exec": 1, "sql_row": 7,
        "ts_alloc": 1, "tuple_cpu": 98,
    },
    ("column", "interpreted", "param-lookup"): {
        "column_seek": 2, "column_value": 2, "hash_probe": 1, "sql_exec": 1,
        "sql_row": 1, "ts_alloc": 1, "tuple_cpu": 2, "vector_setup": 1,
    },
    ("column", "interpreted", "recursive-reach"): {
        "column_seek": 5, "column_value": 13, "hash_probe": 1, "index_node": 7,
        "index_probe": 7, "sql_exec": 1, "sql_row": 7, "ts_alloc": 1,
        "tuple_cpu": 36, "tuple_vec": 6, "vector_setup": 3,
    },
    ("row", "compiled", "distinct-desc-limit"): {
        "buffer_hit": 1, "compiled_exec": 1, "hash_probe": 12, "sql_exec": 1,
        "sql_row": 2, "ts_alloc": 1, "tuple_cpu": 12, "tuple_vec": 36,
        "value_cpu": 36, "vector_setup": 4,
    },
    ("row", "compiled", "global-aggregate-empty"): {
        "buffer_hit": 1, "compiled_exec": 1, "sql_exec": 1, "sql_row": 1,
        "ts_alloc": 1, "tuple_cpu": 12, "tuple_vec": 25, "value_cpu": 36,
        "vector_setup": 3,
    },
    ("row", "compiled", "group-by"): {
        "buffer_hit": 1, "compiled_exec": 1, "sql_exec": 1, "sql_row": 5,
        "ts_alloc": 1, "tuple_cpu": 12, "tuple_vec": 34, "value_cpu": 36,
        "vector_setup": 4,
    },
    ("row", "compiled", "group-by-empty"): {
        "buffer_hit": 1, "compiled_exec": 1, "sql_exec": 1, "sql_row": 0,
        "ts_alloc": 1, "tuple_cpu": 12, "tuple_vec": 24, "value_cpu": 36,
        "vector_setup": 2,
    },
    ("row", "compiled", "hash-join"): {
        "buffer_hit": 2, "compiled_exec": 1, "hash_probe": 12, "sql_exec": 1,
        "sql_row": 20, "ts_alloc": 1, "tuple_cpu": 24, "tuple_vec": 108,
        "value_cpu": 72, "vector_setup": 6,
    },
    ("row", "compiled", "hash-join-left"): {
        "buffer_hit": 2, "compiled_exec": 1, "hash_probe": 12, "sql_exec": 1,
        "sql_row": 15, "ts_alloc": 1, "tuple_cpu": 24, "tuple_vec": 93,
        "value_cpu": 72, "vector_setup": 6,
    },
    ("row", "compiled", "index-join-left"): {
        "buffer_hit": 13, "compiled_exec": 1, "index_node": 12,
        "index_probe": 12, "sql_exec": 1, "sql_row": 12, "ts_alloc": 1,
        "tuple_cpu": 24, "tuple_vec": 60, "value_cpu": 72, "vector_setup": 4,
    },
    ("row", "compiled", "index-join-limit"): {
        "buffer_hit": 13, "compiled_exec": 1, "index_node": 12,
        "index_probe": 12, "sql_exec": 1, "sql_row": 2, "ts_alloc": 1,
        "tuple_cpu": 24, "tuple_vec": 48, "value_cpu": 72, "vector_setup": 3,
    },
    ("row", "compiled", "limit-zero"): {
        "compiled_exec": 1, "sql_exec": 1, "sql_row": 0, "ts_alloc": 1,
    },
    ("row", "compiled", "nl-join"): {
        "buffer_hit": 2, "compiled_exec": 1, "sql_exec": 1, "sql_row": 6,
        "ts_alloc": 1, "tuple_cpu": 24, "tuple_vec": 100, "value_cpu": 72,
        "vector_setup": 6,
    },
    ("row", "compiled", "nl-join-left"): {
        "buffer_hit": 2, "compiled_exec": 1, "sql_exec": 1, "sql_row": 7,
        "ts_alloc": 1, "tuple_cpu": 24, "tuple_vec": 102, "value_cpu": 72,
        "vector_setup": 6,
    },
    ("row", "compiled", "param-lookup"): {
        "buffer_hit": 1, "compiled_exec": 1, "hash_probe": 1, "sql_exec": 1,
        "sql_row": 1, "ts_alloc": 1, "tuple_cpu": 1, "tuple_vec": 2,
        "value_cpu": 3, "vector_setup": 2,
    },
    ("row", "compiled", "recursive-reach"): {
        "buffer_hit": 7, "compiled_exec": 1, "hash_probe": 1, "index_node": 7,
        "index_probe": 7, "sql_exec": 1, "sql_row": 7, "ts_alloc": 1,
        "tuple_cpu": 7, "tuple_vec": 49, "value_cpu": 21, "vector_setup": 13,
    },
    ("row", "interpreted", "distinct-desc-limit"): {
        "buffer_hit": 1, "hash_probe": 3, "sql_exec": 1, "sql_row": 2,
        "ts_alloc": 1, "tuple_cpu": 39, "value_cpu": 36,
    },
    ("row", "interpreted", "global-aggregate-empty"): {
        "buffer_hit": 1, "sql_exec": 1, "sql_row": 1, "ts_alloc": 1,
        "tuple_cpu": 37, "value_cpu": 36,
    },
    ("row", "interpreted", "group-by"): {
        "buffer_hit": 1, "sql_exec": 1, "sql_row": 5, "ts_alloc": 1,
        "tuple_cpu": 46, "value_cpu": 36,
    },
    ("row", "interpreted", "group-by-empty"): {
        "buffer_hit": 1, "sql_exec": 1, "sql_row": 0, "ts_alloc": 1,
        "tuple_cpu": 36, "value_cpu": 36,
    },
    ("row", "interpreted", "hash-join"): {
        "buffer_hit": 2, "hash_probe": 12, "sql_exec": 1, "sql_row": 20,
        "ts_alloc": 1, "tuple_cpu": 120, "value_cpu": 72,
    },
    ("row", "interpreted", "hash-join-left"): {
        "buffer_hit": 2, "hash_probe": 12, "sql_exec": 1, "sql_row": 15,
        "ts_alloc": 1, "tuple_cpu": 110, "value_cpu": 72,
    },
    ("row", "interpreted", "index-join-left"): {
        "buffer_hit": 13, "index_node": 12, "index_probe": 12, "sql_exec": 1,
        "sql_row": 12, "ts_alloc": 1, "tuple_cpu": 72, "value_cpu": 72,
    },
    ("row", "interpreted", "index-join-limit"): {
        "buffer_hit": 3, "index_node": 1, "index_probe": 1, "sql_exec": 1,
        "sql_row": 2, "ts_alloc": 1, "tuple_cpu": 8, "value_cpu": 9,
    },
    ("row", "interpreted", "limit-zero"): {
        "sql_exec": 1, "sql_row": 0, "ts_alloc": 1,
    },
    ("row", "interpreted", "nl-join"): {
        "buffer_hit": 2, "sql_exec": 1, "sql_row": 6, "ts_alloc": 1,
        "tuple_cpu": 120, "value_cpu": 72,
    },
    ("row", "interpreted", "nl-join-left"): {
        "buffer_hit": 2, "sql_exec": 1, "sql_row": 7, "ts_alloc": 1,
        "tuple_cpu": 122, "value_cpu": 72,
    },
    ("row", "interpreted", "param-lookup"): {
        "buffer_hit": 1, "hash_probe": 1, "sql_exec": 1, "sql_row": 1,
        "ts_alloc": 1, "tuple_cpu": 3, "value_cpu": 3,
    },
    ("row", "interpreted", "recursive-reach"): {
        "buffer_hit": 7, "hash_probe": 1, "index_node": 7, "index_probe": 7,
        "sql_exec": 1, "sql_row": 7, "ts_alloc": 1, "tuple_cpu": 49,
        "value_cpu": 21,
    },
}

#: what a first execution pays on top of a warm one
SQL_COLD_EXTRA = {
    "interpreted": {"sql_parse": 1, "sql_plan": 1},
    "compiled": {"sql_parse": 1, "sql_plan": 1, "closure_compile": 1},
}


@pytest.fixture(
    scope="module",
    params=[
        (storage, mode)
        for storage in ("row", "column")
        for mode in ("interpreted", "compiled")
    ],
    ids="-".join,
)
def relational(request):
    storage, mode = request.param
    return storage, mode, relational_db(storage, mode)


@pytest.mark.parametrize("statement", sorted(SQL_STATEMENTS))
def test_sql_ledger_is_pinned(relational, statement):
    storage, mode, db = relational
    warm = SQL_WARM[storage, mode, statement]
    cold = {**warm, **SQL_COLD_EXTRA[mode]}
    for expected in (cold, warm):
        with meter() as ledger:
            rows = db.execute(
                SQL_STATEMENTS[statement], SQL_PARAMS.get(statement, ())
            )
        assert rows == SQL_ROWS[statement]
        assert ledger.snapshot() == expected


def rdf_db(mode, analyzed):
    """6 people (type, id, age, name) and 6 knows edges: 30 triples."""
    db = RdfDatabase(options=EngineOptions(execution_mode=mode))
    names = ["Alice", "Bob", "Carol", "Dan", "Eve", "Finn"]
    triples = []
    for i, name in enumerate(names, start=1):
        iri = f"sn:p{i}"
        triples += [
            (iri, "rdf:type", "snb:Person"),
            (iri, "snb:id", i),
            (iri, "snb:age", 20 + (i * 7) % 15),
            (iri, "snb:firstName", name),
        ]
    for a, b in ((1, 2), (2, 3), (3, 1), (1, 4), (4, 5), (5, 6)):
        triples.append((f"sn:p{a}", "snb:knows", f"sn:p{b}"))
    db.insert_triples(triples)
    if analyzed:
        db.analyze()
    return db


SPARQL_QUERIES = {
    "filter-mix": (
        "SELECT ?n ?a WHERE { ?p snb:firstName ?n . ?p snb:age ?a "
        "FILTER (?a > 22 && ?a < 34 || !(?n IN ('Bob', 'Eve'))) }"
    ),
    "count": "SELECT (COUNT(*) AS ?c) WHERE { ?p snb:knows ?q }",
    "distinct-order-limit": (
        "SELECT DISTINCT ?y WHERE { ?p snb:knows ?q . ?q snb:age ?y } "
        "ORDER BY DESC(?y) LIMIT 3"
    ),
    "param-predicate": (
        "SELECT ?q WHERE { ?p snb:id $a . ?p $p ?q } ORDER BY ?q"
    ),
    "star-not-in": (
        "SELECT * WHERE { ?p snb:firstName ?n . ?p snb:age ?a "
        "FILTER (?n NOT IN ('Alice', 'Carol')) }"
    ),
}

SPARQL_PARAMS = {"param-predicate": {"a": 1, "p": "snb:knows"}}

SPARQL_ROWS = {
    "count": [(6,)],
    "distinct-order-limit": [(34,), (33,), (32,)],
    "filter-mix": [
        ("Alice", 27), ("Carol", 26), ("Dan", 33), ("Eve", 25), ("Finn", 32),
    ],
    "param-predicate": [("sn:p2",), ("sn:p4",)],
    "star-not-in": [
        (34, "Bob", "sn:p2"), (33, "Dan", "sn:p4"), (25, "Eve", "sn:p5"),
        (32, "Finn", "sn:p6"),
    ],
}

SPARQL_WARM = {
    ("compiled", False, "count"): {
        "compiled_exec": 1, "hash_probe": 1, "index_node": 1, "index_probe": 1,
        "ts_alloc": 1, "tuple_vec": 6, "value_cpu": 18, "vector_setup": 1,
    },
    ("compiled", False, "distinct-order-limit"): {
        "compiled_exec": 1, "hash_probe": 13, "index_node": 7,
        "index_probe": 7, "ts_alloc": 1, "tuple_vec": 18, "value_cpu": 36,
        "vector_setup": 3,
    },
    ("compiled", False, "filter-mix"): {
        "compiled_exec": 1, "hash_probe": 13, "index_node": 7,
        "index_probe": 7, "ts_alloc": 1, "tuple_vec": 22, "value_cpu": 36,
        "vector_setup": 4,
    },
    ("compiled", False, "param-predicate"): {
        "compiled_exec": 1, "hash_probe": 4, "index_node": 2, "index_probe": 2,
        "ts_alloc": 1, "tuple_vec": 5, "value_cpu": 8, "vector_setup": 3,
    },
    ("compiled", False, "star-not-in"): {
        "compiled_exec": 1, "hash_probe": 9, "index_node": 5, "index_probe": 5,
        "ts_alloc": 1, "tuple_vec": 18, "value_cpu": 30, "vector_setup": 4,
    },
    ("compiled", True, "count"): {
        "compiled_exec": 1, "hash_probe": 1, "index_node": 1, "index_probe": 1,
        "ts_alloc": 1, "tuple_vec": 6, "value_cpu": 18, "vector_setup": 1,
    },
    ("compiled", True, "distinct-order-limit"): {
        "compiled_exec": 1, "hash_probe": 13, "index_node": 7,
        "index_probe": 7, "ts_alloc": 1, "tuple_vec": 18, "value_cpu": 36,
        "vector_setup": 3,
    },
    ("compiled", True, "filter-mix"): {
        "compiled_exec": 1, "hash_probe": 13, "index_node": 7,
        "index_probe": 7, "ts_alloc": 1, "tuple_vec": 22, "value_cpu": 36,
        "vector_setup": 4,
    },
    ("compiled", True, "param-predicate"): {
        "hash_probe": 4, "index_node": 2, "index_probe": 2, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 3, "value_cpu": 10,
    },
    ("compiled", True, "star-not-in"): {
        "compiled_exec": 1, "hash_probe": 9, "index_node": 5, "index_probe": 5,
        "ts_alloc": 1, "tuple_vec": 18, "value_cpu": 30, "vector_setup": 4,
    },
    ("interpreted", False, "count"): {
        "hash_probe": 1, "index_node": 1, "index_probe": 1, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 6, "value_cpu": 19,
    },
    ("interpreted", False, "distinct-order-limit"): {
        "hash_probe": 13, "index_node": 7, "index_probe": 7, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 12, "value_cpu": 42,
    },
    ("interpreted", False, "filter-mix"): {
        "hash_probe": 13, "index_node": 7, "index_probe": 7, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 12, "value_cpu": 72,
    },
    ("interpreted", False, "param-predicate"): {
        "hash_probe": 4, "index_node": 2, "index_probe": 2, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 3, "value_cpu": 10,
    },
    ("interpreted", False, "star-not-in"): {
        "hash_probe": 9, "index_node": 5, "index_probe": 5, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 10, "value_cpu": 48,
    },
    ("interpreted", True, "count"): {
        "hash_probe": 1, "index_node": 1, "index_probe": 1, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 6, "value_cpu": 19,
    },
    ("interpreted", True, "distinct-order-limit"): {
        "hash_probe": 13, "index_node": 7, "index_probe": 7, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 12, "value_cpu": 42,
    },
    ("interpreted", True, "filter-mix"): {
        "hash_probe": 13, "index_node": 7, "index_probe": 7, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 12, "value_cpu": 72,
    },
    ("interpreted", True, "param-predicate"): {
        "hash_probe": 4, "index_node": 2, "index_probe": 2, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 3, "value_cpu": 10,
    },
    ("interpreted", True, "star-not-in"): {
        "hash_probe": 9, "index_node": 5, "index_probe": 5, "sql_exec": 1,
        "ts_alloc": 1, "tuple_cpu": 10, "value_cpu": 48,
    },
}

SPARQL_COLD_EXTRA = {
    "interpreted": {"sparql_parse": 1, "sparql_translate": 1},
    "compiled": {
        "sparql_parse": 1, "sparql_translate": 1, "closure_compile": 1,
    },
}


@pytest.fixture(
    scope="module",
    params=[
        (mode, analyzed)
        for mode in ("interpreted", "compiled")
        for analyzed in (False, True)
    ],
    ids=lambda p: f"{p[0]}-{'stats' if p[1] else 'boundness'}",
)
def rdf(request):
    mode, analyzed = request.param
    return mode, analyzed, rdf_db(mode, analyzed)


@pytest.mark.parametrize("query", sorted(SPARQL_QUERIES))
def test_sparql_ledger_is_pinned(rdf, query):
    mode, analyzed, db = rdf
    warm = SPARQL_WARM[mode, analyzed, query]
    cold = {**warm, **SPARQL_COLD_EXTRA[mode]}
    for expected in (cold, warm):
        with meter() as ledger:
            rows = db.execute(SPARQL_QUERIES[query], SPARQL_PARAMS.get(query))
        assert rows == SPARQL_ROWS[query]
        assert ledger.snapshot() == expected
