"""Pin what each execution-mode envelope charges.

The interpreted and compiled paths share their operator definitions;
what differs is the envelope around them: ``step_eval`` per traverser
vs ``vector_setup`` + ``tuple_vec`` per batch (Gremlin), ``cypher_row``
per row vs one dispatch per 1024-row chunk (Cypher RETURN).  These
tests pin the *full* ledger of fixed queries over fixed small graphs in
both modes, so a pricing slip shows here and not only in the
trajectory benchmark.
"""

import pytest

from repro.graphdb import GraphDatabase
from repro.options import EngineOptions
from repro.simclock import meter
from repro.tinkerpop import Graph, GremlinServer, P, TinkerGraphProvider


def social_provider():
    """12 people on a ring with chords; ages cycle through 20..34."""
    provider = TinkerGraphProvider()
    provider.create_index("person", "id")
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
    "filter-dedup-values": ["p2", "p3", "p6", "p8", "p4", "p1", "p10", "p5"],
    "order-limit": ["p2", "p2", "p2", "p4", "p4"],
}

GREMLIN_WARM = {
    ("interpreted", "filter-dedup-values"): {
        "gremlin_compile": 1, "hash_probe": 1, "serialize_item": 8,
        "server_rtt": 1, "step_eval": 74, "ts_alloc": 1, "value_cpu": 86,
    },
    ("interpreted", "order-limit"): {
        "gremlin_compile": 1, "serialize_item": 5, "server_rtt": 1,
        "step_eval": 24, "ts_alloc": 1, "value_cpu": 89,
    },
    ("compiled", "filter-dedup-values"): {
        "compiled_exec": 1, "hash_probe": 1, "server_rtt": 1,
        "ts_alloc": 1, "tuple_vec": 81, "value_cpu": 70, "vector_setup": 4,
    },
    ("compiled", "order-limit"): {
        "compiled_exec": 1, "server_rtt": 1, "ts_alloc": 1,
        "tuple_vec": 94, "value_cpu": 94, "vector_setup": 4,
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


@pytest.mark.parametrize("key", ["neo4j-cypher", "neo4j-gremlin"])
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
