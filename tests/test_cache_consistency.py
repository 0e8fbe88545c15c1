"""Caching must never change answers.

Two suites: an interleaving suite that races DDL / ANALYZE / updates
against cached reads on each engine (the staleness-hazard audit in
``repro.cache`` made executable), and a suite that applies the update
stream once per event and once in group-commit batches and asserts the
same answers.
"""

import pytest

from repro.core import make_connector
from repro.core.benchmark import WorkloadParams
from repro.graphdb import GraphDatabase
from repro.rdf import RdfDatabase
from repro.relational import Database
from repro.snb import GeneratorConfig, generate

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=13)

READ_OPS = [
    ("point_lookup", "person_ids"),
    ("one_hop", "person_ids"),
    ("two_hop", "person_ids"),
    ("person_friends", "person_ids"),
    ("message_content", "message_ids"),
    ("message_creator", "message_ids"),
]


def _normalize(value):
    if isinstance(value, list):
        return [tuple(v) if isinstance(v, (list, tuple)) else v for v in value]
    if isinstance(value, tuple):
        return tuple(value)
    return value


class TestInterleavedStaleness:
    """DDL / ANALYZE / writes between cached reads stay consistent."""

    def test_sql_analyze_and_index_between_cached_reads(self):
        db = Database("row")
        db.execute(
            "CREATE TABLE person (id BIGINT PRIMARY KEY, city TEXT)"
        )
        for pid in range(30):
            db.execute(
                "INSERT INTO person VALUES (?, ?)", (pid, f"c{pid % 5}")
            )
        q = "SELECT id FROM person WHERE city = ?"
        baseline = sorted(db.query(q, ("c1",)))
        db.analyze()  # epoch bump: cached plan must be dropped
        assert sorted(db.query(q, ("c1",))) == baseline
        db.execute("CREATE INDEX ON person (city) USING HASH")
        assert sorted(db.query(q, ("c1",))) == baseline
        db.execute("INSERT INTO person VALUES (?, ?)", (30, "c1"))
        assert sorted(db.query(q, ("c1",))) == baseline + [(30,)]

    def test_cypher_update_between_cached_adjacency_reads(self):
        db = GraphDatabase()
        db.create_index("Person", "id")
        for pid in range(3):
            db.execute(f"CREATE (:Person {{id: {pid}}})")
        db.execute(
            "MATCH (a:Person), (b:Person) WHERE a.id = 0 AND b.id = 1 "
            "CREATE (a)-[:KNOWS]->(b)"
        )
        q = (
            "MATCH (a:Person)-[:KNOWS]-(b:Person) WHERE a.id = 0 "
            "RETURN b.id ORDER BY b.id"
        )
        assert db.execute(q) == [(1,)]
        # the cached plan must see the new edge
        db.execute(
            "MATCH (a:Person), (b:Person) WHERE a.id = 0 AND b.id = 2 "
            "CREATE (a)-[:KNOWS]->(b)"
        )
        assert db.execute(q) == [(1,), (2,)]
        db.analyze()  # epoch bump: the replanned query agrees
        assert db.execute(q) == [(1,), (2,)]

    def test_sparql_analyze_between_cached_reads(self):
        db = RdfDatabase()
        for i in range(8):
            db.store.add(f"sn:p{i}", "snb:id", i)
            db.store.add(f"sn:p{i}", "snb:firstName", f"n{i}")
        q = (
            "SELECT ?n WHERE { ?p snb:id ?i . ?p snb:firstName ?n } "
            "ORDER BY ?n"
        )
        baseline = db.execute(q)
        db.analyze()  # swaps stats and clears the estimate memo
        assert db.execute(q) == baseline
        db.store.add("sn:p8", "snb:id", 8)
        db.store.add("sn:p8", "snb:firstName", "n8")
        assert db.execute(q) == baseline + [("n8",)]


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


class TestBatchedApplyEquivalence:
    """apply_update_batch must leave the store identical to per-event."""

    @pytest.mark.parametrize(
        "key", ["postgres-sql", "neo4j-cypher", "virtuoso-sparql"]
    )
    def test_batch_matches_per_event(self, dataset, key):
        events = dataset.updates[:40]
        one_by_one = make_connector(key)
        one_by_one.load(dataset)
        for event in events:
            one_by_one.apply_update(event)
        batched = make_connector(key)
        batched.load(dataset)
        for start in range(0, len(events), 16):
            batched.apply_update_batch(events[start : start + 16])
        params = WorkloadParams.curate(dataset, count=3, seed=3)
        for op, id_attr in READ_OPS:
            for ident in getattr(params, id_attr)[:2]:
                assert _normalize(
                    getattr(batched, op)(ident)
                ) == _normalize(getattr(one_by_one, op)(ident)), (op, ident)
