"""Tests for the triple store and the SPARQL subset."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf import RdfDatabase, TripleStore
from repro.rdf.sparql import SparqlParseError, SparqlRuntimeError, parse


class TestTripleStore:
    def test_add_and_match(self):
        ts = TripleStore()
        assert ts.add("sn:p1", "snb:firstName", "Alice")
        assert list(ts.match("sn:p1", "snb:firstName", None)) == [
            ("sn:p1", "snb:firstName", "Alice")
        ]

    def test_duplicate_insert_ignored(self):
        ts = TripleStore()
        assert ts.add("s", "p", "o")
        assert not ts.add("s", "p", "o")
        assert ts.triple_count == 1

    def test_remove(self):
        ts = TripleStore()
        ts.add("s", "p", "o")
        assert ts.remove("s", "p", "o")
        assert not ts.remove("s", "p", "o")
        assert ts.count(None, None, None) == 0

    def test_wildcard_patterns(self):
        ts = TripleStore()
        ts.add("a", "knows", "b")
        ts.add("a", "knows", "c")
        ts.add("b", "knows", "c")
        ts.add("a", "name", "Alice")
        assert ts.count("a", "knows", None) == 2
        assert ts.count(None, "knows", None) == 3
        assert ts.count(None, None, "c") == 2
        assert ts.count(None, "knows", "c") == 2
        assert ts.count("a", None, None) == 3
        assert ts.count("a", None, "c") == 1
        assert ts.count(None, None, None) == 4

    def test_unknown_term_short_circuits(self):
        ts = TripleStore()
        ts.add("a", "p", "b")
        assert ts.count("nope", None, None) == 0

    def test_typed_literals(self):
        ts = TripleStore()
        ts.add("p1", "age", 30)
        ts.add("p2", "age", 31)
        assert ts.count(None, "age", 30) == 1

    def test_size_bytes_grows(self):
        ts = TripleStore()
        before = ts.size_bytes()
        ts.add("subject", "predicate", "object-string")
        assert ts.size_bytes() > before

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(
            st.tuples(
                st.integers(0, 8), st.integers(0, 3), st.integers(0, 8)
            ),
            max_size=60,
        )
    )
    def test_matches_set_model(self, triples):
        ts = TripleStore()
        model = set()
        for s, p, o in triples:
            ts.add(f"s{s}", f"p{p}", f"o{o}")
            model.add((f"s{s}", f"p{p}", f"o{o}"))
        assert set(ts.match(None, None, None)) == model
        for s, p, o in list(model)[:10]:
            assert set(ts.match(s, None, None)) == {
                t for t in model if t[0] == s
            }
            assert set(ts.match(None, p, o)) == {
                t for t in model if t[1] == p and t[2] == o
            }


@pytest.fixture()
def db():
    rdf = RdfDatabase()
    people = {1: ("Alice", 30), 2: ("Bob", 35), 3: ("Carol", 28)}
    triples = []
    for pid, (name, age) in people.items():
        iri = f"sn:pers{pid}"
        triples += [
            (iri, "rdf:type", "snb:Person"),
            (iri, "snb:id", pid),
            (iri, "snb:firstName", name),
            (iri, "snb:age", age),
        ]
    triples += [
        ("sn:pers1", "snb:knows", "sn:pers2"),
        ("sn:pers2", "snb:knows", "sn:pers1"),
        ("sn:pers2", "snb:knows", "sn:pers3"),
        ("sn:pers3", "snb:knows", "sn:pers2"),
    ]
    rdf.insert_triples(triples)
    return rdf


class TestSparql:
    def test_parse_basic(self):
        q = parse(
            "SELECT ?name WHERE { ?p snb:id $id . ?p snb:firstName ?name }"
        )
        assert len(q.patterns) == 2
        assert q.items[0].var.name == "name"

    def test_parse_rejects_bare_identifier(self):
        with pytest.raises(SparqlParseError):
            parse("SELECT ?x WHERE { ?x has ?y }")

    def test_point_lookup(self, db):
        rows = db.execute(
            "SELECT ?name WHERE { ?p snb:id $id . ?p snb:firstName ?name }",
            {"id": 2},
        )
        assert rows == [("Bob",)]

    def test_one_hop(self, db):
        rows = db.execute(
            "SELECT ?name WHERE { ?p snb:id $id . ?p snb:knows ?f . "
            "?f snb:firstName ?name } ORDER BY ?name",
            {"id": 2},
        )
        assert rows == [("Alice",), ("Carol",)]

    def test_two_hop_with_filter(self, db):
        rows = db.execute(
            "SELECT DISTINCT ?name WHERE { ?p snb:id $id . "
            "?p snb:knows ?f . ?f snb:knows ?fof . ?fof snb:id ?fofid . "
            "?fof snb:firstName ?name . FILTER(?fofid != $id) }",
            {"id": 1},
        )
        assert rows == [("Carol",)]

    def test_count_star(self, db):
        rows = db.execute(
            "SELECT (COUNT(*) AS ?c) WHERE { ?p rdf:type snb:Person }"
        )
        assert rows == [(3,)]

    def test_count_distinct_var(self, db):
        rows = db.execute(
            "SELECT (COUNT(DISTINCT ?f) AS ?c) WHERE { ?p snb:knows ?f }"
        )
        assert rows == [(3,)]

    def test_filter_comparison(self, db):
        rows = db.execute(
            "SELECT ?name WHERE { ?p snb:age ?a . ?p snb:firstName ?name . "
            "FILTER(?a >= 30) } ORDER BY ?name"
        )
        assert rows == [("Alice",), ("Bob",)]

    def test_filter_in(self, db):
        rows = db.execute(
            "SELECT ?name WHERE { ?p snb:id ?i . ?p snb:firstName ?name . "
            "FILTER(?i IN (1, 3)) } ORDER BY ?name"
        )
        assert rows == [("Alice",), ("Carol",)]

    def test_filter_bool_ops(self, db):
        rows = db.execute(
            "SELECT ?name WHERE { ?p snb:age ?a . ?p snb:firstName ?name . "
            "FILTER(?a < 30 || ?a > 34) } ORDER BY ?name"
        )
        assert rows == [("Bob",), ("Carol",)]

    def test_order_desc_limit(self, db):
        rows = db.execute(
            "SELECT ?name WHERE { ?p snb:firstName ?name } "
            "ORDER BY DESC(?name) LIMIT 2"
        )
        assert rows == [("Carol",), ("Bob",)]

    def test_shared_variable_join(self, db):
        # same var appearing twice must unify
        rows = db.execute(
            "SELECT ?a WHERE { ?p snb:knows ?p2 . ?p2 snb:knows ?p . "
            "?p snb:id ?a } ORDER BY ?a"
        )
        assert rows == [(1,), (2,), (2,), (3,)]

    def test_missing_param(self, db):
        with pytest.raises(SparqlRuntimeError):
            db.execute("SELECT ?p WHERE { ?p snb:id $gone }")

    def test_empty_result(self, db):
        assert db.execute(
            "SELECT ?p WHERE { ?p snb:id $id }", {"id": 999}
        ) == []

    def test_statement_cache(self, db):
        q = "SELECT ?p WHERE { ?p snb:id $id }"
        db.execute(q, {"id": 1})
        db.execute(q, {"id": 2})
        assert q in db._stmt_cache

    def test_insert_returns_new_count(self, db):
        added = db.insert_triples(
            [("sn:pers9", "snb:id", 9), ("sn:pers1", "snb:id", 1)]
        )
        assert added == 1  # second already existed
