"""The Cypher evaluator's value semantics, stated once.

Both execution modes evaluate through
:mod:`repro.graphdb.cypher.evaluator`, so the NULL, node-comparison and
short-circuit rules are a property of one function and are tabulated
here against it directly.
"""

import pytest

from repro.graphdb import GraphDatabase
from repro.graphdb.cypher import parse
from repro.graphdb.cypher.evaluator import (
    CypherRuntimeError,
    NodeRef,
    PathRef,
    RelRef,
    compile_expr,
)
from repro.options import EngineOptions


@pytest.fixture(scope="module")
def world():
    db = GraphDatabase()
    db.execute("CREATE (a:Person:Admin {id: 1, name: 'ann'})")
    db.execute("CREATE (b:Person {id: 2})")
    db.execute(
        "MATCH (a:Person {id: 1}), (b:Person {id: 2}) "
        "CREATE (a)-[:KNOWS {since: 2010}]->(b)"
    )
    a, b = sorted(db.store.all_nodes())
    ((rel, _),) = db.store.relationships(a, "KNOWS")
    row = {
        "a": NodeRef(a), "a2": NodeRef(a), "b": NodeRef(b),
        "r": RelRef(rel), "p": PathRef((a, b), 1),
        "x": None, "n": 5,
    }
    return db.store, row


RAISES = CypherRuntimeError

TABLE = [
    # comparisons: NULL on either side is false, never NULL
    ("null = null", False),
    ("x = 1", False),
    ("1 <> x", False),
    ("x < 1", False),
    ("n >= 5", True),
    # arithmetic: NULL propagates
    ("x + 1", None),
    ("1 - x", None),
    ("-x", None),
    ("-n", -5),
    ("1 + 2 * 3", 7),
    ("7 / 2", 3.5),
    # IS [NOT] NULL and NOT
    ("x IS NULL", True),
    ("n IS NULL", False),
    ("x IS NOT NULL", False),
    ("a.missing IS NULL", True),
    ("NOT x", True),
    ("NOT n", False),
    # nodes compare by identity, only with = and <>
    ("a = a2", True),
    ("a = b", False),
    ("a <> b", True),
    ("a <> a2", False),
    ("a = 1", False),
    ("1 <> a", True),
    ("a = x", False),
    ("a < b", RAISES),
    ("a >= 1", RAISES),
    # AND / OR: two-valued over truthiness, right side skipped
    ("false AND nope", False),
    ("x AND nope", False),
    ("true OR $missing", True),
    ("n OR nope", True),
    ("true AND $missing", RAISES),
    ("false OR nope", RAISES),
    ("x OR x", False),
    ("n AND n", True),
    # property access
    ("a.name", "ann"),
    ("r.since", 2010),
    ("x.name", None),
    ("unbound.name", None),
    ("n.name", RAISES),
    ("unbound", RAISES),
    ("$missing", RAISES),
    # scalar functions
    ("id(a) = id(a2)", True),
    ("labels(a)", ["Person", "Admin"]),
    ("length(p)", 1),
    ("length(a)", RAISES),
    ("id(n)", RAISES),
    ("labels(r)", RAISES),
    # these build; they raise only when evaluated
    ("nosuch(n)", RAISES),
    ("count(n)", RAISES),
    ("1 + max(n)", RAISES),
]


@pytest.mark.parametrize("text,expected", TABLE, ids=[t for t, _ in TABLE])
def test_value_semantics(world, text, expected):
    store, row = world
    fn = compile_expr(parse(f"RETURN {text}").returns.items[0].expr, store)
    if expected is RAISES:
        with pytest.raises(CypherRuntimeError):
            fn(row, {})
    else:
        value = fn(row, {})
        assert value == expected and type(value) is type(expected)


MODES = ["interpreted", "compiled"]


@pytest.mark.parametrize("mode", MODES)
def test_literals_of_different_type_stay_different(mode):
    """``1``, ``1.0`` and ``true`` are equal in Python, and evaluator
    closures are looked up by expression node."""
    db = GraphDatabase(options=EngineOptions(execution_mode=mode))
    for text, expected in [
        ("RETURN 1 + 1", 2), ("RETURN 1.0 + 1", 2.0), ("RETURN 1", 1),
        ("RETURN true", True), ("RETURN 1.0", 1.0),
    ]:
        ((value,),) = db.execute(text)
        assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "tail",
    [
        "RETURN p.id ORDER BY p.name",  # not a returned column
        "RETURN count(*) + 1",  # aggregate nested in an expression
        "RETURN count()",  # aggregate without its argument
    ],
)
def test_unrunnable_return_raises_runtime_error(mode, tail):
    db = GraphDatabase(options=EngineOptions(execution_mode=mode))
    db.execute("CREATE (p:Person {id: 1})")
    for _ in range(2):  # cold and cached
        with pytest.raises(CypherRuntimeError):
            db.execute(f"MATCH (p:Person) {tail}")
