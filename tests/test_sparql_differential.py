"""Generated SPARQL SELECTs: interpreted vs compiled execution.

``tests/test_exec_differential.py`` covers the connector catalog's
shapes; this generates basic graph patterns of 1-5 triple patterns with
variables, constants and ``$params`` in every position (predicate
included), FILTER trees of comparisons, ``IN``/``NOT IN``, ``&&``,
``||`` and ``!``, and DISTINCT / ORDER BY / LIMIT / COUNT tails, over a
small store with and without ANALYZE statistics.  Both modes must
return the same rows or raise the same error type.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.options import EngineOptions
from repro.rdf import RdfDatabase
from repro.rdf.sparql import SparqlRuntimeError


def small_db(analyzed):
    """5 people (type, age, name) and a knows-ring with one chord."""
    db = RdfDatabase(options=EngineOptions(execution_mode="interpreted"))
    triples = []
    for i in range(1, 6):
        triples += [
            (f"sn:p{i}", "rdf:type", "snb:Person"),
            (f"sn:p{i}", "snb:age", 20 + (i * 3) % 7),
            (f"sn:p{i}", "snb:name", f"n{i % 3}"),
            (f"sn:p{i}", "snb:knows", f"sn:p{i % 5 + 1}"),
        ]
    triples.append(("sn:p1", "snb:knows", "sn:p3"))
    db.insert_triples(triples)
    if analyzed:
        db.analyze()
    return db


DBS = {analyzed: small_db(analyzed) for analyzed in (False, True)}

VARS = ["?a", "?b", "?c", "?d"]
PARAMS = ["$s", "$p", "$x"]
IRIS = ["sn:p1", "sn:p2", "sn:p4", "sn:zzz", "snb:Person"]
PREDICATES = ["snb:knows", "snb:age", "snb:name", "rdf:type", "snb:nope"]
LITERALS = ["22", "24", "26", "'n0'", "'n1'", "'zz'"]

#: values a ``$param`` may be bound to (any position)
param_values = st.sampled_from(
    [*IRIS, *PREDICATES, 22, 24, 26, "n0", "n1"]
)

subjects = st.sampled_from(VARS + PARAMS + IRIS)
predicates = st.sampled_from(VARS + PARAMS + PREDICATES)
objects = st.sampled_from(VARS + PARAMS + IRIS + LITERALS)
filter_terms = st.sampled_from(VARS + PARAMS + LITERALS + IRIS[:2])

patterns = st.lists(
    st.tuples(subjects, predicates, objects).map(" ".join),
    min_size=1,
    max_size=5,
)

comparisons = st.tuples(
    filter_terms,
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    filter_terms,
).map(" ".join)

memberships = st.tuples(
    filter_terms,
    st.sampled_from(["IN", "NOT IN"]),
    st.lists(filter_terms, min_size=1, max_size=3).map(", ".join),
).map(lambda t: f"{t[0]} {t[1]} ({t[2]})")

filters = st.recursive(
    comparisons | memberships,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["&&", "||"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        inner.map(lambda f: f"!({f})"),
    ),
    max_leaves=4,
)

selections = st.one_of(
    st.just("*"),
    st.lists(st.sampled_from(VARS), min_size=1, max_size=3, unique=True)
    .map(" ".join),
    st.sampled_from(
        [
            "(COUNT(*) AS ?n)",
            "(COUNT(?a) AS ?n)",
            "(COUNT(DISTINCT ?b) AS ?n)",
            "?a (COUNT(*) AS ?n)",
        ]
    ),
)

orders = st.lists(
    st.tuples(st.sampled_from(VARS), st.sampled_from(["", "DESC", "ASC"])),
    max_size=2,
).map(
    lambda items: " ".join(
        f"{direction}({var})" if direction else var
        for var, direction in items
    )
)


def run(db, mode, text, params):
    db.options.execution_mode = mode
    try:
        return "rows", db.execute(text, params)
    except Exception as error:  # the error *type* is the contract
        return "error", type(error)


@settings(max_examples=300, deadline=None)
@given(
    analyzed=st.booleans(),
    distinct=st.booleans(),
    selection=selections,
    bgp=patterns,
    where=st.lists(filters, max_size=2),
    order=orders,
    limit=st.none() | st.integers(0, 4),
    params=st.dictionaries(st.sampled_from(["s", "p", "x"]), param_values),
)
def test_modes_agree(
    analyzed, distinct, selection, bgp, where, order, limit, params
):
    text = (
        f"SELECT {'DISTINCT ' if distinct else ''}{selection} WHERE {{ "
        + " . ".join(bgp)
        + "".join(f" FILTER ({f})" for f in where)
        + " }"
        + (f" ORDER BY {order}" if order else "")
        + (f" LIMIT {limit}" if limit is not None else "")
    )
    db = DBS[analyzed]
    interpreted = run(db, "interpreted", text, params)
    compiled = run(db, "compiled", text, params)
    assert compiled == interpreted, text


@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
def test_missing_parameter_raises_after_a_dictionary_miss(mode):
    """Every bound term is resolved before the first dictionary lookup,
    so a missing ``$param`` raises even when an earlier constant is not
    in the store."""
    db = small_db(analyzed=False)
    db.options.execution_mode = mode
    with pytest.raises(SparqlRuntimeError, match=r"missing parameter"):
        db.execute("SELECT ?x WHERE { sn:zzz snb:knows $missing }", {})
