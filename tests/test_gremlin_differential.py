"""Generated Gremlin chains: interpreted vs compiled submits.

``tests/test_exec_differential.py`` covers the catalog's shapes; this
generates step chains over every compilable step — including the
corners no catalog query reaches (``otherV``, ``simplePath``, ``path``,
``values`` on a missing key, ``hasLabel`` on a value, ``limit(0)``,
steps applied to the wrong kind of object) — and asserts both modes
return the same list or raise the same error type, and agree on
whether a step budget is enough.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.options import EngineOptions
from repro.tinkerpop import Graph, GremlinServer, GremlinServerError, P


def small_provider():
    """8 people + 3 tags; knows-ring with chords, a few likes edges."""
    provider = Neo4jProvider()
    provider.store.create_index("person", "id")
    g = Graph(provider).traversal()
    people = [
        g.addV("person").property("id", i).property("name", f"p{i % 5}")
        .property("age", 20 + (i * 7) % 6).next()
        for i in range(8)
    ]
    tags = [
        g.addV("tag").property("id", 100 + i).property("name", f"t{i}")
        .next()
        for i in range(3)
    ]
    for i in range(8):
        for hop in (1, 3):
            g.V(people[i].id).addE("knows").to(
                people[(i + hop) % 8]
            ).property("since", 2000 + i).iterate()
        g.V(people[i].id).addE("likes").to(tags[i % 3]).iterate()
    return provider


PROVIDER = small_provider()
VERTEX_IDS = sorted(PROVIDER.vertices(None))

labels = st.sampled_from([None, "knows", "likes", "nope"])
keys = st.sampled_from(["id", "name", "age", "since", "missing"])
predicates = st.one_of(
    st.integers(0, 30).map(P.eq),
    st.integers(0, 30).map(P.gt),
    st.integers(0, 30).map(P.lte),
    st.just(P.neq("p1")),
    st.just(P.within([0, 1, 2, "p2", 2003])),
)

sources = st.one_of(
    st.just(("V",)),
    st.sampled_from(VERTEX_IDS + [999]).map(lambda vid: ("V", vid)),
    st.sampled_from(["person", "tag"]).map(lambda l: ("V().hasLabel", l)),
    st.integers(0, 9).map(lambda i: ("V().has", "person", "id", i)),
)

steps = st.one_of(
    st.tuples(
        st.sampled_from(["out", "in_", "both", "outE", "inE", "bothE"]),
        labels,
    ),
    st.sampled_from(["inV", "outV", "otherV"]).map(lambda n: (n,)),
    st.tuples(st.just("has"), keys, predicates),
    st.tuples(
        st.just("has"), st.sampled_from(["person", "tag"]), keys,
        st.integers(0, 25),
    ),
    st.sampled_from(["person", "tag", "knows"]).map(
        lambda l: ("hasLabel", l)
    ),
    st.lists(keys, min_size=1, max_size=2).map(
        lambda ks: ("values", *ks)
    ),
    st.sampled_from(
        ["valueMap", "id_", "dedup", "simplePath", "path", "count", "order"]
    ).map(lambda n: (n,)),
    st.tuples(st.just("order.by"), keys, st.booleans()),
    st.integers(0, 4).map(lambda n: ("limit", n)),
    st.just(("filter_",)),
)

chains = st.tuples(sources, st.lists(steps, min_size=1, max_size=6))


def _even_id(obj):
    return getattr(obj, "id", 0) % 2 == 0


def builder(chain):
    source, rest = chain

    def build(g):
        if source[0] == "V":
            t = g.V(*source[1:])
        elif source[0] == "V().hasLabel":
            t = g.V().hasLabel(source[1])
        else:
            t = g.V().has(*source[1:])
        for name, *args in rest:
            if name == "order.by":
                t = t.order().by(*args)
            elif name == "filter_":
                t = t.filter_(_even_id)
            else:
                t = getattr(t, name)(*args)
        return t

    return build


def submit(mode, chain, step_limit=20_000_000):
    """``("ok", rows)`` or ``("error", type)`` for one keyed submit."""
    server = GremlinServer(
        PROVIDER,
        step_limit=step_limit,
        options=EngineOptions(execution_mode=mode),
    )
    try:
        return "ok", server.submit(builder(chain), cache_key=repr(chain))
    except Exception as error:  # the property is *which* type
        return "error", type(error)


@settings(max_examples=300, deadline=None)
@given(chains)
def test_modes_agree_on_rows_and_error_types(chain):
    assert submit("compiled", chain) == submit("interpreted", chain)


@settings(max_examples=200, deadline=None)
@given(chains, st.integers(1, 120))
def test_modes_agree_on_step_budget(chain, step_limit):
    """Both envelopes tick the same traverser counts.

    The exception is what follows a ``limit()`` upstream: the
    interpreter stops pulling traversers one at a time, the vectorized
    pipeline one *batch* at a time, so there a budget that suffices
    compiled must suffice interpreted, not the reverse.
    """
    outcome, _ = submit("interpreted", chain)
    if outcome == "error":
        return  # the error and the budget race differently per batch
    interpreted = submit("interpreted", chain, step_limit)
    compiled = submit("compiled", chain, step_limit)
    if any(name == "limit" for name, *_ in chain[1]):
        if interpreted == ("error", GremlinServerError):
            assert compiled == interpreted
    else:
        assert compiled == interpreted
