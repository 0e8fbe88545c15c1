"""Gremlin connectors: one implementation, four TinkerPop backends.

This is the paper's contribution #2 realized: a single Gremlin
implementation of the workload that runs unmodified against any
TinkerPop3-compliant database (Neo4j, Titan-Cassandra, Titan-BerkeleyDB,
Sqlg).  All interactive traffic goes through the Gremlin Server
(Figure 2); only bulk loading bypasses it (the LDBC Gremlin loading
utilities, embedded in the loader process).
"""

from __future__ import annotations

from typing import Any

from repro.core.connectors.base import Connector, OperationFailed
from repro.graphdb.tinkerpop_adapter import Neo4jProvider
from repro.options import EngineOptions
from repro.snb.datagen import SnbDataset
from repro.snb.schema import (
    Comment,
    Forum,
    ForumMembership,
    Knows,
    Like,
    Person,
    Post,
)
from repro.sqlg import SqlgProvider
from repro.tinkerpop import GremlinServer, GremlinServerError, P
from repro.tinkerpop.structure import GraphProvider
from repro.tinkerpop.traversal import charge_step
from repro.titan import titan_berkeley, titan_cassandra

#: (label, key) pairs indexed in every TinkerPop backend ("indexes on
#: vertex IDs only" — the paper's fairness rule)
VERTEX_INDEXES = [
    ("person", "id"), ("forum", "id"), ("post", "id"), ("comment", "id"),
    ("tag", "id"), ("place", "id"), ("organisation", "id"),
]


def _person_props(person: Person) -> dict:
    return {
        "id": person.id, "firstName": person.first_name,
        "lastName": person.last_name, "gender": person.gender,
        "birthday": person.birthday, "creationDate": person.creation_date,
        "browserUsed": person.browser_used,
        "locationIP": person.location_ip,
    }


def _forum_props(forum: Forum) -> dict:
    return {"id": forum.id, "title": forum.title,
            "creationDate": forum.creation_date}


def _post_props(post: Post) -> dict:
    return {
        "id": post.id, "creationDate": post.creation_date,
        "content": post.content, "length": post.length,
        "browserUsed": post.browser_used,
        "locationIP": post.location_ip, "language": post.language,
    }


def _comment_props(comment: Comment) -> dict:
    return {
        "id": comment.id, "creationDate": comment.creation_date,
        "content": comment.content, "length": comment.length,
        "browserUsed": comment.browser_used,
        "locationIP": comment.location_ip,
    }


def iter_vertex_specs(dataset: SnbDataset):
    """All vertices as ``(label, props)`` in load order."""
    for place in dataset.places:
        yield "place", {"id": place.id, "name": place.name,
                        "type": place.kind}
    for tc in dataset.tag_classes:
        yield "tagclass", {"id": tc.id, "name": tc.name}
    for tag in dataset.tags:
        yield "tag", {"id": tag.id, "name": tag.name}
    for org in dataset.organisations:
        yield "organisation", {"id": org.id, "name": org.name,
                               "type": org.kind}
    for person in dataset.persons:
        yield "person", _person_props(person)
    for forum in dataset.forums:
        yield "forum", _forum_props(forum)
    for post in dataset.posts:
        yield "post", _post_props(post)
    for comment in dataset.comments:
        yield "comment", _comment_props(comment)


def iter_edge_specs(dataset: SnbDataset):
    """All edges as ``(label, out_id, in_id, props)`` in load order.

    Edges only reference vertices yielded by :func:`iter_vertex_specs`.
    """
    for place in dataset.places:
        if place.part_of is not None:
            yield "isPartOf", place.id, place.part_of, {}
    for tc in dataset.tag_classes:
        if tc.subclass_of is not None:
            yield "isSubclassOf", tc.id, tc.subclass_of, {}
    for tag in dataset.tags:
        yield "hasType", tag.id, tag.tag_class, {}
    for org in dataset.organisations:
        yield "isLocatedIn", org.id, org.place, {}
    for person in dataset.persons:
        yield "isLocatedIn", person.id, person.city, {}
        for tag_id in person.interests:
            yield "hasInterest", person.id, tag_id, {}
        if person.university is not None:
            yield "studyAt", person.id, person.university, {
                "classYear": person.class_year}
        if person.company is not None:
            yield "workAt", person.id, person.company, {
                "workFrom": person.work_from}
    for knows in dataset.knows:
        yield "knows", knows.person1, knows.person2, {
            "creationDate": knows.creation_date}
    for forum in dataset.forums:
        yield "hasModerator", forum.id, forum.moderator, {}
        for tag_id in forum.tags:
            yield "hasTag", forum.id, tag_id, {}
    for m in dataset.memberships:
        yield "hasMember", m.forum, m.person, {"joinDate": m.join_date}
    for post in dataset.posts:
        yield "hasCreator", post.id, post.creator, {}
        yield "containerOf", post.forum, post.id, {}
        yield "isLocatedIn", post.id, post.country, {}
        for tag_id in post.tags:
            yield "hasTag", post.id, tag_id, {}
    for comment in dataset.comments:
        yield "hasCreator", comment.id, comment.creator, {}
        yield "replyOf", comment.id, comment.reply_of, {}
        yield "rootPost", comment.id, comment.root_post, {}
        yield "isLocatedIn", comment.id, comment.country, {}
        for tag_id in comment.tags:
            yield "hasTag", comment.id, tag_id, {}
    for like in dataset.likes:
        yield "likes", like.person, like.message, {
            "creationDate": like.creation_date}


class EmbeddedLoader:
    """The LDBC Gremlin loading utility's per-spec writers.

    A vertex is ``g.addV(label).property(...)`` and an edge
    ``g.V(out).addE(label).to(in).property(...)``.  The loader makes the
    provider calls those traversals make and charges the interpreted
    steps they run (:func:`charge_step`: one for ``addV``, one each for
    ``V(id)`` and ``addE``) without building them; ``V(id)`` never reads
    the provider, so the ledger is the traversals' own.  Provider ids
    are kept by SNB id, so an edge names its endpoints without an index
    lookup.  ``add_vertex`` takes an :func:`iter_vertex_specs` item and
    ``add_edge`` an :func:`iter_edge_specs` item.
    """

    def __init__(self, provider: GraphProvider) -> None:
        self.provider = provider
        self.vertex: dict[int, Any] = {}

    def add_vertex(self, spec: tuple) -> None:
        label, props = spec
        charge_step()  # addV
        self.vertex[props["id"]] = self.provider.create_vertex(
            label, dict(props)
        )

    def add_edge(self, spec: tuple) -> None:
        label, out_id, in_id, props = spec
        out_vid, in_vid = self.vertex[out_id], self.vertex[in_id]
        charge_step()  # V(id)
        charge_step()  # addE
        self.provider.create_edge(label, out_vid, in_vid, dict(props))


def load_dataset_into_provider(
    provider: GraphProvider, dataset: SnbDataset
) -> tuple[int, int]:
    """Load ``dataset`` with the embedded Gremlin loading utility.

    Returns ``(vertices_loaded, edges_loaded)`` - the quantities Table 4
    rates are computed from.
    """
    embedded = EmbeddedLoader(provider)
    vertices = edges = 0
    for spec in iter_vertex_specs(dataset):
        embedded.add_vertex(spec)
        vertices += 1
    for spec in iter_edge_specs(dataset):
        embedded.add_edge(spec)
        edges += 1
    return vertices, edges


# -- the query catalog: every traversal shape the connector submits -----------
#
# Gremlin has no query text, so the catalog entries are *builders*: a
# function taking the traversal source plus the operation's parameters.
# The connector methods call these with live arguments; the static
# analyser (see :mod:`repro.analysis.gremlin`) calls them with the
# sample arguments below against a provider-less traversal and walks
# the resulting step chain.


def _q_vertex_by_id(g, label, vid):
    return g.V().has(label, "id", vid).limit(1)


def _q_point_lookup(g, person_id):
    return g.V().has("person", "id", person_id).valueMap()


def _q_one_hop(g, person_id):
    return g.V().has("person", "id", person_id).both("knows").values("id")


def _q_two_hop(g, person_id):
    return (
        g.V().has("person", "id", person_id)
        .both("knows").both("knows")
        .has("id", P.neq(person_id)).dedup().values("id")
    )


def _q_shortest_path(g, person1, person2):
    return (
        g.V().has("person", "id", person1)
        .repeat(_anon_both_knows())
        .until(_anon_has_id(person2))
        .path().limit(1)
    )


def _q_person_city(g, person_id):
    return (
        g.V().has("person", "id", person_id)
        .out("isLocatedIn").values("id")
    )


def _q_person_recent_posts(g, person_id, limit):
    return (
        g.V().has("person", "id", person_id)
        .in_("hasCreator")
        .order().by("creationDate", descending=True)
        .limit(limit).valueMap()
    )


def _q_person_friends(g, person_id):
    return (
        g.V().has("person", "id", person_id)
        .both("knows").order().by("id").valueMap()
    )


def _q_message_value_map(g, label, message_id):
    return g.V().has(label, "id", message_id).valueMap()


def _q_message_creator(g, label, message_id):
    return (
        g.V().has(label, "id", message_id)
        .out("hasCreator").valueMap()
    )


def _q_post_forum(g, message_id):
    return (
        g.V().has("post", "id", message_id)
        .in_("containerOf").valueMap()
    )


def _q_comment_forum(g, message_id):
    return (
        g.V().has("comment", "id", message_id)
        .out("rootPost").in_("containerOf").valueMap()
    )


def _q_forum_moderator(g, forum_id):
    return (
        g.V().has("forum", "id", forum_id)
        .out("hasModerator").values("id")
    )


def _q_message_replies(g, label, message_id):
    return (
        g.V().has(label, "id", message_id)
        .in_("replyOf").valueMap()
    )


def _q_reply_creator(g, label, message_id):
    return (
        g.V().has(label, "id", message_id)
        .out("hasCreator").values("id")
    )


def _q_complex_two_hop(g, person_id, limit):
    return (
        g.V().has("person", "id", person_id)
        .both("knows").both("knows")
        .has("id", P.neq(person_id)).dedup()
        .order().by("id").limit(limit).valueMap()
    )


def _q_friends_recent_posts(g, person_id):
    return (
        g.V().has("person", "id", person_id)
        .both("knows").in_("hasCreator").valueMap()
    )


def _q_add_vertex(g, label, props):
    t = g.addV(label)
    for key, value in props.items():
        t.property(key, value)
    return t


def _q_add_edge(g, label, out_label, out_id, target, props):
    t = g.V().has(out_label, "id", out_id).addE(label).to(target)
    for key, value in props.items():
        t.property(key, value)
    return t


#: sample vertex property maps the insert builders are validated with
_SAMPLE_PROPS = {
    "person": {
        "id": 0, "firstName": "x", "lastName": "x", "gender": "x",
        "birthday": 0, "creationDate": 0, "browserUsed": "x",
        "locationIP": "x",
    },
    "forum": {"id": 0, "title": "x", "creationDate": 0},
    "post": {
        "id": 0, "creationDate": 0, "content": "x", "length": 0,
        "browserUsed": "x", "locationIP": "x", "language": "x",
    },
    "comment": {
        "id": 0, "creationDate": 0, "content": "x", "length": 0,
        "browserUsed": "x", "locationIP": "x",
    },
}


def _edge_entry(label, out_label, props=None):
    return (_q_add_edge, {
        "label": label, "out_label": out_label, "out_id": 0,
        "target": None, "props": props or {},
    })


#: operation -> ((builder, sample kwargs), ...); validated against the
#: schema catalog (see :mod:`repro.analysis`) at construction
GREMLIN_TRAVERSALS: dict[str, tuple] = {
    "vertex_by_id": (
        (_q_vertex_by_id, {"label": "person", "vid": 0}),
        (_q_vertex_by_id, {"label": "post", "vid": 0}),
        (_q_vertex_by_id, {"label": "comment", "vid": 0}),
    ),
    "point_lookup": ((_q_point_lookup, {"person_id": 0}),),
    "one_hop": ((_q_one_hop, {"person_id": 0}),),
    "two_hop": ((_q_two_hop, {"person_id": 0}),),
    "shortest_path": ((_q_shortest_path, {"person1": 0, "person2": 1}),),
    "person_profile": (
        (_q_point_lookup, {"person_id": 0}),
        (_q_person_city, {"person_id": 0}),
    ),
    "person_recent_posts": (
        (_q_person_recent_posts, {"person_id": 0, "limit": 10}),
    ),
    "person_friends": ((_q_person_friends, {"person_id": 0}),),
    "message_content": (
        (_q_message_value_map, {"label": "post", "message_id": 0}),
        (_q_message_value_map, {"label": "comment", "message_id": 0}),
    ),
    "message_creator": (
        (_q_message_creator, {"label": "post", "message_id": 0}),
        (_q_message_creator, {"label": "comment", "message_id": 0}),
    ),
    "message_forum": (
        (_q_post_forum, {"message_id": 0}),
        (_q_comment_forum, {"message_id": 0}),
        (_q_forum_moderator, {"forum_id": 0}),
    ),
    "message_replies": (
        (_q_message_replies, {"label": "post", "message_id": 0}),
        (_q_message_replies, {"label": "comment", "message_id": 0}),
        (_q_reply_creator, {"label": "comment", "message_id": 0}),
    ),
    "complex_two_hop": (
        (_q_complex_two_hop, {"person_id": 0, "limit": 20}),
    ),
    "friends_recent_posts": (
        (_q_friends_recent_posts, {"person_id": 0}),
        (_q_reply_creator, {"label": "post", "message_id": 0}),
        (_q_reply_creator, {"label": "comment", "message_id": 0}),
    ),
    "add_person": (
        (_q_add_vertex, {"label": "person",
                         "props": _SAMPLE_PROPS["person"]}),
        _edge_entry("isLocatedIn", "person"),
        _edge_entry("hasInterest", "person"),
    ),
    "add_friendship": (
        _edge_entry("knows", "person", {"creationDate": 0}),
    ),
    "add_forum": (
        (_q_add_vertex, {"label": "forum",
                         "props": _SAMPLE_PROPS["forum"]}),
        _edge_entry("hasModerator", "forum"),
        _edge_entry("hasTag", "forum"),
    ),
    "add_forum_membership": (
        _edge_entry("hasMember", "forum", {"joinDate": 0}),
    ),
    "add_post": (
        (_q_add_vertex, {"label": "post", "props": _SAMPLE_PROPS["post"]}),
        _edge_entry("hasCreator", "post"),
        _edge_entry("containerOf", "forum"),
        _edge_entry("isLocatedIn", "post"),
        _edge_entry("hasTag", "post"),
    ),
    "add_comment": (
        (_q_add_vertex, {"label": "comment",
                         "props": _SAMPLE_PROPS["comment"]}),
        _edge_entry("hasCreator", "comment"),
        _edge_entry("replyOf", "comment"),
        _edge_entry("rootPost", "comment"),
        _edge_entry("isLocatedIn", "comment"),
    ),
    "add_like": (
        _edge_entry("likes", "person", {"creationDate": 0}),
    ),
}


class GremlinConnector(Connector):
    """Shared Gremlin implementation; subclasses choose the backend."""

    language = "Gremlin"

    dialect = "gremlin"
    query_catalog = GREMLIN_TRAVERSALS

    def __init__(self, options: EngineOptions | None = None) -> None:
        super().__init__(options)
        self._validate_queries()
        self.provider = self._make_provider()
        self.server = GremlinServer(self.provider, options=self.options)

    def _make_provider(self) -> GraphProvider:
        raise NotImplementedError

    # -- loading -----------------------------------------------------------------

    def load(self, dataset: SnbDataset) -> None:
        load_dataset_into_provider(self.provider, dataset)
        self._flush_backend()

    def _flush_backend(self) -> None:
        backend = getattr(self.provider, "backend", None)
        if backend is not None and hasattr(backend, "flush"):
            backend.flush()

    def size_bytes(self) -> int:
        return self.provider.size_bytes()

    # -- helpers -------------------------------------------------------------------

    def _submit(self, build, key: str | None = None) -> list:
        """Submit a traversal; ``key`` names the parameterized script so
        the server's closure cache (compiled mode) can reuse it."""
        try:
            return self.server.submit(build, cache_key=key)
        except GremlinServerError as exc:
            raise OperationFailed(str(exc)) from exc

    # -- micro reads ------------------------------------------------------------------

    def point_lookup(self, person_id: int) -> tuple:
        maps = self._submit(
            lambda g: _q_point_lookup(g, person_id), key="point_lookup"
        )
        if not maps:
            return ()
        m = maps[0]
        return (m.get("firstName"), m.get("lastName"), m.get("gender"))

    def one_hop(self, person_id: int) -> list[int]:
        ids = self._submit(lambda g: _q_one_hop(g, person_id), key="one_hop")
        return sorted(ids)

    def two_hop(self, person_id: int) -> list[int]:
        ids = self._submit(lambda g: _q_two_hop(g, person_id), key="two_hop")
        return sorted(ids)

    def shortest_path(self, person1: int, person2: int) -> int | None:
        if person1 == person2:
            return 0
        paths = self._submit(
            lambda g: _q_shortest_path(g, person1, person2),
            key="shortest_path",
        )
        if not paths:
            return None
        return len(paths[0]) - 1

    # -- short reads ----------------------------------------------------------------------

    def person_profile(self, person_id: int) -> tuple:
        maps = self._submit(
            lambda g: _q_point_lookup(g, person_id), key="point_lookup"
        )
        if not maps:
            return ()
        m = maps[0]
        cities = self._submit(
            lambda g: _q_person_city(g, person_id), key="person_city"
        )
        return (
            m.get("firstName"), m.get("lastName"), m.get("gender"),
            m.get("birthday"), m.get("browserUsed"),
            cities[0] if cities else None,
        )

    def person_recent_posts(self, person_id: int, limit: int = 10) -> list:
        maps = self._submit(
            lambda g: _q_person_recent_posts(g, person_id, limit),
            key="person_recent_posts",
        )
        rows = [(m["id"], m.get("content"), m["creationDate"]) for m in maps]
        rows.sort(key=lambda r: (-r[2], -r[0]))
        return rows

    def person_friends(self, person_id: int) -> list[tuple]:
        maps = self._submit(
            lambda g: _q_person_friends(g, person_id), key="person_friends"
        )
        return [(m["id"], m.get("firstName"), m.get("lastName")) for m in maps]

    def message_content(self, message_id: int) -> tuple:
        for label in ("post", "comment"):
            maps = self._submit(
                lambda g, label=label: _q_message_value_map(
                    g, label, message_id
                ),
                key=f"message_value_map:{label}",
            )
            if maps:
                return (maps[0].get("content"), maps[0]["creationDate"])
        return ()

    def message_creator(self, message_id: int) -> tuple:
        for label in ("post", "comment"):
            maps = self._submit(
                lambda g, label=label: _q_message_creator(
                    g, label, message_id
                ),
                key=f"message_creator:{label}",
            )
            if maps:
                m = maps[0]
                return (m["id"], m.get("firstName"), m.get("lastName"))
        return ()

    def message_forum(self, message_id: int) -> tuple:
        maps = self._submit(
            lambda g: _q_post_forum(g, message_id), key="post_forum"
        )
        if not maps:
            maps = self._submit(
                lambda g: _q_comment_forum(g, message_id),
                key="comment_forum",
            )
        if not maps:
            return ()
        forum = maps[0]
        moderators = self._submit(
            lambda g: _q_forum_moderator(g, forum["id"]),
            key="forum_moderator",
        )
        return (forum["id"], forum.get("title"),
                moderators[0] if moderators else None)

    def message_replies(self, message_id: int) -> list[tuple]:
        replies = []
        for label in ("post", "comment"):
            exists = self._submit(
                lambda g, label=label: _q_vertex_by_id(
                    g, label, message_id
                ),
                key=f"vertex_by_id:{label}",
            )
            if not exists:
                continue
            maps = self._submit(
                lambda g, label=label: _q_message_replies(
                    g, label, message_id
                ),
                key=f"message_replies:{label}",
            )
            for m in maps:
                creators = self._submit(
                    lambda g, mid=m["id"]: _q_reply_creator(
                        g, "comment", mid
                    ),
                    key="reply_creator:comment",
                )
                replies.append(
                    (m["id"], creators[0] if creators else None,
                     m["creationDate"])
                )
            break
        return sorted(replies)

    def complex_two_hop(self, person_id: int, limit: int = 20) -> list[tuple]:
        maps = self._submit(
            lambda g: _q_complex_two_hop(g, person_id, limit),
            key="complex_two_hop",
        )
        return [(m["id"], m.get("firstName"), m.get("lastName")) for m in maps]

    def friends_recent_posts(
        self, person_id: int, limit: int = 10
    ) -> list[tuple]:
        # no server-side (date, id) compound ordering in the traversal
        # API: fetch the whole neighbourhood activity and sort client-side
        # (exactly the kind of work a declarative engine would push down)
        maps = self._submit(
            lambda g: _q_friends_recent_posts(g, person_id),
            key="friends_recent_posts",
        )
        maps.sort(key=lambda m: (-m["creationDate"], -m["id"]))
        maps = maps[:limit]
        rows = []
        for m in maps:
            # the creator is one more request per message: the friend id
            creators = self._submit(
                lambda g, mid=m["id"]: _q_reply_creator(
                    g, "post" if "language" in m else "comment", mid
                ),
                key="reply_creator:message",
            )
            rows.append(
                (m["id"], creators[0] if creators else None,
                 m.get("content"), m["creationDate"])
            )
        rows.sort(key=lambda r: (-r[3], -r[0]))
        return rows[:limit]

    # -- inserts -----------------------------------------------------------------------------

    def _add_vertex(self, label: str, props: dict) -> None:
        self._submit(
            lambda g: _q_add_vertex(g, label, props),
            key=f"add_vertex:{label}",
        )

    def _add_edge(
        self,
        label: str,
        out_label: str,
        out_id: int,
        in_label: str,
        in_id: int,
        props: dict | None = None,
    ) -> None:
        in_results = self._submit(
            lambda g: _q_vertex_by_id(g, in_label, in_id),
            key=f"vertex_by_id:{in_label}",
        )
        if not in_results:
            raise OperationFailed(f"no {in_label} {in_id}")
        target = in_results[0]
        self._submit(
            lambda g: _q_add_edge(
                g, label, out_label, out_id, target, props or {}
            ),
            key=f"add_edge:{label}:{out_label}",
        )

    # -- caching hooks -------------------------------------------------------------------------

    def cache_stats(self) -> list:
        return self.server.cache_stats()

    def add_person(self, person: Person) -> None:
        self._add_vertex("person", _person_props(person))
        self._add_edge("isLocatedIn", "person", person.id,
                       "place", person.city)
        for tag_id in person.interests:
            self._add_edge("hasInterest", "person", person.id,
                           "tag", tag_id)

    def add_friendship(self, knows: Knows) -> None:
        self._add_edge("knows", "person", knows.person1,
                       "person", knows.person2,
                       {"creationDate": knows.creation_date})

    def add_forum(self, forum: Forum) -> None:
        self._add_vertex("forum", _forum_props(forum))
        self._add_edge("hasModerator", "forum", forum.id,
                       "person", forum.moderator)
        for tag_id in forum.tags:
            self._add_edge("hasTag", "forum", forum.id, "tag", tag_id)

    def add_forum_membership(self, membership: ForumMembership) -> None:
        self._add_edge("hasMember", "forum", membership.forum,
                       "person", membership.person,
                       {"joinDate": membership.join_date})

    def add_post(self, post: Post) -> None:
        self._add_vertex("post", _post_props(post))
        self._add_edge("hasCreator", "post", post.id,
                       "person", post.creator)
        self._add_edge("containerOf", "forum", post.forum, "post", post.id)
        self._add_edge("isLocatedIn", "post", post.id,
                       "place", post.country)
        for tag_id in post.tags:
            self._add_edge("hasTag", "post", post.id, "tag", tag_id)

    def add_comment(self, comment: Comment) -> None:
        self._add_vertex("comment", _comment_props(comment))
        self._add_edge("hasCreator", "comment", comment.id,
                       "person", comment.creator)
        # replyOf target may be a post or a comment: resolve by probe
        for label in ("post", "comment"):
            try:
                self._add_edge("replyOf", "comment", comment.id,
                               label, comment.reply_of)
                break
            except OperationFailed:
                continue
        self._add_edge("rootPost", "comment", comment.id,
                       "post", comment.root_post)
        self._add_edge("isLocatedIn", "comment", comment.id,
                       "place", comment.country)

    def add_like(self, like: Like) -> None:
        for label in ("post", "comment"):
            try:
                self._add_edge("likes", "person", like.person,
                               label, like.message,
                               {"creationDate": like.creation_date})
                return
            except OperationFailed:
                continue
        raise OperationFailed(f"no message {like.message}")


def _anon_both_knows():
    from repro.tinkerpop import anon

    return anon().both("knows").simplePath()


def _anon_has_id(person_id: int):
    from repro.tinkerpop import anon

    return anon().has("id", P.eq(person_id))


class Neo4jGremlinConnector(GremlinConnector):
    """Neo4j reached through the Gremlin Server (same store as Cypher)."""

    key = "neo4j-gremlin"
    system = "Neo4j"

    def _make_provider(self) -> GraphProvider:
        provider = Neo4jProvider()
        for label, key in VERTEX_INDEXES:
            provider.store.create_index(label, key)
        return provider

    def sanitize_targets(self) -> dict[str, object]:
        return {"graph": self.provider.store}

    def supports_concurrent_loading(self) -> bool:
        """Neo4j (Gremlin) does not support concurrent loading (App. A)."""
        return False


class TitanCassandraConnector(GremlinConnector):
    key = "titan-c"
    system = "Titan-C"

    def _make_provider(self) -> GraphProvider:
        provider = titan_cassandra()
        for label, key in VERTEX_INDEXES:
            provider.create_index(label, key)
        return provider

    def sanitize_targets(self) -> dict[str, object]:
        return {"titan": self.provider}


class TitanBerkeleyConnector(GremlinConnector):
    key = "titan-b"
    system = "Titan-B"
    write_resources = ("titan-b-writer",)

    def _make_provider(self) -> GraphProvider:
        provider = titan_berkeley()
        for label, key in VERTEX_INDEXES:
            provider.create_index(label, key)
        return provider

    def sanitize_targets(self) -> dict[str, object]:
        return {"titan": self.provider}


class SqlgConnector(GremlinConnector):
    key = "sqlg"
    system = "Sqlg"

    def _make_provider(self) -> GraphProvider:
        provider = SqlgProvider()
        # private options (see set_isolation_level): start them at the
        # level of the options this connector was built with
        provider.db.options.isolation_level = self.options.isolation_level
        provider.define_vertex_label("person", {
            "id": int, "firstName": str, "lastName": str, "gender": str,
            "birthday": int, "creationDate": int, "browserUsed": str,
            "locationIP": str,
        })
        provider.define_vertex_label("forum", {
            "id": int, "title": str, "creationDate": int,
        })
        provider.define_vertex_label("post", {
            "id": int, "creationDate": int, "content": str, "length": int,
            "browserUsed": str, "locationIP": str, "language": str,
        })
        provider.define_vertex_label("comment", {
            "id": int, "creationDate": int, "content": str, "length": int,
            "browserUsed": str, "locationIP": str,
        })
        provider.define_vertex_label("tag", {"id": int, "name": str})
        provider.define_vertex_label("tagclass", {"id": int, "name": str})
        provider.define_vertex_label(
            "place", {"id": int, "name": str, "type": str}
        )
        provider.define_vertex_label(
            "organisation", {"id": int, "name": str, "type": str}
        )
        for edge_label, props in [
            ("knows", {"creationDate": int}),
            ("hasMember", {"joinDate": int}),
            ("hasModerator", {}),
            ("containerOf", {}),
            ("hasCreator", {}),
            ("replyOf", {}),
            ("rootPost", {}),
            ("likes", {"creationDate": int}),
            ("hasTag", {}),
            ("hasInterest", {}),
            ("isLocatedIn", {}),
            ("isPartOf", {}),
            ("isSubclassOf", {}),
            ("hasType", {}),
            ("studyAt", {"classYear": int}),
            ("workAt", {"workFrom": int}),
        ]:
            provider.define_edge_label(edge_label, props)
        return provider

    def set_isolation_level(self, level: str) -> None:
        # trajectory finding 5: sqlg's backing Database keeps private
        # options, so ``interpreted`` stops at the Gremlin server and its
        # per-step SQL still runs compiled (benchmarks/trajectory pins
        # that).  The follow-up passes options=self.options to
        # SqlgProvider and deletes this override.
        super().set_isolation_level(level)
        self.provider.db.options.isolation_level = level

    def sanitize_targets(self) -> dict[str, object]:
        return {"sqlg": self.provider.db}
