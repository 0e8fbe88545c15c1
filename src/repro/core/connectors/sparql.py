"""Virtuoso (SPARQL) connector: the RDF single-table configuration.

Entities become IRIs (``sn:pers123``); every attribute and edge becomes a
triple, and edges that carry properties (knows / membership / likes) add a
reified statement node — the triple blow-up whose index maintenance cost
the paper blames for SPARQL's ~3x slower writes.

Shortest path: SPARQL 1.1 property paths do not expose path *length*, so
as in the LDBC reference implementation the client runs an iterative BFS,
one frontier query per level (``FILTER(?s IN (...))``).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.connectors.base import Connector
from repro.options import EngineOptions
from repro.rdf import RdfDatabase
from repro.simclock.ledger import charge
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


def _pers(pid: int) -> str:
    return f"sn:pers{pid}"


def _forum(fid: int) -> str:
    return f"sn:forum{fid}"


def _msg(mid: int) -> str:
    return f"sn:msg{mid}"


def _tag(tid: int) -> str:
    return f"sn:tag{tid}"


def _place(pid: int) -> str:
    return f"sn:place{pid}"


def _org(oid: int) -> str:
    return f"sn:org{oid}"


#: every read query the connector issues, by operation.  LIMIT-bearing
#: queries are stored without the clause (appended at call time);
#: ``shortest_path`` substitutes the frontier node IRI for ``$node``.
#: Inserts go through :meth:`RdfDatabase.insert_triples` and carry no
#: query text.  Validated against the schema catalog (see
#: :mod:`repro.analysis`) at construction.
SPARQL_QUERIES: dict[str, tuple[str, ...]] = {
    "point_lookup": (
        "SELECT ?fn ?ln ?g WHERE { ?p snb:id $id . "
        "?p rdf:type snb:Person . ?p snb:firstName ?fn . "
        "?p snb:lastName ?ln . ?p snb:gender ?g }",
    ),
    "one_hop": (
        "SELECT ?fid WHERE { ?p snb:id $id . ?p rdf:type snb:Person . "
        "?p snb:knows ?f . ?f snb:id ?fid } ORDER BY ?fid",
    ),
    "two_hop": (
        "SELECT DISTINCT ?fofid WHERE { ?p snb:id $id . "
        "?p rdf:type snb:Person . ?p snb:knows ?f . "
        "?f snb:knows ?fof . ?fof snb:id ?fofid . "
        "FILTER(?fofid != $id) } ORDER BY ?fofid",
    ),
    "shortest_path": (
        "SELECT ?n WHERE { $node snb:knows ?n }",
    ),
    "person_profile": (
        "SELECT ?fn ?ln ?g ?bd ?b ?cid WHERE { ?p snb:id $id . "
        "?p rdf:type snb:Person . ?p snb:firstName ?fn . "
        "?p snb:lastName ?ln . ?p snb:gender ?g . "
        "?p snb:birthday ?bd . ?p snb:browserUsed ?b . "
        "?p snb:isLocatedIn ?c . ?c snb:id ?cid }",
    ),
    "person_recent_posts": (
        "SELECT ?mid ?content ?d WHERE { ?p snb:id $id . "
        "?p rdf:type snb:Person . ?m snb:hasCreator ?p . "
        "?m snb:id ?mid . ?m snb:content ?content . "
        "?m snb:creationDate ?d } ORDER BY DESC(?d) DESC(?mid)",
    ),
    "person_friends": (
        "SELECT ?fid ?fn ?ln WHERE { ?p snb:id $id . "
        "?p rdf:type snb:Person . ?p snb:knows ?f . ?f snb:id ?fid . "
        "?f snb:firstName ?fn . ?f snb:lastName ?ln } ORDER BY ?fid",
    ),
    "message_content": (
        "SELECT ?content ?d WHERE { ?m snb:id $id . "
        "?m snb:content ?content . ?m snb:creationDate ?d }",
    ),
    "message_creator": (
        "SELECT ?pid ?fn ?ln WHERE { ?m snb:id $id . "
        "?m snb:content ?c . ?m snb:hasCreator ?p . ?p snb:id ?pid . "
        "?p snb:firstName ?fn . ?p snb:lastName ?ln }",
    ),
    "message_forum": (
        "SELECT ?fid ?title ?modid WHERE { ?m snb:id $id . "
        "?m rdf:type snb:Post . ?f snb:containerOf ?m . "
        "?f snb:id ?fid . ?f snb:title ?title . "
        "?f snb:hasModerator ?mod . ?mod snb:id ?modid }",
        "SELECT ?fid ?title ?modid WHERE { ?m snb:id $id . "
        "?m rdf:type snb:Comment . ?m snb:rootPost ?root . "
        "?f snb:containerOf ?root . ?f snb:id ?fid . "
        "?f snb:title ?title . ?f snb:hasModerator ?mod . "
        "?mod snb:id ?modid }",
    ),
    "message_replies": (
        "SELECT ?cid ?pid ?d WHERE { ?m snb:id $id . "
        "?m snb:content ?x . ?c snb:replyOf ?m . ?c snb:id ?cid . "
        "?c snb:hasCreator ?p . ?p snb:id ?pid . "
        "?c snb:creationDate ?d } ORDER BY ?cid",
    ),
    "complex_two_hop": (
        "SELECT DISTINCT ?fofid ?fn ?ln WHERE { ?p snb:id $id . "
        "?p rdf:type snb:Person . ?p snb:knows ?f . "
        "?f snb:knows ?fof . ?fof snb:id ?fofid . "
        "?fof snb:firstName ?fn . ?fof snb:lastName ?ln . "
        "FILTER(?fofid != $id) } ORDER BY ?fofid",
    ),
    "friends_recent_posts": (
        "SELECT ?mid ?fid ?content ?d WHERE { ?p snb:id $id . "
        "?p rdf:type snb:Person . ?p snb:knows ?f . ?f snb:id ?fid . "
        "?m snb:hasCreator ?f . ?m snb:id ?mid . "
        "?m snb:content ?content . ?m snb:creationDate ?d } "
        "ORDER BY DESC(?d) DESC(?mid)",
    ),
    # -- insert templates -----------------------------------------------------
    # Anchored SELECT patterns mirroring the ``_*_triples`` builders
    # below, pattern for pattern: the linter derives each insert's
    # schema footprint from these, and the cross-dialect QA403 pass
    # compares it against the other dialects' insert footprints.
    # Reified-statement subjects (``sn:knows{n}`` …) carry only their
    # statement predicates here — their ``creationDate`` literal is an
    # annotation of the statement, not of a schema entity.
    "add_person": (
        "SELECT ?p WHERE { ?p snb:id $id . ?p rdf:type snb:Person . "
        "?p snb:firstName ?fn . ?p snb:lastName ?ln . "
        "?p snb:gender ?g . ?p snb:birthday ?bd . "
        "?p snb:creationDate ?cd . ?p snb:browserUsed ?b . "
        "?p snb:locationIP ?ip . ?p snb:isLocatedIn ?city . "
        "?city rdf:type snb:Place . ?p snb:speaks ?lang . "
        "?p snb:email ?em . ?p snb:hasInterest ?t . "
        "?t rdf:type snb:Tag . ?p snb:studyAt ?u . "
        "?p snb:workAt ?co }",
    ),
    "add_friendship": (
        "SELECT ?f WHERE { ?p snb:id $id1 . ?f snb:id $id2 . "
        "?p rdf:type snb:Person . ?f rdf:type snb:Person . "
        "?p snb:knows ?f . ?f snb:knows ?p . "
        "?s snb:knowsFrom ?p . ?s snb:knowsTo ?f }",
    ),
    "add_forum": (
        "SELECT ?f WHERE { ?f snb:id $id . ?f rdf:type snb:Forum . "
        "?f snb:title ?t . ?f snb:creationDate ?cd . "
        "?f snb:hasModerator ?mod . ?f snb:hasTag ?tag . "
        "?tag rdf:type snb:Tag }",
    ),
    "add_forum_membership": (
        "SELECT ?f WHERE { ?f snb:id $fid . ?p snb:id $pid . "
        "?f rdf:type snb:Forum . ?p rdf:type snb:Person . "
        "?f snb:hasMember ?p . ?s snb:memberForum ?f . "
        "?s snb:memberPerson ?p . ?s snb:joinDate ?jd }",
    ),
    "add_post": (
        "SELECT ?m WHERE { ?m snb:id $id . ?m rdf:type snb:Post . "
        "?m snb:creationDate ?cd . ?m snb:content ?c . "
        "?m snb:length ?len . ?m snb:browserUsed ?b . "
        "?m snb:locationIP ?ip . ?m snb:language ?lang . "
        "?m snb:hasCreator ?p . ?f snb:containerOf ?m . "
        "?m snb:isLocatedIn ?ctry . ?m snb:hasTag ?t . "
        "?t rdf:type snb:Tag }",
    ),
    "add_comment": (
        "SELECT ?m WHERE { ?m snb:id $id . ?m rdf:type snb:Comment . "
        "?m snb:creationDate ?cd . ?m snb:content ?c . "
        "?m snb:length ?len . ?m snb:browserUsed ?b . "
        "?m snb:locationIP ?ip . ?m snb:hasCreator ?p . "
        "?m snb:replyOf ?r . ?m snb:rootPost ?rp . "
        "?m snb:isLocatedIn ?ctry . ?m snb:hasTag ?t . "
        "?t rdf:type snb:Tag }",
    ),
    "add_like": (
        "SELECT ?p WHERE { ?p snb:id $pid . ?m snb:id $mid . "
        "?p rdf:type snb:Person . ?p snb:likes ?m . "
        "?s snb:likePerson ?p . ?s snb:likeMessage ?m }",
    ),
}


class VirtuosoSparqlConnector(Connector):
    key = "virtuoso-sparql"
    system = "Virtuoso"
    language = "SPARQL"

    dialect = "sparql"
    query_catalog = SPARQL_QUERIES

    def __init__(self, options: EngineOptions | None = None) -> None:
        super().__init__(options)
        self._validate_queries()
        self.db = RdfDatabase("virtuoso-rdf", self.options)
        self._statement_seq = 0

    def sanitize_targets(self) -> dict[str, object]:
        return {"rdf": self.db.store, "wal": self.db.wal}

    # -- loading --------------------------------------------------------------------

    def load(self, dataset: SnbDataset) -> None:
        self.db.insert_triples(self._dataset_triples(dataset))
        self.db.analyze()

    def _dataset_triples(self, dataset: SnbDataset) -> Iterator[tuple]:
        """Every triple of ``dataset`` in load order, entity by entity."""
        for place in dataset.places:
            iri = _place(place.id)
            yield (iri, "rdf:type", "snb:Place")
            yield (iri, "snb:id", place.id)
            yield (iri, "snb:name", place.name)
            if place.part_of is not None:
                yield (iri, "snb:isPartOf", _place(place.part_of))
        for tc in dataset.tag_classes:
            iri = f"sn:tagclass{tc.id}"
            yield (iri, "rdf:type", "snb:TagClass")
            yield (iri, "snb:id", tc.id)
            yield (iri, "snb:name", tc.name)
        for tag in dataset.tags:
            iri = _tag(tag.id)
            yield (iri, "rdf:type", "snb:Tag")
            yield (iri, "snb:id", tag.id)
            yield (iri, "snb:name", tag.name)
            yield (iri, "snb:hasType", f"sn:tagclass{tag.tag_class}")
        for org in dataset.organisations:
            iri = _org(org.id)
            yield (iri, "rdf:type", "snb:Organisation")
            yield (iri, "snb:id", org.id)
            yield (iri, "snb:name", org.name)
            yield (iri, "snb:isLocatedIn", _place(org.place))
        for person in dataset.persons:
            yield from self._person_triples(person)
        for knows in dataset.knows:
            yield from self._knows_triples(knows)
        for forum in dataset.forums:
            yield from self._forum_triples(forum)
        for m in dataset.memberships:
            yield from self._membership_triples(m)
        for post in dataset.posts:
            yield from self._post_triples(post)
        for comment in dataset.comments:
            yield from self._comment_triples(comment)
        for like in dataset.likes:
            yield from self._like_triples(like)

    def _person_triples(self, person: Person) -> list[tuple]:
        iri = _pers(person.id)
        triples = [
            (iri, "rdf:type", "snb:Person"),
            (iri, "snb:id", person.id),
            (iri, "snb:firstName", person.first_name),
            (iri, "snb:lastName", person.last_name),
            (iri, "snb:gender", person.gender),
            (iri, "snb:birthday", person.birthday),
            (iri, "snb:creationDate", person.creation_date),
            (iri, "snb:browserUsed", person.browser_used),
            (iri, "snb:locationIP", person.location_ip),
            (iri, "snb:isLocatedIn", _place(person.city)),
        ]
        for language in person.speaks:
            triples.append((iri, "snb:speaks", language))
        for email in person.emails:
            triples.append((iri, "snb:email", email))
        for tag_id in person.interests:
            triples.append((iri, "snb:hasInterest", _tag(tag_id)))
        if person.university is not None:
            triples.append((iri, "snb:studyAt", _org(person.university)))
        if person.company is not None:
            triples.append((iri, "snb:workAt", _org(person.company)))
        return triples

    def _knows_triples(self, knows: Knows) -> list[tuple]:
        self._statement_seq += 1
        stmt = f"sn:knows{self._statement_seq}"
        return [
            (_pers(knows.person1), "snb:knows", _pers(knows.person2)),
            (_pers(knows.person2), "snb:knows", _pers(knows.person1)),
            (stmt, "snb:knowsFrom", _pers(knows.person1)),
            (stmt, "snb:knowsTo", _pers(knows.person2)),
            (stmt, "snb:creationDate", knows.creation_date),
        ]

    def _forum_triples(self, forum: Forum) -> list[tuple]:
        iri = _forum(forum.id)
        triples = [
            (iri, "rdf:type", "snb:Forum"),
            (iri, "snb:id", forum.id),
            (iri, "snb:title", forum.title),
            (iri, "snb:creationDate", forum.creation_date),
            (iri, "snb:hasModerator", _pers(forum.moderator)),
        ]
        for tag_id in forum.tags:
            triples.append((iri, "snb:hasTag", _tag(tag_id)))
        return triples

    def _membership_triples(self, m: ForumMembership) -> list[tuple]:
        self._statement_seq += 1
        stmt = f"sn:memb{self._statement_seq}"
        return [
            (_forum(m.forum), "snb:hasMember", _pers(m.person)),
            (stmt, "snb:memberForum", _forum(m.forum)),
            (stmt, "snb:memberPerson", _pers(m.person)),
            (stmt, "snb:joinDate", m.join_date),
        ]

    def _post_triples(self, post: Post) -> list[tuple]:
        iri = _msg(post.id)
        triples = [
            (iri, "rdf:type", "snb:Post"),
            (iri, "snb:id", post.id),
            (iri, "snb:creationDate", post.creation_date),
            (iri, "snb:content", post.content),
            (iri, "snb:length", post.length),
            (iri, "snb:browserUsed", post.browser_used),
            (iri, "snb:locationIP", post.location_ip),
            (iri, "snb:language", post.language),
            (iri, "snb:hasCreator", _pers(post.creator)),
            (_forum(post.forum), "snb:containerOf", iri),
            (iri, "snb:isLocatedIn", _place(post.country)),
        ]
        for tag_id in post.tags:
            triples.append((iri, "snb:hasTag", _tag(tag_id)))
        return triples

    def _comment_triples(self, comment: Comment) -> list[tuple]:
        iri = _msg(comment.id)
        triples = [
            (iri, "rdf:type", "snb:Comment"),
            (iri, "snb:id", comment.id),
            (iri, "snb:creationDate", comment.creation_date),
            (iri, "snb:content", comment.content),
            (iri, "snb:length", comment.length),
            (iri, "snb:browserUsed", comment.browser_used),
            (iri, "snb:locationIP", comment.location_ip),
            (iri, "snb:hasCreator", _pers(comment.creator)),
            (iri, "snb:replyOf", _msg(comment.reply_of)),
            (iri, "snb:rootPost", _msg(comment.root_post)),
            (iri, "snb:isLocatedIn", _place(comment.country)),
        ]
        for tag_id in comment.tags:
            triples.append((iri, "snb:hasTag", _tag(tag_id)))
        return triples

    def _like_triples(self, like: Like) -> list[tuple]:
        self._statement_seq += 1
        stmt = f"sn:like{self._statement_seq}"
        return [
            (_pers(like.person), "snb:likes", _msg(like.message)),
            (stmt, "snb:likePerson", _pers(like.person)),
            (stmt, "snb:likeMessage", _msg(like.message)),
            (stmt, "snb:creationDate", like.creation_date),
        ]

    def size_bytes(self) -> int:
        return self.db.size_bytes()

    # -- reads ------------------------------------------------------------------------

    def _query(self, sparql: str, params: dict | None = None) -> list[tuple]:
        charge("client_rtt")
        return self.db.execute(sparql, params)

    def point_lookup(self, person_id: int) -> tuple:
        rows = self._query(
            SPARQL_QUERIES["point_lookup"][0], {"id": person_id}
        )
        return rows[0] if rows else ()

    def one_hop(self, person_id: int) -> list[int]:
        rows = self._query(SPARQL_QUERIES["one_hop"][0], {"id": person_id})
        return [r[0] for r in rows]

    def two_hop(self, person_id: int) -> list[int]:
        rows = self._query(SPARQL_QUERIES["two_hop"][0], {"id": person_id})
        return [r[0] for r in rows]

    def shortest_path(self, person1: int, person2: int) -> int | None:
        if person1 == person2:
            return 0
        target = _pers(person2)
        frontier = [_pers(person1)]
        seen = set(frontier)
        for depth in range(1, 13):
            next_frontier = []
            found = False
            for node in frontier:
                # one SPARQL query per frontier node (the LDBC reference
                # SPARQL implementation's expansion style); the node IRI
                # is inlined, so every query re-parses and re-translates.
                # The whole level is expanded before the target check —
                # the client batches per level.
                rows = self._query(
                    SPARQL_QUERIES["shortest_path"][0].replace(
                        "$node", node
                    )
                )
                for (neighbour,) in rows:
                    if neighbour == target:
                        found = True
                    elif neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append(neighbour)
            if found:
                return depth
            if not next_frontier:
                return None
            frontier = next_frontier
        return None

    def person_profile(self, person_id: int) -> tuple:
        rows = self._query(
            SPARQL_QUERIES["person_profile"][0], {"id": person_id}
        )
        return rows[0] if rows else ()

    def person_recent_posts(self, person_id: int, limit: int = 10) -> list:
        rows = self._query(
            SPARQL_QUERIES["person_recent_posts"][0]
            + f" LIMIT {int(limit)}",
            {"id": person_id},
        )
        return rows

    def person_friends(self, person_id: int) -> list[tuple]:
        return self._query(
            SPARQL_QUERIES["person_friends"][0], {"id": person_id}
        )

    def message_content(self, message_id: int) -> tuple:
        rows = self._query(
            SPARQL_QUERIES["message_content"][0], {"id": message_id}
        )
        return rows[0] if rows else ()

    def message_creator(self, message_id: int) -> tuple:
        rows = self._query(
            SPARQL_QUERIES["message_creator"][0], {"id": message_id}
        )
        return rows[0] if rows else ()

    def message_forum(self, message_id: int) -> tuple:
        rows = self._query(
            SPARQL_QUERIES["message_forum"][0], {"id": message_id}
        )
        if not rows:
            rows = self._query(
                SPARQL_QUERIES["message_forum"][1], {"id": message_id}
            )
        return rows[0] if rows else ()

    def message_replies(self, message_id: int) -> list[tuple]:
        return self._query(
            SPARQL_QUERIES["message_replies"][0], {"id": message_id}
        )

    def complex_two_hop(self, person_id: int, limit: int = 20) -> list[tuple]:
        return self._query(
            SPARQL_QUERIES["complex_two_hop"][0] + f" LIMIT {int(limit)}",
            {"id": person_id},
        )

    def friends_recent_posts(
        self, person_id: int, limit: int = 10
    ) -> list[tuple]:
        return self._query(
            SPARQL_QUERIES["friends_recent_posts"][0]
            + f" LIMIT {int(limit)}",
            {"id": person_id},
        )

    # -- inserts ----------------------------------------------------------------------------

    def add_person(self, person: Person) -> None:
        charge("client_rtt")
        self.db.insert_triples(self._person_triples(person))

    def add_friendship(self, knows: Knows) -> None:
        charge("client_rtt")
        self.db.insert_triples(self._knows_triples(knows))

    def add_forum(self, forum: Forum) -> None:
        charge("client_rtt")
        self.db.insert_triples(self._forum_triples(forum))

    def add_forum_membership(self, membership: ForumMembership) -> None:
        charge("client_rtt")
        self.db.insert_triples(self._membership_triples(membership))

    def add_post(self, post: Post) -> None:
        charge("client_rtt")
        self.db.insert_triples(self._post_triples(post))

    def add_comment(self, comment: Comment) -> None:
        charge("client_rtt")
        self.db.insert_triples(self._comment_triples(comment))

    def add_like(self, like: Like) -> None:
        charge("client_rtt")
        self.db.insert_triples(self._like_triples(like))

    # -- batching / caching hooks -----------------------------------------------------------

    def apply_update_batch(self, events: list) -> None:
        """Group commit: one WAL fsync for the whole poll of events."""
        with self.db.wal.group():
            for event in events:
                self.apply_update(event)

    def cache_stats(self) -> list:
        return self.db.cache_stats()
