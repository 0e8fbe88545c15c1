"""Neo4j (Cypher) connector: native graph storage, declarative queries.

Bulk loading uses the store API directly (the ``neo4j-import`` fast path);
reads and updates go through the Cypher engine.  Posts and comments carry
a second ``Message`` label so a single index serves message lookups, as in
the LDBC Cypher implementation.
"""

from __future__ import annotations

from repro.core.connectors.base import Connector
from repro.graphdb.engine import GraphDatabase
from repro.options import EngineOptions
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

#: every Cypher statement the connector issues, by operation.  Queries
#: with a caller-supplied LIMIT are stored without the clause; the
#: methods append ``LIMIT <n>`` at call time.  The catalog is validated
#: against the schema (see :mod:`repro.analysis`) at construction.
CYPHER_QUERIES: dict[str, tuple[str, ...]] = {
    "point_lookup": (
        "MATCH (p:Person {id: $id}) "
        "RETURN p.firstName, p.lastName, p.gender",
    ),
    "one_hop": (
        "MATCH (p:Person {id: $id})-[:KNOWS]-(f:Person) "
        "RETURN f.id AS id ORDER BY id",
    ),
    "two_hop": (
        "MATCH (p:Person {id: $id})-[:KNOWS]-(x:Person)"
        "-[:KNOWS]-(f:Person) WHERE f.id <> $id "
        "RETURN DISTINCT f.id AS id ORDER BY id",
    ),
    "shortest_path": (
        "MATCH p = shortestPath((a:Person {id: $a})-[:KNOWS*]-"
        "(b:Person {id: $b})) RETURN length(p)",
    ),
    "person_profile": (
        "MATCH (p:Person {id: $id})-[:IS_LOCATED_IN]->(c:Place) "
        "RETURN p.firstName, p.lastName, p.gender, p.birthday, "
        "p.browserUsed, c.id",
    ),
    "person_recent_posts": (
        "MATCH (p:Person {id: $id})<-[:HAS_CREATOR]-(m:Message) "
        "RETURN m.id AS id, m.content AS content, "
        "m.creationDate AS d ORDER BY d DESC, id DESC",
    ),
    "person_friends": (
        "MATCH (p:Person {id: $id})-[:KNOWS]-(f:Person) "
        "RETURN f.id AS id, f.firstName AS fn, f.lastName AS ln "
        "ORDER BY id",
    ),
    "message_content": (
        "MATCH (m:Message {id: $id}) RETURN m.content, m.creationDate",
    ),
    "message_creator": (
        "MATCH (m:Message {id: $id})-[:HAS_CREATOR]->(p:Person) "
        "RETURN p.id, p.firstName, p.lastName",
    ),
    "message_forum": (
        "MATCH (m:Post {id: $id})<-[:CONTAINER_OF]-(f:Forum)"
        "-[:HAS_MODERATOR]->(mod:Person) "
        "RETURN f.id, f.title, mod.id",
        "MATCH (c:Comment {id: $id})-[:ROOT_POST]->(:Post)"
        "<-[:CONTAINER_OF]-(f:Forum)-[:HAS_MODERATOR]->(mod:Person) "
        "RETURN f.id, f.title, mod.id",
    ),
    "message_replies": (
        "MATCH (m:Message {id: $id})<-[:REPLY_OF]-(c:Comment)"
        "-[:HAS_CREATOR]->(p:Person) "
        "RETURN c.id AS id, p.id AS pid, c.creationDate AS d "
        "ORDER BY id",
    ),
    "complex_two_hop": (
        "MATCH (p:Person {id: $id})-[:KNOWS]-(x:Person)"
        "-[:KNOWS]-(f:Person) WHERE f.id <> $id "
        "RETURN DISTINCT f.id AS id, f.firstName AS fn, "
        "f.lastName AS ln ORDER BY id",
    ),
    "friends_recent_posts": (
        "MATCH (p:Person {id: $id})-[:KNOWS]-(f:Person)"
        "<-[:HAS_CREATOR]-(m:Message) "
        "RETURN m.id AS id, f.id AS fid, m.content AS content, "
        "m.creationDate AS d ORDER BY d DESC, id DESC",
    ),
    "add_person": (
        "CREATE (p:Person {id: $id, firstName: $fn, lastName: $ln, "
        "gender: $g, birthday: $bd, creationDate: $cd, "
        "locationIP: $ip, browserUsed: $b})",
        "MATCH (p:Person {id: $id}), (c:Place {id: $city}) "
        "CREATE (p)-[:IS_LOCATED_IN]->(c)",
        "MATCH (p:Person {id: $id}), (t:Tag {id: $tag}) "
        "CREATE (p)-[:HAS_INTEREST]->(t)",
    ),
    "add_friendship": (
        "MATCH (a:Person {id: $a}), (b:Person {id: $b}) "
        "CREATE (a)-[:KNOWS {creationDate: $d}]->(b)",
    ),
    "add_forum": (
        "CREATE (f:Forum {id: $id, title: $t, creationDate: $d})",
        "MATCH (f:Forum {id: $id}), (p:Person {id: $mod}) "
        "CREATE (f)-[:HAS_MODERATOR]->(p)",
        "MATCH (f:Forum {id: $id}), (t:Tag {id: $tag}) "
        "CREATE (f)-[:HAS_TAG]->(t)",
    ),
    "add_forum_membership": (
        "MATCH (f:Forum {id: $f}), (p:Person {id: $p}) "
        "CREATE (f)-[:HAS_MEMBER {joinDate: $d}]->(p)",
    ),
    "add_post": (
        "CREATE (m:Post:Message {id: $id, creationDate: $d, "
        "content: $c, length: $l, browserUsed: $b, locationIP: $ip, "
        "language: $lang})",
        "MATCH (m:Post {id: $id}), (p:Person {id: $creator}), "
        "(f:Forum {id: $forum}), (c:Place {id: $country}) "
        "CREATE (m)-[:HAS_CREATOR]->(p), (f)-[:CONTAINER_OF]->(m), "
        "(m)-[:IS_LOCATED_IN]->(c)",
        "MATCH (m:Post {id: $id}), (t:Tag {id: $tag}) "
        "CREATE (m)-[:HAS_TAG]->(t)",
    ),
    "add_comment": (
        "CREATE (m:Comment:Message {id: $id, creationDate: $d, "
        "content: $c, length: $l, browserUsed: $b, locationIP: $ip})",
        "MATCH (m:Comment {id: $id}), (p:Person {id: $creator}), "
        "(parent:Message {id: $parent}), (root:Post {id: $root}), "
        "(c:Place {id: $country}) "
        "CREATE (m)-[:HAS_CREATOR]->(p), (m)-[:REPLY_OF]->(parent), "
        "(m)-[:ROOT_POST]->(root), (m)-[:IS_LOCATED_IN]->(c)",
    ),
    "add_like": (
        "MATCH (p:Person {id: $p}), (m:Message {id: $m}) "
        "CREATE (p)-[:LIKES {creationDate: $d}]->(m)",
    ),
}


class CypherConnector(Connector):
    key = "neo4j-cypher"
    system = "Neo4j"
    language = "Cypher"

    dialect = "cypher"
    query_catalog = CYPHER_QUERIES

    def __init__(self, options: EngineOptions | None = None) -> None:
        super().__init__(options)
        self._validate_queries()
        self.db = GraphDatabase("neo4j", self.options)
        for label in ("Person", "Forum", "Message", "Tag", "Place",
                      "Organisation", "TagClass"):
            self.db.create_index(label, "id")
        self._node_of: dict[int, int] = {}  # snb id -> store node id

    def sanitize_targets(self) -> dict[str, object]:
        return {"graph": self.db.store, "wal": self.db.wal}

    # -- loading ------------------------------------------------------------------

    def load(self, dataset: SnbDataset) -> None:
        store = self.db.store
        node_of = self._node_of
        for place in dataset.places:
            node_of[place.id] = store.create_node(
                ("Place",),
                {"id": place.id, "name": place.name, "type": place.kind},
            )
        for place in dataset.places:
            if place.part_of is not None:
                store.create_rel(
                    "IS_PART_OF", node_of[place.id], node_of[place.part_of]
                )
        for tc in dataset.tag_classes:
            node_of[tc.id] = store.create_node(
                ("TagClass",), {"id": tc.id, "name": tc.name}
            )
        for tc in dataset.tag_classes:
            if tc.subclass_of is not None:
                store.create_rel(
                    "IS_SUBCLASS_OF", node_of[tc.id], node_of[tc.subclass_of]
                )
        for tag in dataset.tags:
            node_of[tag.id] = store.create_node(
                ("Tag",), {"id": tag.id, "name": tag.name}
            )
            store.create_rel(
                "HAS_TYPE", node_of[tag.id], node_of[tag.tag_class]
            )
        for org in dataset.organisations:
            node_of[org.id] = store.create_node(
                ("Organisation",),
                {"id": org.id, "name": org.name, "type": org.kind},
            )
            store.create_rel(
                "IS_LOCATED_IN", node_of[org.id], node_of[org.place]
            )
        for person in dataset.persons:
            self._load_person_direct(person)
        for knows in dataset.knows:
            store.create_rel(
                "KNOWS",
                node_of[knows.person1],
                node_of[knows.person2],
                {"creationDate": knows.creation_date},
            )
        for forum in dataset.forums:
            self._load_forum_direct(forum)
        for m in dataset.memberships:
            store.create_rel(
                "HAS_MEMBER",
                node_of[m.forum],
                node_of[m.person],
                {"joinDate": m.join_date},
            )
        for post in dataset.posts:
            self._load_post_direct(post)
        for comment in dataset.comments:
            self._load_comment_direct(comment)
        for like in dataset.likes:
            store.create_rel(
                "LIKES",
                node_of[like.person],
                node_of[like.message],
                {"creationDate": like.creation_date},
            )
        self.db.analyze()

    def _load_person_direct(self, person: Person) -> None:
        store = self.db.store
        node = store.create_node(
            ("Person",),
            {
                "id": person.id,
                "firstName": person.first_name,
                "lastName": person.last_name,
                "gender": person.gender,
                "birthday": person.birthday,
                "creationDate": person.creation_date,
                "locationIP": person.location_ip,
                "browserUsed": person.browser_used,
                "speaks": list(person.speaks),
                "email": list(person.emails),
            },
        )
        self._node_of[person.id] = node
        store.create_rel("IS_LOCATED_IN", node, self._node_of[person.city])
        for tag_id in person.interests:
            store.create_rel("HAS_INTEREST", node, self._node_of[tag_id])
        if person.university is not None:
            store.create_rel(
                "STUDY_AT",
                node,
                self._node_of[person.university],
                {"classYear": person.class_year},
            )
        if person.company is not None:
            store.create_rel(
                "WORK_AT",
                node,
                self._node_of[person.company],
                {"workFrom": person.work_from},
            )

    def _load_forum_direct(self, forum: Forum) -> None:
        store = self.db.store
        node = store.create_node(
            ("Forum",),
            {
                "id": forum.id,
                "title": forum.title,
                "creationDate": forum.creation_date,
            },
        )
        self._node_of[forum.id] = node
        store.create_rel(
            "HAS_MODERATOR", node, self._node_of[forum.moderator]
        )
        for tag_id in forum.tags:
            store.create_rel("HAS_TAG", node, self._node_of[tag_id])

    def _load_post_direct(self, post: Post) -> None:
        store = self.db.store
        node = store.create_node(
            ("Post", "Message"),
            {
                "id": post.id,
                "creationDate": post.creation_date,
                "content": post.content,
                "length": post.length,
                "browserUsed": post.browser_used,
                "locationIP": post.location_ip,
                "language": post.language,
            },
        )
        self._node_of[post.id] = node
        store.create_rel("HAS_CREATOR", node, self._node_of[post.creator])
        store.create_rel("CONTAINER_OF", self._node_of[post.forum], node)
        store.create_rel("IS_LOCATED_IN", node, self._node_of[post.country])
        for tag_id in post.tags:
            store.create_rel("HAS_TAG", node, self._node_of[tag_id])

    def _load_comment_direct(self, comment: Comment) -> None:
        store = self.db.store
        node = store.create_node(
            ("Comment", "Message"),
            {
                "id": comment.id,
                "creationDate": comment.creation_date,
                "content": comment.content,
                "length": comment.length,
                "browserUsed": comment.browser_used,
                "locationIP": comment.location_ip,
            },
        )
        self._node_of[comment.id] = node
        store.create_rel("HAS_CREATOR", node, self._node_of[comment.creator])
        store.create_rel("REPLY_OF", node, self._node_of[comment.reply_of])
        store.create_rel("ROOT_POST", node, self._node_of[comment.root_post])
        store.create_rel(
            "IS_LOCATED_IN", node, self._node_of[comment.country]
        )
        for tag_id in comment.tags:
            store.create_rel("HAS_TAG", node, self._node_of[tag_id])

    def size_bytes(self) -> int:
        return self.db.size_bytes()

    # -- reads -------------------------------------------------------------------------

    def _query(self, cypher: str, params: dict | None = None) -> list[tuple]:
        charge("client_rtt")
        return self.db.execute(cypher, params)

    def point_lookup(self, person_id: int) -> tuple:
        rows = self._query(
            CYPHER_QUERIES["point_lookup"][0], {"id": person_id}
        )
        return rows[0] if rows else ()

    def one_hop(self, person_id: int) -> list[int]:
        rows = self._query(
            CYPHER_QUERIES["one_hop"][0], {"id": person_id}
        )
        return [r[0] for r in rows]

    def two_hop(self, person_id: int) -> list[int]:
        rows = self._query(
            CYPHER_QUERIES["two_hop"][0], {"id": person_id}
        )
        return [r[0] for r in rows]

    def shortest_path(self, person1: int, person2: int) -> int | None:
        rows = self._query(
            CYPHER_QUERIES["shortest_path"][0],
            {"a": person1, "b": person2},
        )
        return rows[0][0] if rows else None

    def person_profile(self, person_id: int) -> tuple:
        rows = self._query(
            CYPHER_QUERIES["person_profile"][0], {"id": person_id}
        )
        return rows[0] if rows else ()

    def person_recent_posts(self, person_id: int, limit: int = 10) -> list:
        return self._query(
            CYPHER_QUERIES["person_recent_posts"][0]
            + f" LIMIT {int(limit)}",
            {"id": person_id},
        )

    def person_friends(self, person_id: int) -> list[tuple]:
        return self._query(
            CYPHER_QUERIES["person_friends"][0], {"id": person_id}
        )

    def message_content(self, message_id: int) -> tuple:
        rows = self._query(
            CYPHER_QUERIES["message_content"][0], {"id": message_id}
        )
        return rows[0] if rows else ()

    def message_creator(self, message_id: int) -> tuple:
        rows = self._query(
            CYPHER_QUERIES["message_creator"][0], {"id": message_id}
        )
        return rows[0] if rows else ()

    def message_forum(self, message_id: int) -> tuple:
        rows = self._query(
            CYPHER_QUERIES["message_forum"][0], {"id": message_id}
        )
        if not rows:
            rows = self._query(
                CYPHER_QUERIES["message_forum"][1], {"id": message_id}
            )
        return rows[0] if rows else ()

    def message_replies(self, message_id: int) -> list[tuple]:
        return self._query(
            CYPHER_QUERIES["message_replies"][0], {"id": message_id}
        )

    def complex_two_hop(self, person_id: int, limit: int = 20) -> list[tuple]:
        return self._query(
            CYPHER_QUERIES["complex_two_hop"][0]
            + f" LIMIT {int(limit)}",
            {"id": person_id},
        )

    def friends_recent_posts(
        self, person_id: int, limit: int = 10
    ) -> list[tuple]:
        return self._query(
            CYPHER_QUERIES["friends_recent_posts"][0]
            + f" LIMIT {int(limit)}",
            {"id": person_id},
        )

    # -- inserts ------------------------------------------------------------------------------

    def _execute(self, cypher: str, params: dict | None = None) -> None:
        charge("client_rtt")
        self.db.execute(cypher, params)

    def add_person(self, person: Person) -> None:
        self._execute(
            CYPHER_QUERIES["add_person"][0],
            {
                "id": person.id, "fn": person.first_name,
                "ln": person.last_name, "g": person.gender,
                "bd": person.birthday, "cd": person.creation_date,
                "ip": person.location_ip, "b": person.browser_used,
            },
        )
        self._execute(
            CYPHER_QUERIES["add_person"][1],
            {"id": person.id, "city": person.city},
        )
        for tag_id in person.interests:
            self._execute(
                CYPHER_QUERIES["add_person"][2],
                {"id": person.id, "tag": tag_id},
            )

    def add_friendship(self, knows: Knows) -> None:
        self._execute(
            CYPHER_QUERIES["add_friendship"][0],
            {"a": knows.person1, "b": knows.person2,
             "d": knows.creation_date},
        )

    def add_forum(self, forum: Forum) -> None:
        self._execute(
            CYPHER_QUERIES["add_forum"][0],
            {"id": forum.id, "t": forum.title, "d": forum.creation_date},
        )
        self._execute(
            CYPHER_QUERIES["add_forum"][1],
            {"id": forum.id, "mod": forum.moderator},
        )
        for tag_id in forum.tags:
            self._execute(
                CYPHER_QUERIES["add_forum"][2],
                {"id": forum.id, "tag": tag_id},
            )

    def add_forum_membership(self, membership: ForumMembership) -> None:
        self._execute(
            CYPHER_QUERIES["add_forum_membership"][0],
            {"f": membership.forum, "p": membership.person,
             "d": membership.join_date},
        )

    def add_post(self, post: Post) -> None:
        self._execute(
            CYPHER_QUERIES["add_post"][0],
            {"id": post.id, "d": post.creation_date, "c": post.content,
             "l": post.length, "b": post.browser_used,
             "ip": post.location_ip, "lang": post.language},
        )
        self._execute(
            CYPHER_QUERIES["add_post"][1],
            {"id": post.id, "creator": post.creator, "forum": post.forum,
             "country": post.country},
        )
        for tag_id in post.tags:
            self._execute(
                CYPHER_QUERIES["add_post"][2],
                {"id": post.id, "tag": tag_id},
            )

    def add_comment(self, comment: Comment) -> None:
        self._execute(
            CYPHER_QUERIES["add_comment"][0],
            {"id": comment.id, "d": comment.creation_date,
             "c": comment.content, "l": comment.length,
             "b": comment.browser_used, "ip": comment.location_ip},
        )
        self._execute(
            CYPHER_QUERIES["add_comment"][1],
            {"id": comment.id, "creator": comment.creator,
             "parent": comment.reply_of, "root": comment.root_post,
             "country": comment.country},
        )

    def add_like(self, like: Like) -> None:
        self._execute(
            CYPHER_QUERIES["add_like"][0],
            {"p": like.person, "m": like.message, "d": like.creation_date},
        )

    # -- batching / caching hooks ------------------------------------------------------------------

    def apply_update_batch(self, events: list) -> None:
        """Group commit: one WAL fsync for the whole poll of events."""
        with self.db.wal.group():
            for event in events:
                self.apply_update(event)

    def cache_stats(self) -> list:
        return self.db.cache_stats()

    # -- concurrency hooks -------------------------------------------------------------------------

    def checkpoint_pages(self) -> int:
        return self.db.checkpoint()
