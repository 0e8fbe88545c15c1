"""SQL connectors: Postgres (row store) and Virtuoso (column store).

Both run the *same* SQL over the same schema ("both systems use SQL
queries over the same database schema" — Section 4.3); they differ in

* storage layout (``row`` vs ``column``),
* shortest path: Postgres evaluates a recursive BFS CTE, Virtuoso calls
  its engine-internal ``shortest_path_len`` transitivity operator.

Every statement pays one native-protocol ``client_rtt``; indexes exist on
entity ids and edge endpoint columns only (the paper's fairness rule).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.core.connectors.base import Connector
from repro.options import EngineOptions
from repro.relational.engine import Database
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
    UpdateEvent,
    UpdateKind,
)
from repro.txn.locks import LockMode

_SCHEMA = [
    "CREATE TABLE person (id BIGINT PRIMARY KEY, firstname TEXT, "
    "lastname TEXT, gender TEXT, birthday BIGINT, creationdate BIGINT, "
    "locationip TEXT, browserused TEXT, cityid BIGINT)",
    "CREATE TABLE person_speaks (personid BIGINT, language TEXT)",
    "CREATE TABLE person_email (personid BIGINT, email TEXT)",
    "CREATE TABLE person_interest (personid BIGINT, tagid BIGINT)",
    "CREATE TABLE person_studyat (personid BIGINT, orgid BIGINT, "
    "classyear INT)",
    "CREATE TABLE person_workat (personid BIGINT, orgid BIGINT, "
    "workfrom INT)",
    "CREATE TABLE knows (p1 BIGINT, p2 BIGINT, creationdate BIGINT)",
    "CREATE TABLE forum (id BIGINT PRIMARY KEY, title TEXT, "
    "creationdate BIGINT, moderatorid BIGINT)",
    "CREATE TABLE forum_tag (forumid BIGINT, tagid BIGINT)",
    "CREATE TABLE forum_member (forumid BIGINT, personid BIGINT, "
    "joindate BIGINT)",
    "CREATE TABLE post (id BIGINT PRIMARY KEY, creationdate BIGINT, "
    "creatorid BIGINT, forumid BIGINT, content TEXT, length INT, "
    "browserused TEXT, locationip TEXT, language TEXT, countryid BIGINT)",
    "CREATE TABLE post_tag (postid BIGINT, tagid BIGINT)",
    "CREATE TABLE comment (id BIGINT PRIMARY KEY, creationdate BIGINT, "
    "creatorid BIGINT, replyof BIGINT, rootpost BIGINT, content TEXT, "
    "length INT, browserused TEXT, locationip TEXT, countryid BIGINT)",
    "CREATE TABLE comment_tag (commentid BIGINT, tagid BIGINT)",
    "CREATE TABLE likes (personid BIGINT, messageid BIGINT, "
    "creationdate BIGINT)",
    "CREATE TABLE tag (id BIGINT PRIMARY KEY, name TEXT, classid BIGINT)",
    "CREATE TABLE tagclass (id BIGINT PRIMARY KEY, name TEXT, "
    "subclassof BIGINT)",
    "CREATE TABLE place (id BIGINT PRIMARY KEY, name TEXT, type TEXT, "
    "partof BIGINT)",
    "CREATE TABLE organisation (id BIGINT PRIMARY KEY, name TEXT, "
    "type TEXT, placeid BIGINT)",
]

_INDEXES = [
    "CREATE INDEX ON knows (p1) USING HASH",
    "CREATE INDEX ON knows (p2) USING HASH",
    "CREATE INDEX ON forum_member (forumid) USING HASH",
    "CREATE INDEX ON forum_member (personid) USING HASH",
    "CREATE INDEX ON post (creatorid) USING HASH",
    "CREATE INDEX ON post (forumid) USING HASH",
    "CREATE INDEX ON comment (creatorid) USING HASH",
    "CREATE INDEX ON comment (replyof) USING HASH",
    "CREATE INDEX ON likes (personid) USING HASH",
    "CREATE INDEX ON likes (messageid) USING HASH",
]

_BFS_SQL = (
    "WITH RECURSIVE bfs (node, depth) AS ("
    "  SELECT k.p2, 1 FROM knows k WHERE k.p1 = ?"
    "  UNION"
    "  SELECT k.p2, b.depth + 1 FROM bfs b"
    "    JOIN knows k ON k.p1 = b.node WHERE b.depth < 12"
    ") SELECT MIN(depth) FROM bfs WHERE node = ?"
)


#: every DML/query statement the connector issues, by operation; DDL is
#: carried as ``schema`` / ``indexes``.  Statements with a
#: caller-supplied LIMIT are stored without the clause; the methods
#: append ``LIMIT <n>`` at call time.  Validated against the schema
#: catalog (see :mod:`repro.analysis`) at construction.
SQL_QUERIES: dict[str, tuple[str, ...]] = {
    "schema": tuple(_SCHEMA),
    "indexes": tuple(_INDEXES),
    "point_lookup": (
        "SELECT firstname, lastname, gender FROM person WHERE id = ?",
    ),
    "one_hop": ("SELECT p2 FROM knows WHERE p1 = ? ORDER BY p2",),
    "two_hop": (
        "SELECT DISTINCT k2.p2 FROM knows k1 "
        "JOIN knows k2 ON k2.p1 = k1.p2 "
        "WHERE k1.p1 = ? AND k2.p2 <> ? ORDER BY k2.p2",
    ),
    "shortest_path": (
        _BFS_SQL,
        "SELECT shortest_path_len('knows', 'p1', 'p2', ?, ?)",
    ),
    "person_profile": (
        "SELECT firstname, lastname, gender, birthday, browserused, "
        "cityid FROM person WHERE id = ?",
    ),
    "person_recent_posts": (
        "SELECT id, content, creationdate FROM post "
        "WHERE creatorid = ? ORDER BY creationdate DESC, id DESC",
        "SELECT id, content, creationdate FROM comment "
        "WHERE creatorid = ? ORDER BY creationdate DESC, id DESC",
    ),
    "person_friends": (
        "SELECT p.id, p.firstname, p.lastname FROM knows k "
        "JOIN person p ON p.id = k.p2 WHERE k.p1 = ? ORDER BY p.id",
    ),
    "message_content": (
        "SELECT content, creationdate FROM post WHERE id = ?",
        "SELECT content, creationdate FROM comment WHERE id = ?",
    ),
    "message_creator": (
        "SELECT p.id, p.firstname, p.lastname FROM post m "
        "JOIN person p ON p.id = m.creatorid WHERE m.id = ?",
        "SELECT p.id, p.firstname, p.lastname FROM comment m "
        "JOIN person p ON p.id = m.creatorid WHERE m.id = ?",
    ),
    "message_forum": (
        "SELECT f.id, f.title, f.moderatorid FROM post m "
        "JOIN forum f ON f.id = m.forumid WHERE m.id = ?",
        "SELECT f.id, f.title, f.moderatorid FROM comment c "
        "JOIN post m ON m.id = c.rootpost "
        "JOIN forum f ON f.id = m.forumid WHERE c.id = ?",
    ),
    "message_replies": (
        "SELECT id, creatorid, creationdate FROM comment "
        "WHERE replyof = ? ORDER BY id",
    ),
    "complex_two_hop": (
        "SELECT DISTINCT p.id, p.firstname, p.lastname FROM knows k1 "
        "JOIN knows k2 ON k2.p1 = k1.p2 "
        "JOIN person p ON p.id = k2.p2 "
        "WHERE k1.p1 = ? AND k2.p2 <> ? ORDER BY p.id",
    ),
    "friends_recent_posts": (
        "SELECT m.id, m.creatorid, m.content, m.creationdate "
        "FROM knows k JOIN post m ON m.creatorid = k.p2 "
        "WHERE k.p1 = ? ORDER BY m.creationdate DESC, m.id DESC",
        "SELECT m.id, m.creatorid, m.content, m.creationdate "
        "FROM knows k JOIN comment m ON m.creatorid = k.p2 "
        "WHERE k.p1 = ? ORDER BY m.creationdate DESC, m.id DESC",
    ),
    "add_person": (
        "INSERT INTO person VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
        "INSERT INTO person_speaks VALUES (?, ?)",
        "INSERT INTO person_interest VALUES (?, ?)",
    ),
    "add_friendship": ("INSERT INTO knows VALUES (?, ?, ?)",),
    "add_forum": (
        "INSERT INTO forum VALUES (?, ?, ?, ?)",
        "INSERT INTO forum_tag VALUES (?, ?)",
    ),
    "add_forum_membership": (
        "INSERT INTO forum_member VALUES (?, ?, ?)",
    ),
    "add_post": (
        "INSERT INTO post VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        "INSERT INTO post_tag VALUES (?, ?)",
    ),
    "add_comment": (
        "INSERT INTO comment VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        "INSERT INTO comment_tag VALUES (?, ?)",
    ),
    "add_like": ("INSERT INTO likes VALUES (?, ?, ?)",),
}


class SqlConnector(Connector):
    """Shared implementation; see :class:`PostgresConnector` and
    :class:`VirtuosoSqlConnector` for the two configurations."""

    storage = "row"
    transitive_support = False

    dialect = "sql"
    query_catalog = SQL_QUERIES

    def __init__(self, options: EngineOptions | None = None) -> None:
        super().__init__(options)
        self._validate_queries()
        self.db = Database(
            self.storage,
            name=self.key,
            transitive_support=self.transitive_support,
            options=self.options,
        )
        for ddl in _SCHEMA:
            self.db.execute(ddl)
        for ddl in _INDEXES:
            self.db.execute(ddl)
        self._batch_depth = 0

    def sanitize_targets(self) -> dict[str, object]:
        return {"sql": self.db}

    # -- loading -----------------------------------------------------------------

    def load(self, dataset: SnbDataset) -> None:
        """Bulk path: straight into the storage layer (COPY-style), one
        transaction, one fsync."""
        catalog = self.db.catalog
        t = catalog.table
        with self.db.transaction():
            for p in dataset.places:
                t("place").insert((p.id, p.name, p.kind, p.part_of))
            for tc in dataset.tag_classes:
                t("tagclass").insert((tc.id, tc.name, tc.subclass_of))
            for tag in dataset.tags:
                t("tag").insert((tag.id, tag.name, tag.tag_class))
            for org in dataset.organisations:
                t("organisation").insert(
                    (org.id, org.name, org.kind, org.place)
                )
            for person in dataset.persons:
                self._load_person(person)
            for knows in dataset.knows:
                t("knows").insert(
                    (knows.person1, knows.person2, knows.creation_date)
                )
                t("knows").insert(
                    (knows.person2, knows.person1, knows.creation_date)
                )
            for forum in dataset.forums:
                t("forum").insert(
                    (forum.id, forum.title, forum.creation_date,
                     forum.moderator)
                )
                for tag_id in forum.tags:
                    t("forum_tag").insert((forum.id, tag_id))
            for m in dataset.memberships:
                t("forum_member").insert((m.forum, m.person, m.join_date))
            for post in dataset.posts:
                t("post").insert(
                    (post.id, post.creation_date, post.creator, post.forum,
                     post.content, post.length, post.browser_used,
                     post.location_ip, post.language, post.country)
                )
                for tag_id in post.tags:
                    t("post_tag").insert((post.id, tag_id))
            for c in dataset.comments:
                t("comment").insert(
                    (c.id, c.creation_date, c.creator, c.reply_of,
                     c.root_post, c.content, c.length, c.browser_used,
                     c.location_ip, c.country)
                )
                for tag_id in c.tags:
                    t("comment_tag").insert((c.id, tag_id))
            for like in dataset.likes:
                t("likes").insert(
                    (like.person, like.message, like.creation_date)
                )
        self.db.analyze()

    def _load_person(self, person: Person) -> None:
        t = self.db.catalog.table
        t("person").insert(
            (person.id, person.first_name, person.last_name, person.gender,
             person.birthday, person.creation_date, person.location_ip,
             person.browser_used, person.city)
        )
        for language in person.speaks:
            t("person_speaks").insert((person.id, language))
        for email in person.emails:
            t("person_email").insert((person.id, email))
        for tag_id in person.interests:
            t("person_interest").insert((person.id, tag_id))
        if person.university is not None:
            t("person_studyat").insert(
                (person.id, person.university, person.class_year)
            )
        if person.company is not None:
            t("person_workat").insert(
                (person.id, person.company, person.work_from)
            )

    def size_bytes(self) -> int:
        return self.db.size_bytes()

    # -- micro reads ---------------------------------------------------------------

    def _query(self, sql: str, params=()) -> list[tuple]:
        charge("client_rtt")
        return self.db.query(sql, params)

    def _execute(self, sql: str, params=()) -> None:
        self._write_rtt()
        self.db.execute(sql, params)

    # -- write plumbing ----------------------------------------------------------

    def _write_rtt(self) -> None:
        """Per-statement round trip, absorbed into one per batch when the
        writer pipelines a whole poll of events as a single request."""
        if not self._batch_depth:
            charge("client_rtt")

    @contextmanager
    def _write_txn(self) -> Iterator[None]:
        """The insert's transaction — or the enclosing batch's, if any."""
        if self.db._active_txn is not None:
            yield
        else:
            with self.db.transaction():
                yield

    @staticmethod
    def _event_lock(event: UpdateEvent) -> tuple[str, object]:
        """The (table, key) the event's first INSERT will lock."""
        kind, payload = event.kind, event.payload
        if kind is UpdateKind.ADD_PERSON:
            return ("person", payload.id)
        if kind is UpdateKind.ADD_FRIENDSHIP:
            return ("knows", None)
        if kind is UpdateKind.ADD_FORUM:
            return ("forum", payload.id)
        if kind is UpdateKind.ADD_FORUM_MEMBERSHIP:
            return ("forum_member", None)
        if kind is UpdateKind.ADD_POST:
            return ("post", payload.id)
        if kind is UpdateKind.ADD_COMMENT:
            return ("comment", payload.id)
        return ("likes", None)

    def apply_update_batch(self, events: list[UpdateEvent]) -> None:
        """One transaction for the whole poll: one commit-time fsync.

        Locks for every event are pre-acquired in the lock manager's
        global sort order (``acquire_many``), so a batch can't deadlock
        against row DML; the per-statement boundary acquisitions inside
        are then reentrant no-ops.  The batch travels as one pipelined
        request (a single ``client_rtt``).
        """
        if len(events) <= 1:
            for event in events:
                self.apply_update(event)
            return
        charge("client_rtt")
        self._batch_depth += 1
        try:
            with self.db.transaction() as txn:
                self.db.txns.locks.acquire_many(
                    txn.txn_id,
                    [self._event_lock(e) for e in events],
                    LockMode.EXCLUSIVE,
                )
                for event in events:
                    self.apply_update(event)
        finally:
            self._batch_depth -= 1

    def cache_stats(self) -> list:
        return self.db.cache_stats()

    def point_lookup(self, person_id: int) -> tuple:
        rows = self._query(
            SQL_QUERIES["point_lookup"][0], (person_id,)
        )
        return rows[0] if rows else ()

    def one_hop(self, person_id: int) -> list[int]:
        rows = self._query(SQL_QUERIES["one_hop"][0], (person_id,))
        return [r[0] for r in rows]

    def two_hop(self, person_id: int) -> list[int]:
        rows = self._query(
            SQL_QUERIES["two_hop"][0], (person_id, person_id)
        )
        return [r[0] for r in rows]

    def shortest_path(self, person1: int, person2: int) -> int | None:
        if person1 == person2:
            return 0
        if self.transitive_support:
            rows = self._query(
                SQL_QUERIES["shortest_path"][1], (person1, person2)
            )
        else:
            rows = self._query(
                SQL_QUERIES["shortest_path"][0], (person1, person2)
            )
        return rows[0][0] if rows else None

    # -- short reads -------------------------------------------------------------------

    def person_profile(self, person_id: int) -> tuple:
        rows = self._query(
            SQL_QUERIES["person_profile"][0], (person_id,)
        )
        return rows[0] if rows else ()

    def person_recent_posts(self, person_id: int, limit: int = 10) -> list:
        limit = int(limit)
        posts = self._query(
            SQL_QUERIES["person_recent_posts"][0] + f" LIMIT {limit}",
            (person_id,),
        )
        comments = self._query(
            SQL_QUERIES["person_recent_posts"][1] + f" LIMIT {limit}",
            (person_id,),
        )
        merged = sorted(
            posts + comments, key=lambda r: (-r[2], -r[0])
        )
        return merged[:limit]

    def person_friends(self, person_id: int) -> list[tuple]:
        return self._query(
            SQL_QUERIES["person_friends"][0], (person_id,)
        )

    def message_content(self, message_id: int) -> tuple:
        rows = self._query(
            SQL_QUERIES["message_content"][0], (message_id,)
        )
        if not rows:
            rows = self._query(
                SQL_QUERIES["message_content"][1], (message_id,)
            )
        return rows[0] if rows else ()

    def message_creator(self, message_id: int) -> tuple:
        rows = self._query(
            SQL_QUERIES["message_creator"][0], (message_id,)
        )
        if not rows:
            rows = self._query(
                SQL_QUERIES["message_creator"][1], (message_id,)
            )
        return rows[0] if rows else ()

    def message_forum(self, message_id: int) -> tuple:
        rows = self._query(
            SQL_QUERIES["message_forum"][0], (message_id,)
        )
        if not rows:
            rows = self._query(
                SQL_QUERIES["message_forum"][1], (message_id,)
            )
        return rows[0] if rows else ()

    def message_replies(self, message_id: int) -> list[tuple]:
        return self._query(
            SQL_QUERIES["message_replies"][0], (message_id,)
        )

    def complex_two_hop(self, person_id: int, limit: int = 20) -> list[tuple]:
        rows = self._query(
            SQL_QUERIES["complex_two_hop"][0], (person_id, person_id)
        )
        return rows[:limit]

    def friends_recent_posts(
        self, person_id: int, limit: int = 10
    ) -> list[tuple]:
        limit = int(limit)
        posts = self._query(
            SQL_QUERIES["friends_recent_posts"][0] + f" LIMIT {limit}",
            (person_id,),
        )
        comments = self._query(
            SQL_QUERIES["friends_recent_posts"][1] + f" LIMIT {limit}",
            (person_id,),
        )
        merged = sorted(posts + comments, key=lambda r: (-r[3], -r[0]))
        return merged[:limit]

    # -- inserts ----------------------------------------------------------------------------

    def add_person(self, person: Person) -> None:
        self._write_rtt()
        with self._write_txn():
            self.db.execute(
                SQL_QUERIES["add_person"][0],
                (person.id, person.first_name, person.last_name,
                 person.gender, person.birthday, person.creation_date,
                 person.location_ip, person.browser_used, person.city),
            )
            for language in person.speaks:
                self.db.execute(
                    SQL_QUERIES["add_person"][1], (person.id, language)
                )
            for tag_id in person.interests:
                self.db.execute(
                    SQL_QUERIES["add_person"][2], (person.id, tag_id)
                )

    def add_friendship(self, knows: Knows) -> None:
        self._write_rtt()
        with self._write_txn():
            self.db.execute(
                SQL_QUERIES["add_friendship"][0],
                (knows.person1, knows.person2, knows.creation_date),
            )
            self.db.execute(
                SQL_QUERIES["add_friendship"][0],
                (knows.person2, knows.person1, knows.creation_date),
            )

    def add_forum(self, forum: Forum) -> None:
        self._write_rtt()
        with self._write_txn():
            self.db.execute(
                SQL_QUERIES["add_forum"][0],
                (forum.id, forum.title, forum.creation_date, forum.moderator),
            )
            for tag_id in forum.tags:
                self.db.execute(
                    SQL_QUERIES["add_forum"][1], (forum.id, tag_id)
                )

    def add_forum_membership(self, membership: ForumMembership) -> None:
        self._execute(
            SQL_QUERIES["add_forum_membership"][0],
            (membership.forum, membership.person, membership.join_date),
        )

    def add_post(self, post: Post) -> None:
        self._write_rtt()
        with self._write_txn():
            self.db.execute(
                SQL_QUERIES["add_post"][0],
                (post.id, post.creation_date, post.creator, post.forum,
                 post.content, post.length, post.browser_used,
                 post.location_ip, post.language, post.country),
            )
            for tag_id in post.tags:
                self.db.execute(
                    SQL_QUERIES["add_post"][1], (post.id, tag_id)
                )

    def add_comment(self, comment: Comment) -> None:
        self._write_rtt()
        with self._write_txn():
            self.db.execute(
                SQL_QUERIES["add_comment"][0],
                (comment.id, comment.creation_date, comment.creator,
                 comment.reply_of, comment.root_post, comment.content,
                 comment.length, comment.browser_used, comment.location_ip,
                 comment.country),
            )
            for tag_id in comment.tags:
                self.db.execute(
                    SQL_QUERIES["add_comment"][1], (comment.id, tag_id)
                )

    def add_like(self, like: Like) -> None:
        self._execute(
            SQL_QUERIES["add_like"][0],
            (like.person, like.message, like.creation_date),
        )


class PostgresConnector(SqlConnector):
    """Postgres 9.5, native SQL, row storage."""

    key = "postgres-sql"
    system = "Postgres"
    language = "SQL"
    storage = "row"
    transitive_support = False


class VirtuosoSqlConnector(SqlConnector):
    """Virtuoso 7.2 in RDBMS mode: columnar storage + graph-aware
    transitivity."""

    key = "virtuoso-sql"
    system = "Virtuoso"
    language = "SQL"
    storage = "column"
    transitive_support = True
