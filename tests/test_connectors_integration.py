"""Cross-system integration tests.

Loads one small SNB dataset into all eight connectors and asserts that
every read operation returns identical results everywhere — the property
that makes the paper's cross-system latency comparison meaningful.
"""

import pytest

from repro.core import SUT_KEYS, make_connector
from repro.core.benchmark import WorkloadParams
from repro.snb import GeneratorConfig, UpdateKind, generate

CONFIG = GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=13)


@pytest.fixture(scope="module")
def dataset():
    return generate(CONFIG)


@pytest.fixture(scope="module")
def loaded(dataset):
    connectors = {}
    for key in SUT_KEYS:
        connector = make_connector(key)
        connector.load(dataset)
        connectors[key] = connector
    return connectors


@pytest.fixture(scope="module")
def params(dataset):
    return WorkloadParams.curate(dataset, count=6, seed=3)


def _all_answers(loaded, op, *args):
    return {key: getattr(c, op)(*args) for key, c in loaded.items()}


class TestReadConsistency:
    def test_point_lookup_consistent(self, loaded, params):
        for pid in params.person_ids[:4]:
            answers = _all_answers(loaded, "point_lookup", pid)
            reference = answers["postgres-sql"]
            assert reference, f"empty point lookup for {pid}"
            assert all(a == reference for a in answers.values()), answers

    def test_one_hop_consistent(self, loaded, params):
        for pid in params.person_ids[:4]:
            answers = _all_answers(loaded, "one_hop", pid)
            reference = answers["postgres-sql"]
            assert all(a == reference for a in answers.values()), answers

    def test_two_hop_consistent(self, loaded, params):
        for pid in params.person_ids[:3]:
            answers = _all_answers(loaded, "two_hop", pid)
            reference = answers["postgres-sql"]
            assert all(a == reference for a in answers.values()), answers

    def test_shortest_path_consistent(self, loaded, params):
        for pair in params.path_pairs[:3]:
            answers = _all_answers(loaded, "shortest_path", *pair)
            reference = answers["postgres-sql"]
            assert reference is not None
            assert all(a == reference for a in answers.values()), (
                pair,
                answers,
            )

    def test_person_friends_consistent(self, loaded, params):
        pid = params.person_ids[0]
        answers = _all_answers(loaded, "person_friends", pid)
        reference = [tuple(r) for r in answers["postgres-sql"]]
        for key, rows in answers.items():
            assert [tuple(r) for r in rows] == reference, key

    def test_message_content_consistent(self, loaded, params):
        for mid in params.message_ids[:4]:
            answers = _all_answers(loaded, "message_content", mid)
            reference = tuple(answers["postgres-sql"])
            for key, row in answers.items():
                assert tuple(row) == reference, (key, mid)

    def test_message_creator_consistent(self, loaded, params):
        mid = params.message_ids[0]
        answers = _all_answers(loaded, "message_creator", mid)
        reference = tuple(answers["postgres-sql"])
        for key, row in answers.items():
            assert tuple(row) == reference, key

    def test_message_forum_consistent(self, loaded, params):
        mid = params.message_ids[0]
        answers = _all_answers(loaded, "message_forum", mid)
        reference = tuple(answers["postgres-sql"])
        for key, row in answers.items():
            assert tuple(row) == reference, key

    def test_message_replies_consistent(self, loaded, dataset):
        # pick a post that definitely has replies
        replied = {c.reply_of for c in dataset.comments}
        post_id = next(p.id for p in dataset.posts if p.id in replied)
        answers = _all_answers(loaded, "message_replies", post_id)
        reference = [tuple(r) for r in answers["postgres-sql"]]
        assert reference
        for key, rows in answers.items():
            assert [tuple(r) for r in rows] == reference, key

    def test_complex_two_hop_consistent(self, loaded, params):
        pid = params.person_ids[0]
        answers = _all_answers(loaded, "complex_two_hop", pid)
        reference = [tuple(r) for r in answers["postgres-sql"]]
        for key, rows in answers.items():
            assert [tuple(r) for r in rows] == reference, key

    def test_recent_posts_consistent(self, loaded, dataset):
        creator = dataset.posts[0].creator
        answers = _all_answers(loaded, "person_recent_posts", creator, 5)
        reference = [tuple(r) for r in answers["postgres-sql"]]
        assert reference
        for key, rows in answers.items():
            assert [tuple(r) for r in rows] == reference, key

    def test_person_profile_nonempty_everywhere(self, loaded, params):
        pid = params.person_ids[0]
        answers = _all_answers(loaded, "person_profile", pid)
        for key, row in answers.items():
            assert row and row[0] is not None, key


class TestUpdatesApplyEverywhere:
    @pytest.fixture(scope="class")
    def updated(self, dataset):
        """Fresh connectors with the first 40 update events applied."""
        connectors = {}
        events = dataset.updates[:40]
        for key in SUT_KEYS:
            connector = make_connector(key)
            connector.load(dataset)
            for event in events:
                connector.apply_update(event)
            connectors[key] = connector
        return connectors, events

    def test_new_friendships_visible(self, updated):
        connectors, events = updated
        friendship = next(
            (e for e in events if e.kind is UpdateKind.ADD_FRIENDSHIP), None
        )
        if friendship is None:
            pytest.skip("no friendship in the first events")
        knows = friendship.payload
        for key, connector in connectors.items():
            assert knows.person2 in connector.one_hop(knows.person1), key

    def test_new_comments_visible(self, updated):
        connectors, events = updated
        comment_event = next(
            (e for e in events if e.kind is UpdateKind.ADD_COMMENT), None
        )
        if comment_event is None:
            pytest.skip("no comment in the first events")
        comment = comment_event.payload
        for key, connector in connectors.items():
            content = connector.message_content(comment.id)
            assert content and content[0] == comment.content, key

    def test_cypher_likes_point_from_person_to_message(self, updated):
        connectors, events = updated
        likes = (UpdateKind.ADD_POST_LIKE, UpdateKind.ADD_COMMENT_LIKE)
        like = next(e.payload for e in events if e.kind in likes)
        rows = connectors["neo4j-cypher"].db.execute(
            "MATCH (p:Person {id: $p})-[:LIKES]->(m:Message {id: $m}) "
            "RETURN p.id",
            {"p": like.person, "m": like.message},
        )
        assert rows == [(like.person,)]

    def test_memberships_visible_via_forum(self, updated):
        connectors, events = updated
        membership = next(
            (e for e in events if e.kind is UpdateKind.ADD_FORUM_MEMBERSHIP),
            None,
        )
        if membership is None:
            pytest.skip("no membership in the first events")
        # membership has no direct read; assert it did not corrupt reads
        for key, connector in connectors.items():
            assert connector.point_lookup(
                membership.payload.person
            ), key


class TestSizes:
    def test_every_connector_reports_size(self, loaded):
        for key, connector in loaded.items():
            assert connector.size_bytes() > 0, key

    def test_rdbms_smaller_than_graph_store(self, loaded):
        """Table 1 shape: Virtuoso-RDBMS is the most compact, Neo4j and
        Titan-B are among the largest."""
        sizes = {k: c.size_bytes() for k, c in loaded.items()}
        assert sizes["virtuoso-sql"] < sizes["neo4j-cypher"]


class TestFriendsRecentPosts:
    def test_consistent_across_systems(self, loaded, params):
        pid = params.person_ids[0]
        answers = _all_answers(loaded, "friends_recent_posts", pid, 8)
        reference = [tuple(r) for r in answers["postgres-sql"]]
        for key, rows in answers.items():
            assert [tuple(r) for r in rows] == reference, key

    def test_messages_belong_to_friends(self, loaded, params, dataset):
        pid = params.person_ids[1]
        connector = loaded["postgres-sql"]
        friends = set(connector.one_hop(pid))
        for _mid, fid, _content, _d in connector.friends_recent_posts(pid):
            assert fid in friends

    def test_sorted_newest_first(self, loaded, params):
        pid = params.person_ids[2]
        rows = loaded["neo4j-cypher"].friends_recent_posts(pid, 10)
        dates = [r[3] for r in rows]
        assert dates == sorted(dates, reverse=True)
