"""Tests for the SNB datagen: determinism, schema invariants, update stream."""

import pytest

from repro.snb import GeneratorConfig, UpdateKind, generate
from repro.snb.datagen import SIM_END_MS, SIM_START_MS
from repro.snb.distributions import power_law_int, zipf_choice
from repro.snb.serializer import raw_size_bytes, serialize_to_dir

import random


@pytest.fixture(scope="module")
def dataset():
    return generate(GeneratorConfig(scale_factor=3, scale_divisor=4000, seed=7))


class TestDistributions:
    def test_power_law_bounds(self):
        rng = random.Random(1)
        samples = [power_law_int(rng, 1, 50) for _ in range(2000)]
        assert all(1 <= s <= 50 for s in samples)

    def test_power_law_is_skewed(self):
        rng = random.Random(1)
        samples = [power_law_int(rng, 1, 100, alpha=2.2) for _ in range(5000)]
        low = sum(1 for s in samples if s <= 5)
        assert low > len(samples) * 0.6  # most mass at the low end

    def test_power_law_validation(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            power_law_int(rng, 0, 5)
        with pytest.raises(ValueError):
            power_law_int(rng, 5, 4)

    def test_power_law_degenerate(self):
        rng = random.Random(1)
        assert power_law_int(rng, 3, 3) == 3

    def test_zipf_bounds_and_skew(self):
        rng = random.Random(2)
        samples = [zipf_choice(rng, 30) for _ in range(5000)]
        assert all(0 <= s < 30 for s in samples)
        zero = sum(1 for s in samples if s == 0)
        tail = sum(1 for s in samples if s == 29)
        assert zero > tail * 3

    def test_zipf_single_choice(self):
        assert zipf_choice(random.Random(1), 1) == 0

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_choice(random.Random(1), 0)


class TestGeneration:
    def test_deterministic(self):
        config = GeneratorConfig(scale_factor=3, scale_divisor=8000, seed=11)
        a = generate(config)
        b = generate(config)
        assert [p.id for p in a.persons] == [p.id for p in b.persons]
        assert [k.creation_date for k in a.knows] == [
            k.creation_date for k in b.knows
        ]
        assert len(a.updates) == len(b.updates)

    def test_seed_changes_output(self):
        a = generate(GeneratorConfig(scale_divisor=8000, seed=1))
        b = generate(GeneratorConfig(scale_divisor=8000, seed=2))
        assert [k.person2 for k in a.knows] != [k.person2 for k in b.knows]

    def test_scale_factor_grows_graph(self):
        small = generate(GeneratorConfig(scale_factor=3, scale_divisor=8000))
        large = generate(GeneratorConfig(scale_factor=10, scale_divisor=8000))
        ratio = large.vertex_count() / small.vertex_count()
        assert 2.0 < ratio < 6.0  # paper: 34M/10M = 3.4

    def test_vertex_edge_ratio_matches_paper(self, dataset):
        # paper SF3: 64M edges / 10M vertices = 6.4
        ratio = dataset.edge_count() / dataset.vertex_count()
        assert 3.0 < ratio < 10.0

    def test_knows_endpoints_exist_and_ordered(self, dataset):
        person_ids = {p.id for p in dataset.persons} | {
            e.payload.id
            for e in dataset.updates
            if e.kind is UpdateKind.ADD_PERSON
        }
        for k in dataset.knows:
            assert k.person1 < k.person2
            assert k.person1 in person_ids
            assert k.person2 in person_ids

    def test_no_duplicate_friendships(self, dataset):
        pairs = [(k.person1, k.person2) for k in dataset.knows]
        assert len(pairs) == len(set(pairs))

    def test_comments_reply_to_existing_messages(self, dataset):
        message_ids = set(dataset.message_ids())
        for c in dataset.comments:
            assert c.reply_of in message_ids
            assert c.creation_date >= SIM_START_MS

    def test_comment_dates_after_parent(self, dataset):
        dates = {p.id: p.creation_date for p in dataset.posts}
        dates.update({c.id: c.creation_date for c in dataset.comments})
        for c in dataset.comments:
            assert c.creation_date >= dates[c.reply_of]

    def test_posts_belong_to_snapshot_forums(self, dataset):
        forum_ids = {f.id for f in dataset.forums}
        for p in dataset.posts:
            assert p.forum in forum_ids

    def test_static_entities_before_cutoff(self, dataset):
        assert all(p.creation_date < dataset.cutoff_ms for p in dataset.persons)
        assert all(
            f.creation_date < dataset.cutoff_ms for f in dataset.forums
        )
        assert all(
            c.creation_date < dataset.cutoff_ms for c in dataset.comments
        )

    def test_likes_reference_messages(self, dataset):
        message_ids = set(dataset.message_ids())
        update_message_ids = {
            e.payload.id
            for e in dataset.updates
            if e.kind in (UpdateKind.ADD_POST, UpdateKind.ADD_COMMENT)
        }
        for like in dataset.likes:
            assert like.message in message_ids | update_message_ids

    def test_person_attributes_populated(self, dataset):
        for p in dataset.persons[:20]:
            assert p.first_name and p.last_name
            assert p.gender in ("male", "female")
            assert p.speaks
            assert SIM_START_MS <= p.creation_date < SIM_END_MS

    def test_place_hierarchy_well_formed(self, dataset):
        by_id = {p.id: p for p in dataset.places}
        for place in dataset.places:
            if place.kind == "continent":
                assert place.part_of is None
            else:
                parent = by_id[place.part_of]
                expected = "continent" if place.kind == "country" else "country"
                assert parent.kind == expected


class TestUpdateStream:
    def test_updates_sorted_by_creation(self, dataset):
        times = [e.creation_ms for e in dataset.updates]
        assert times == sorted(times)

    def test_updates_after_cutoff(self, dataset):
        assert all(e.creation_ms >= dataset.cutoff_ms for e in dataset.updates)

    def test_dependency_not_after_creation(self, dataset):
        for e in dataset.updates:
            assert e.dependency_ms <= e.creation_ms

    def test_every_reference_precedes_its_event(self, dataset):
        """The Figure 3 writer applies the stream in order, so every id
        an event references is in the static snapshot or was added by
        an earlier event."""
        known = {
            "person": {p.id for p in dataset.persons},
            "forum": {f.id for f in dataset.forums},
            "post": {p.id for p in dataset.posts},
            "comment": {c.id for c in dataset.comments},
        }
        message = ("post", "comment")
        refs = {
            UpdateKind.ADD_PERSON: {},
            UpdateKind.ADD_FRIENDSHIP: {
                "person1": ("person",), "person2": ("person",),
            },
            UpdateKind.ADD_FORUM: {"moderator": ("person",)},
            UpdateKind.ADD_FORUM_MEMBERSHIP: {
                "forum": ("forum",), "person": ("person",),
            },
            UpdateKind.ADD_POST: {"creator": ("person",), "forum": ("forum",)},
            UpdateKind.ADD_COMMENT: {
                "creator": ("person",), "reply_of": message,
                "root_post": ("post",),
            },
            UpdateKind.ADD_POST_LIKE: {
                "person": ("person",), "message": ("post",),
            },
            UpdateKind.ADD_COMMENT_LIKE: {
                "person": ("person",), "message": ("comment",),
            },
        }
        adds = {
            UpdateKind.ADD_PERSON: "person",
            UpdateKind.ADD_FORUM: "forum",
            UpdateKind.ADD_POST: "post",
            UpdateKind.ADD_COMMENT: "comment",
        }
        missing = []
        for position, event in enumerate(dataset.updates):
            for attr, kinds in refs[event.kind].items():
                ident = getattr(event.payload, attr)
                if not any(ident in known[kind] for kind in kinds):
                    missing.append((position, event.kind, attr, ident))
            if event.kind in adds:
                known[adds[event.kind]].add(event.payload.id)
        assert missing == []

    def test_update_mix_covers_most_kinds(self, dataset):
        kinds = {e.kind for e in dataset.updates}
        # the big five always appear; person adds may be rare at tiny scales
        for kind in (
            UpdateKind.ADD_POST,
            UpdateKind.ADD_COMMENT,
            UpdateKind.ADD_POST_LIKE,
            UpdateKind.ADD_FORUM_MEMBERSHIP,
            UpdateKind.ADD_FRIENDSHIP,
        ):
            assert kind in kinds, kind

    def test_update_volume_roughly_matches_fraction(self, dataset):
        total_dynamic = (
            len(dataset.persons)
            + len(dataset.knows)
            + len(dataset.forums)
            + len(dataset.memberships)
            + len(dataset.posts)
            + len(dataset.comments)
            + len(dataset.likes)
            + len(dataset.updates)
        )
        share = len(dataset.updates) / total_dynamic
        assert 0.03 < share < 0.45


class TestSerializer:
    def test_raw_size_positive_and_scales(self):
        small = generate(GeneratorConfig(scale_factor=3, scale_divisor=8000))
        large = generate(GeneratorConfig(scale_factor=10, scale_divisor=8000))
        assert raw_size_bytes(small) > 0
        assert raw_size_bytes(large) > raw_size_bytes(small) * 2

    def test_serialize_to_dir(self, dataset, tmp_path):
        sizes = serialize_to_dir(dataset, tmp_path)
        assert sizes["person"] > 0
        assert (tmp_path / "person_knows_person.csv").exists()
        total = sum(sizes.values())
        assert abs(total - raw_size_bytes(dataset)) < total * 0.05
