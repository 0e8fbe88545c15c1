"""SNB entity and update-event records.

Entities are plain slotted dataclasses (no per-instance ``__dict__``:
a dataset holds tens of thousands of them, and each benchmark run keeps
several datasets alive); ids are globally unique 64-bit ints with a
per-type range (high decimal digit encodes the type) so mixed containers
stay unambiguous.  Posts and comments share the *message* id space, as in
LDBC SNB.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: id range bases per entity type
PERSON_ID_BASE = 1_000_000_000
FORUM_ID_BASE = 2_000_000_000
MESSAGE_ID_BASE = 3_000_000_000
TAG_ID_BASE = 4_000_000_000
TAGCLASS_ID_BASE = 5_000_000_000
PLACE_ID_BASE = 6_000_000_000
ORGANISATION_ID_BASE = 7_000_000_000


@dataclass(slots=True)
class Place:
    id: int
    name: str
    kind: str  # continent | country | city
    part_of: int | None  # parent place id


@dataclass(slots=True)
class TagClass:
    id: int
    name: str
    subclass_of: int | None


@dataclass(slots=True)
class Tag:
    id: int
    name: str
    tag_class: int


@dataclass(slots=True)
class Organisation:
    id: int
    name: str
    kind: str  # university | company
    place: int  # city id for universities, country id for companies


@dataclass(slots=True)
class Person:
    id: int
    first_name: str
    last_name: str
    gender: str
    birthday: int  # epoch ms
    creation_date: int  # epoch ms
    location_ip: str
    browser_used: str
    city: int  # place id
    speaks: list[str] = field(default_factory=list)
    emails: list[str] = field(default_factory=list)
    interests: list[int] = field(default_factory=list)  # tag ids
    university: int | None = None
    class_year: int | None = None
    company: int | None = None
    work_from: int | None = None


@dataclass(slots=True)
class Knows:
    person1: int
    person2: int
    creation_date: int


@dataclass(slots=True)
class Forum:
    id: int
    title: str
    creation_date: int
    moderator: int  # person id
    tags: list[int] = field(default_factory=list)


@dataclass(slots=True)
class ForumMembership:
    forum: int
    person: int
    join_date: int


@dataclass(slots=True)
class Post:
    id: int
    creation_date: int
    creator: int  # person id
    forum: int
    content: str
    length: int
    browser_used: str
    location_ip: str
    language: str
    country: int  # place id
    tags: list[int] = field(default_factory=list)


@dataclass(slots=True)
class Comment:
    id: int
    creation_date: int
    creator: int
    reply_of: int  # message id (post or comment)
    root_post: int
    content: str
    length: int
    browser_used: str
    location_ip: str
    country: int
    tags: list[int] = field(default_factory=list)


@dataclass(slots=True)
class Like:
    person: int
    message: int  # post or comment id
    creation_date: int


class UpdateKind(enum.Enum):
    """The eight LDBC SNB Interactive insert operations."""

    ADD_PERSON = "INS1"
    ADD_POST_LIKE = "INS2"
    ADD_COMMENT_LIKE = "INS3"
    ADD_FORUM = "INS4"
    ADD_FORUM_MEMBERSHIP = "INS5"
    ADD_POST = "INS6"
    ADD_COMMENT = "INS7"
    ADD_FRIENDSHIP = "INS8"


@dataclass(slots=True)
class UpdateEvent:
    """One update-stream entry.

    ``dependency_ms`` is the latest creation time among the entities this
    event references.  Every referenced entity is in the static snapshot
    or added by an earlier event, so a writer that applies the stream in
    order never meets a dangling reference.
    """

    kind: UpdateKind
    creation_ms: int
    dependency_ms: int
    payload: object  # the entity / edge dataclass above

    def __lt__(self, other: "UpdateEvent") -> bool:
        return self.creation_ms < other.creation_ms
