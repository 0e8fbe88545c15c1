"""The schema catalog every walker validates against.

Canonical model
---------------
*Entities* are the eight SNB vertex kinds (``person``, ``forum``,
``post``, ``comment``, ``tag``, ``tagclass``, ``place``,
``organisation``); their property names and types are **derived from the
dataclasses in** :mod:`repro.snb.schema` (snake_case fields become the
camelCase property names the graph dialects use; fields that encode
edges are excluded).  *Relationships* are the sixteen SNB edge kinds
with their endpoint entity sets and edge properties.

The LDBC "message" notion (posts and comments share an id space and the
``Message`` label / ``snb:content`` predicate) is modelled as the entity
*set* ``{post, comment}`` rather than a ninth entity, so footprints stay
comparable across dialects that do and do not materialize the union.

Per-dialect mappings translate dialect-local element names (Cypher
labels, SQL tables/columns, SPARQL predicates, Gremlin labels) into this
canonical vocabulary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from repro.snb import schema as snb

#: the post/comment union ("Message" in Cypher, ``snb:content`` bearers)
MESSAGE: frozenset[str] = frozenset({"post", "comment"})

#: dataclass fields that encode edges, not properties (per entity)
_EDGE_FIELDS: dict[str, set[str]] = {
    "person": {"city", "interests", "university", "class_year",
               "company", "work_from"},
    "forum": {"moderator", "tags"},
    "post": {"creator", "forum", "country", "tags"},
    "comment": {"creator", "reply_of", "root_post", "country", "tags"},
    "tag": {"tag_class"},
    "tagclass": {"subclass_of"},
    "place": {"part_of"},
    "organisation": {"place"},
}

#: snake_case -> property-name exceptions (the rest auto-camelCase)
_RENAMES = {
    "location_ip": "locationIP",
    "emails": "email",
    "kind": "type",
}

_ENTITY_CLASSES: dict[str, type] = {
    "person": snb.Person,
    "forum": snb.Forum,
    "post": snb.Post,
    "comment": snb.Comment,
    "tag": snb.Tag,
    "tagclass": snb.TagClass,
    "place": snb.Place,
    "organisation": snb.Organisation,
}


def _camel(name: str) -> str:
    if name in _RENAMES:
        return _RENAMES[name]
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def _prop_type(annotation: str) -> str:
    if annotation.startswith("list"):
        return "list"
    if annotation.startswith("int"):
        return "int"
    return "str"


def _entity_props(name: str, cls: type) -> dict[str, str]:
    props: dict[str, str] = {}
    for field in dataclasses.fields(cls):
        if field.name in _EDGE_FIELDS[name]:
            continue
        props[_camel(field.name)] = _prop_type(str(field.type))
    return props


@dataclass(frozen=True)
class Relationship:
    """One edge kind: canonical name, endpoint entity sets, properties."""

    name: str
    src: frozenset[str]
    dst: frozenset[str]
    props: dict[str, str]


def _to_set(value: str | set[str]) -> frozenset[str]:
    return frozenset({value}) if isinstance(value, str) else frozenset(value)


def _rel(
    name: str,
    src: str | set[str],
    dst: str | set[str],
    props: dict[str, str] | None = None,
) -> Relationship:
    return Relationship(name, _to_set(src), _to_set(dst), props or {})


_RELATIONSHIPS = [
    _rel("knows", "person", "person", {"creationDate": "int"}),
    _rel("hasCreator", MESSAGE, "person"),
    _rel("containerOf", "forum", "post"),
    _rel("replyOf", "comment", MESSAGE),
    _rel("rootPost", "comment", "post"),
    _rel("likes", "person", MESSAGE, {"creationDate": "int"}),
    _rel("hasModerator", "forum", "person"),
    _rel("hasMember", "forum", "person", {"joinDate": "int"}),
    _rel("hasTag", {"forum", "post", "comment"}, "tag"),
    _rel("hasInterest", "person", "tag"),
    _rel("isLocatedIn", {"person", "post", "comment", "organisation"},
         "place"),
    _rel("isPartOf", "place", "place"),
    _rel("isSubclassOf", "tagclass", "tagclass"),
    _rel("hasType", "tag", "tagclass"),
    _rel("studyAt", "person", "organisation", {"classYear": "int"}),
    _rel("workAt", "person", "organisation", {"workFrom": "int"}),
]


# --- SQL mapping ----------------------------------------------------------------


@dataclass(frozen=True)
class SqlColumn:
    type: str  # int | str
    concept: str | None = None  # relationship a FK column encodes


@dataclass(frozen=True)
class SqlTable:
    """One table: the concept it materializes plus column details.

    ``concept`` is an entity for entity tables, a relationship for edge
    tables, and an entity for attribute side-tables (person_speaks).
    """

    concept: str
    columns: dict[str, SqlColumn]


def _cols(**kwargs: str | tuple[str, str]) -> dict[str, SqlColumn]:
    out = {}
    for name, spec in kwargs.items():
        if isinstance(spec, tuple):
            out[name] = SqlColumn(spec[0], spec[1])
        else:
            out[name] = SqlColumn(spec)
    return out


_SQL_TABLES: dict[str, SqlTable] = {
    "person": SqlTable("person", _cols(
        id="int", firstname="str", lastname="str", gender="str",
        birthday="int", creationdate="int", locationip="str",
        browserused="str", cityid=("int", "isLocatedIn"),
    )),
    "person_speaks": SqlTable("person", _cols(
        personid="int", language="str")),
    "person_email": SqlTable("person", _cols(personid="int", email="str")),
    "person_interest": SqlTable("hasInterest", _cols(
        personid="int", tagid="int")),
    "person_studyat": SqlTable("studyAt", _cols(
        personid="int", orgid="int", classyear="int")),
    "person_workat": SqlTable("workAt", _cols(
        personid="int", orgid="int", workfrom="int")),
    "knows": SqlTable("knows", _cols(
        p1="int", p2="int", creationdate="int")),
    "forum": SqlTable("forum", _cols(
        id="int", title="str", creationdate="int",
        moderatorid=("int", "hasModerator"),
    )),
    "forum_tag": SqlTable("hasTag", _cols(forumid="int", tagid="int")),
    "forum_member": SqlTable("hasMember", _cols(
        forumid="int", personid="int", joindate="int")),
    "post": SqlTable("post", _cols(
        id="int", creationdate="int", creatorid=("int", "hasCreator"),
        forumid=("int", "containerOf"), content="str", length="int",
        browserused="str", locationip="str", language="str",
        countryid=("int", "isLocatedIn"),
    )),
    "post_tag": SqlTable("hasTag", _cols(postid="int", tagid="int")),
    "comment": SqlTable("comment", _cols(
        id="int", creationdate="int", creatorid=("int", "hasCreator"),
        replyof=("int", "replyOf"), rootpost=("int", "rootPost"),
        content="str", length="int", browserused="str", locationip="str",
        countryid=("int", "isLocatedIn"),
    )),
    "comment_tag": SqlTable("hasTag", _cols(commentid="int", tagid="int")),
    "likes": SqlTable("likes", _cols(
        personid="int", messageid="int", creationdate="int")),
    "tag": SqlTable("tag", _cols(
        id="int", name="str", classid=("int", "hasType"))),
    "tagclass": SqlTable("tagclass", _cols(
        id="int", name="str", subclassof=("int", "isSubclassOf"))),
    "place": SqlTable("place", _cols(
        id="int", name="str", type="str", partof=("int", "isPartOf"))),
    "organisation": SqlTable("organisation", _cols(
        id="int", name="str", type="str",
        placeid=("int", "isLocatedIn"))),
}


# --- the catalog ----------------------------------------------------------------


class SchemaCatalog:
    """Labels, edge types, tables and property types for every dialect."""

    def __init__(self) -> None:
        self.entities: dict[str, dict[str, str]] = {
            name: _entity_props(name, cls)
            for name, cls in _ENTITY_CLASSES.items()
        }
        self.relationships: dict[str, Relationship] = {
            rel.name: rel for rel in _RELATIONSHIPS
        }
        self.sql_tables: dict[str, SqlTable] = dict(_SQL_TABLES)

        # Cypher labels: CamelCase entities plus the Message union label.
        self.cypher_labels: dict[str, frozenset[str]] = {
            "Person": frozenset({"person"}),
            "Forum": frozenset({"forum"}),
            "Post": frozenset({"post"}),
            "Comment": frozenset({"comment"}),
            "Message": MESSAGE,
            "Tag": frozenset({"tag"}),
            "TagClass": frozenset({"tagclass"}),
            "Place": frozenset({"place"}),
            "Organisation": frozenset({"organisation"}),
        }
        # Cypher relationship types: SCREAMING_SNAKE of the canonical name.
        self.cypher_rel_types: dict[str, str] = {
            _screaming(rel.name): rel.name for rel in _RELATIONSHIPS
        }

        # Gremlin: lower-case entity names; canonical edge labels as-is.
        self.gremlin_vertex_labels: dict[str, frozenset[str]] = {
            name: frozenset({name}) for name in self.entities
        }
        self.gremlin_edge_labels: dict[str, str] = {
            rel.name: rel.name for rel in _RELATIONSHIPS
        }

        # SPARQL: classes and predicates.
        self.sparql_classes: dict[str, frozenset[str]] = {
            "snb:Person": frozenset({"person"}),
            "snb:Forum": frozenset({"forum"}),
            "snb:Post": frozenset({"post"}),
            "snb:Comment": frozenset({"comment"}),
            "snb:Tag": frozenset({"tag"}),
            "snb:TagClass": frozenset({"tagclass"}),
            "snb:Place": frozenset({"place"}),
            "snb:Organisation": frozenset({"organisation"}),
        }
        self.sparql_rel_predicates: dict[str, str] = {
            f"snb:{rel.name}": rel.name for rel in _RELATIONSHIPS
        }
        # property predicates: name -> (owning entity set, value type)
        self.sparql_prop_predicates: dict[str, tuple[frozenset[str], str]] = (
            self._build_sparql_props()
        )
        # reified-statement predicates -> the relationship they describe
        self.sparql_statement_predicates: dict[str, str] = {
            "snb:knowsFrom": "knows",
            "snb:knowsTo": "knows",
            "snb:memberForum": "hasMember",
            "snb:memberPerson": "hasMember",
            "snb:joinDate": "hasMember",
            "snb:likePerson": "likes",
            "snb:likeMessage": "likes",
        }

    def _build_sparql_props(self) -> dict[str, tuple[frozenset[str], str]]:
        owners: dict[str, set[str]] = {}
        types: dict[str, str] = {}
        for entity, props in self.entities.items():
            for prop, prop_type in props.items():
                owners.setdefault(prop, set()).add(entity)
                types[prop] = prop_type
        # edge properties live on reified statement nodes; creationDate
        # additionally appears on entities so the merge above covers it
        return {
            f"snb:{prop}": (frozenset(owner_set), types[prop])
            for prop, owner_set in owners.items()
        }

    # -- lookups shared by walkers ----------------------------------------------

    def entity_prop_type(self, entities: frozenset[str], key: str) -> str | None:
        """Declared type of ``key`` on any of ``entities`` (None if the
        key exists on none of them)."""
        for entity in entities:
            declared = self.entities[entity].get(key)
            if declared is not None:
                return declared
        return None

    # -- footprint helpers -----------------------------------------------------

    def close_footprint(self, concepts: set[str]) -> frozenset[str]:
        """Normalize a raw concept set for cross-dialect comparison.

        Adds relationship endpoints (destinations always; sources when
        the source set is a single entity or the message pair, since
        wider source sets — hasTag, isLocatedIn — would over-approximate).
        """
        out = set(concepts)
        for name in list(out):
            rel = self.relationships.get(name)
            if rel is None:
                continue
            out |= rel.dst
            if len(rel.src) == 1 or rel.src == MESSAGE:
                out |= rel.src
        return frozenset(out)


def _screaming(name: str) -> str:
    out = []
    for ch in name:
        if ch.isupper():
            out.append("_")
        out.append(ch.upper())
    return "".join(out)


@lru_cache(maxsize=1)
def default_catalog() -> SchemaCatalog:
    return SchemaCatalog()
