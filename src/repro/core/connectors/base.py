"""The connector interface: what every system under test must implement.

The operation set mirrors the paper's workloads:

* Section 4.2 micro-benchmarks: :meth:`point_lookup`, :meth:`one_hop`,
  :meth:`two_hop`, :meth:`shortest_path`.
* Section 4.3 interactive mix: the LDBC short reads (IS1–IS7 analogues),
  the two-hop complex query, and the eight insert operations (INS1–INS8)
  fed from the Kafka update stream.

Contracts are defined so results are comparable across systems (the
integration suite asserts all eight connectors return identical answers):

* ``one_hop`` / ``two_hop`` return *sorted person ids*; ``two_hop``
  excludes the start person but keeps direct friends reachable over a
  2-path (triangle closure), matching the join/traversal semantics every
  backend naturally produces.
* ``shortest_path`` returns the hop count over undirected KNOWS, or
  ``None`` when unreachable / DNF.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

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
    UpdateEvent,
    UpdateKind,
)


class OperationFailed(Exception):
    """The SUT could not complete the operation (timeout / crash / DNF)."""


class Connector(ABC):
    #: registry key, e.g. "postgres-sql"
    key: str = "abstract"
    #: query language shown in the paper's tables
    language: str = "?"
    #: paper's system name
    system: str = "?"
    #: named exclusive resources a write must hold in the concurrency
    #: harness (e.g. Titan-B's serialized writer latch)
    write_resources: tuple[str, ...] = ()
    #: analysis dialect ("cypher" | "sql" | "sparql" | "gremlin");
    #: None disables prepare-time validation
    dialect: str | None = None
    #: the module-level query catalog validated at construction
    query_catalog: object = None

    def __init__(self, options: EngineOptions | None = None) -> None:
        #: the one options object this connector hands, by identity, to
        #: every engine it builds
        self.options = options or EngineOptions()

    # -- prepare-time validation ---------------------------------------------

    def _validate_queries(self) -> None:
        """Statically check :attr:`query_catalog` against the schema.

        Called from subclass ``__init__``: a query referencing unknown
        schema elements raises
        :class:`repro.analysis.diagnostics.QueryValidationError` here,
        before any benchmark runs, instead of failing mid-run.  Results
        are cached per catalog, so repeated construction stays cheap.
        """
        if self.dialect is None or self.query_catalog is None:
            return
        from repro.analysis.linter import ensure_catalog_valid

        ensure_catalog_valid(self.dialect, self.query_catalog)

    # -- lifecycle ----------------------------------------------------------

    @abstractmethod
    def load(self, dataset: SnbDataset) -> None:
        """Bulk-load the static snapshot using the system's fast path."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Loaded database footprint (Table 1's per-system size column)."""

    # -- Section 4.2 micro reads ------------------------------------------------

    @abstractmethod
    def point_lookup(self, person_id: int) -> tuple:
        """(firstName, lastName, gender) of one person."""

    @abstractmethod
    def one_hop(self, person_id: int) -> list[int]:
        """Sorted ids of direct friends."""

    @abstractmethod
    def two_hop(self, person_id: int) -> list[int]:
        """Sorted ids of the 2-hop neighbourhood (excluding the person)."""

    @abstractmethod
    def shortest_path(self, person1: int, person2: int) -> int | None:
        """Hops on the shortest undirected KNOWS path, or None."""

    # -- LDBC short reads (IS1-IS7 analogues) ---------------------------------------

    @abstractmethod
    def person_profile(self, person_id: int) -> tuple:
        """IS1: (firstName, lastName, gender, birthday, browser, city)."""

    @abstractmethod
    def person_recent_posts(self, person_id: int, limit: int = 10) -> list:
        """IS2: the person's most recent messages:
        (message_id, content, creation_date), newest first."""

    @abstractmethod
    def person_friends(self, person_id: int) -> list[tuple]:
        """IS3: (friend_id, firstName, lastName) sorted by id."""

    @abstractmethod
    def message_content(self, message_id: int) -> tuple:
        """IS4: (content, creation_date)."""

    @abstractmethod
    def message_creator(self, message_id: int) -> tuple:
        """IS5: (person_id, firstName, lastName)."""

    @abstractmethod
    def message_forum(self, message_id: int) -> tuple:
        """IS6: (forum_id, title, moderator_id) of the containing forum
        (via the root post for comments)."""

    @abstractmethod
    def message_replies(self, message_id: int) -> list[tuple]:
        """IS7: (comment_id, creator_id, creation_date) sorted by id."""

    # -- the Section 4.3 complex query -----------------------------------------------

    @abstractmethod
    def complex_two_hop(self, person_id: int, limit: int = 20) -> list[tuple]:
        """Two-hop neighbourhood complex query: distinct friends-of-
        friends (excluding the person) with names, ordered by id, first
        ``limit`` rows: (person_id, firstName, lastName)."""

    @abstractmethod
    def friends_recent_posts(
        self, person_id: int, limit: int = 10
    ) -> list[tuple]:
        """LDBC IC2 analogue: the newest messages created by direct
        friends — (message_id, friend_id, content, creation_date), newest
        first (ties broken by descending message id)."""

    # -- LDBC inserts (INS1-INS8) -------------------------------------------------------

    @abstractmethod
    def add_person(self, person: Person) -> None:
        ...

    @abstractmethod
    def add_friendship(self, knows: Knows) -> None:
        ...

    @abstractmethod
    def add_forum(self, forum: Forum) -> None:
        ...

    @abstractmethod
    def add_forum_membership(self, membership: ForumMembership) -> None:
        ...

    @abstractmethod
    def add_post(self, post: Post) -> None:
        ...

    @abstractmethod
    def add_comment(self, comment: Comment) -> None:
        ...

    @abstractmethod
    def add_like(self, like: Like) -> None:
        """INS2/INS3 (post and comment likes share one implementation)."""

    # -- update dispatch ------------------------------------------------------------------

    def apply_update(self, event: UpdateEvent) -> None:
        """Execute one update-stream event."""
        kind, payload = event.kind, event.payload
        if kind is UpdateKind.ADD_PERSON:
            self.add_person(payload)
        elif kind is UpdateKind.ADD_FRIENDSHIP:
            self.add_friendship(payload)
        elif kind is UpdateKind.ADD_FORUM:
            self.add_forum(payload)
        elif kind is UpdateKind.ADD_FORUM_MEMBERSHIP:
            self.add_forum_membership(payload)
        elif kind is UpdateKind.ADD_POST:
            self.add_post(payload)
        elif kind is UpdateKind.ADD_COMMENT:
            self.add_comment(payload)
        elif kind in (UpdateKind.ADD_POST_LIKE, UpdateKind.ADD_COMMENT_LIKE):
            self.add_like(payload)
        else:  # pragma: no cover - exhaustive over UpdateKind
            raise ValueError(f"unknown update kind {kind}")

    def apply_update_batch(self, events: list[UpdateEvent]) -> None:
        """Execute a poll's worth of events as one group-committed unit.

        The base implementation applies them one by one; systems with a
        cheaper batch path (single transaction, one WAL flush) override
        this — the interactive writer routes through it whenever
        ``InteractiveConfig.write_batch_size > 1``.
        """
        for event in events:
            self.apply_update(event)

    # -- engine modes (see repro.options.EngineOptions) -----------------------------------

    def set_execution_mode(self, mode: str) -> None:
        """``interpreted`` or ``compiled`` execution, on every engine."""
        self.options.execution_mode = mode

    def set_isolation_level(self, level: str) -> None:
        """``snapshot`` or ``read-committed`` reads, on every engine."""
        self.options.isolation_level = level

    # -- caching hooks (overridden where relevant) -----------------------------------------

    def cache_stats(self) -> list:
        """Uniform :class:`repro.cache.CacheStats` rows, all engine caches."""
        return []

    # -- sanitizer hooks (overridden where relevant) ---------------------------------------

    def sanitize_targets(self) -> dict[str, object]:
        """Engine objects the data-integrity sanitizer may audit.

        Maps a target kind understood by
        :func:`repro.sanitizer.integrity.audit_connector` (``"sql"``,
        ``"sqlg"``, ``"graph"``, ``"rdf"``, ``"titan"``, ``"wal"``) to
        the live engine object.  Empty means the connector opts out of
        post-run auditing.
        """
        return {}

    # -- concurrency hooks (overridden where relevant) -------------------------------------

    def checkpoint_pages(self) -> int:
        """Flush dirty state; returns flushed volume (Neo4j overrides)."""
        return 0

    def supports_concurrent_loading(self) -> bool:
        return True
