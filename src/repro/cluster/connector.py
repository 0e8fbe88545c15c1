"""The cluster coordinator: N sharded engines behind one ``Connector``.

``ClusterConnector`` is a drop-in system under test — every harness in
the repo (lint, validate, sanitize, the Figure 3 interactive mix, the
latency tables) drives it through the same interface as a single-node
engine.  Internally it:

* partitions the loaded dataset by person-id hash into reference-closed
  shards (:mod:`repro.cluster.partition`), one stock engine per shard;
* routes single-person / single-message reads to the one home shard that
  holds the entity's complete adjacency, and fans multi-person reads
  (two-hop, friends-of-friends, distributed BFS) out as scatter waves
  with critical-path cost accounting (:mod:`repro.cluster.scatter`);
* funnels every write — client inserts and the ghost materializations
  they trigger — through each target shard's
  :class:`~repro.cluster.pods.ShardPrimary`, which taps the event into
  the shard's own CDC topic-partition; cross-shard inserts take
  exclusive ``("shard", i)`` locks in one globally sorted order
  (:meth:`LockManager.acquire_many`), so concurrent multi-shard writers
  cannot deadlock;
* optionally serves reads from CDC-fed replicas under a bounded-
  staleness budget (``set_read_preference("replica", budget)``).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from typing import Any, TypeVar

from repro.cache import CacheStats
from repro.cluster.partition import (
    MessageDirectory,
    Partitioned,
    partition_dataset,
    shard_of,
)
from repro.cluster.pods import CDC_TOPIC, ReadReplica, ShardPrimary
from repro.cluster.scatter import ScatterGather, gather_sorted, gather_union
from repro.core.connectors.base import Connector
from repro.kafka import Broker, Producer
from repro.options import EngineOptions
from repro.simclock.costmodel import CostModel
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
from repro.txn.locks import LockManager, LockMode

T = TypeVar("T")

#: queued per-shard work: ordered events (client + ghost) for one wave
_Ops = dict[int, list[UpdateEvent]]


class ClusterConnector(Connector):
    """A horizontally sharded deployment of one backend engine."""

    key = "cluster"
    language = "scatter/gather"
    system = "Cluster"
    dialect = None  # per-shard engines validate their own catalogs

    def __init__(
        self,
        backend: str = "postgres-sql",
        shards: int = 4,
        replicas: int = 0,
        *,
        staleness_budget: int = 0,
        read_preference: str = "primary",
        model: CostModel | None = None,
        options: EngineOptions | None = None,
    ) -> None:
        super().__init__(options)
        if shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 0:
            raise ValueError("replicas must be >= 0")
        if backend == self.key:
            raise ValueError("cannot nest clusters")
        self.backend = backend
        self.shard_count = shards
        self.replica_count = replicas
        self.system = f"Cluster[{backend} x{shards}]"
        self.scatter = ScatterGather(model)
        self.locks = LockManager()
        self._txn_seq = 0
        self._read_preference = "primary"
        self._staleness_budget = 0
        self._rr = 0
        self.primaries: list[ShardPrimary] = []
        self.replicas: list[list[ReadReplica]] = []
        self.part: Partitioned | None = None
        self.directory: MessageDirectory = MessageDirectory()
        self._broker: Broker | None = None
        self._producer: Producer | None = None
        self.set_read_preference(read_preference, staleness_budget)

    # -- configuration -------------------------------------------------------

    def set_read_preference(self, preference: str, budget: int = 0) -> None:
        """Serve reads from ``"primary"`` or ``"replica"`` pods.

        ``budget`` is the bounded-staleness knob for replica reads: the
        maximum CDC lag, in records, a serving replica may carry.  A
        read that finds its replica further behind first drains it to
        within the budget (and pays for that catch-up).
        """
        if preference not in ("primary", "replica"):
            raise ValueError(f"unknown read preference {preference!r}")
        if budget < 0:
            raise ValueError("staleness budget must be >= 0")
        self._read_preference = preference
        self._staleness_budget = budget

    # -- lifecycle -----------------------------------------------------------

    def load(self, dataset: SnbDataset) -> None:
        from repro.core.connectors import SUT_KEYS, make_connector

        if self.backend not in SUT_KEYS:
            raise KeyError(f"unknown cluster backend {self.backend!r}")
        self.part = partition_dataset(dataset, self.shard_count)
        self.directory = self.part.directory
        self._broker = Broker()
        self._broker.create_topic(CDC_TOPIC, partitions=self.shard_count)
        self._producer = Producer(self._broker, batch_size=1)
        self.primaries = []
        self.replicas = []
        for s in range(self.shard_count):
            # every pod shares the coordinator's options object, so a
            # mode set before or after load() reaches all of them
            engine = make_connector(self.backend, options=self.options)
            engine.load(self.part.shards[s])
            self.primaries.append(ShardPrimary(s, engine, self._producer))
            pods: list[ReadReplica] = []
            for r in range(self.replica_count):
                replica_engine = make_connector(
                    self.backend, options=self.options
                )
                replica_engine.load(self.part.shards[s])
                # pods of one shard share the bytecode/closure cache:
                # a replica warms up without recompiling what its
                # primary already compiled
                primary_server = getattr(engine, "server", None)
                replica_server = getattr(replica_engine, "server", None)
                if primary_server is not None and replica_server is not None:
                    replica_server.share_closure_cache(primary_server)
                pods.append(
                    ReadReplica(s, r, replica_engine, self._broker)
                )
            self.replicas.append(pods)

    def size_bytes(self) -> int:
        return sum(p.engine.size_bytes() for p in self.primaries)

    # -- pod selection / read plumbing ---------------------------------------

    def _home(self, person_id: int) -> int:
        return shard_of(person_id, self.shard_count)

    def _pick(
        self, s: int
    ) -> tuple[tuple[int, str], Connector, ReadReplica | None]:
        """Choose the pod that serves a read on shard ``s``."""
        if self._read_preference == "replica" and self.replicas[s]:
            idx = self._rr % len(self.replicas[s])
            self._rr += 1
            replica = self.replicas[s][idx]
            return (s, f"replica-{idx}"), replica.engine, replica
        return (s, "primary"), self.primaries[s].engine, None

    def _sub_call(
        self,
        engine: Connector,
        replica: ReadReplica | None,
        run: Callable[[Connector], T],
    ) -> Callable[[], T]:
        def call() -> T:
            if replica is not None:
                replica.catch_up(self._staleness_budget)
            return run(engine)

        return call

    def _call_one(self, s: int, run: Callable[[Connector], T]) -> T:
        """Route one read to shard ``s`` as a one-pod scatter wave."""
        pod, engine, replica = self._pick(s)
        return self.scatter.run({pod: self._sub_call(engine, replica, run)})[
            pod
        ]

    def _fanout(
        self,
        person_ids: Iterable[int],
        run: Callable[[Connector, list[int]], T],
    ) -> list[T]:
        """Group ids by home shard, one concurrent sub-call per shard."""
        groups: dict[int, list[int]] = {}
        for pid in person_ids:
            groups.setdefault(self._home(pid), []).append(pid)
        calls: dict[Hashable, Callable[[], T]] = {}
        for s in sorted(groups):
            pod, engine, replica = self._pick(s)
            calls[pod] = self._sub_call(
                engine,
                replica,
                lambda e, group=groups[s]: run(e, group),
            )
        results = self.scatter.run(calls)
        return [results[pod] for pod in calls]

    # -- Section 4.2 micro reads ---------------------------------------------

    def point_lookup(self, person_id: int) -> tuple:
        s = self._home(person_id)
        return self._call_one(s, lambda e: e.point_lookup(person_id))

    def one_hop(self, person_id: int) -> list[int]:
        s = self._home(person_id)
        return self._call_one(s, lambda e: e.one_hop(person_id))

    def two_hop(self, person_id: int) -> list[int]:
        friends = self.one_hop(person_id)
        if not friends:
            return []
        runs = self._fanout(
            friends,
            lambda e, group: set().union(*(e.one_hop(f) for f in group)),
        )
        return gather_union(runs, exclude=(person_id,))

    def shortest_path(self, person1: int, person2: int) -> int | None:
        """Distributed frontier BFS, depth-capped like the engines (12)."""
        if person1 == person2:
            return 0
        visited = {person1}
        frontier = [person1]
        depth = 0
        while frontier and depth < 12:
            depth += 1
            runs = self._fanout(
                frontier,
                lambda e, group: set().union(
                    *(e.one_hop(f) for f in group)
                ),
            )
            neighbors: set[int] = set().union(*runs)
            charge("gather_item", len(neighbors))
            if person2 in neighbors:
                return depth
            frontier = sorted(neighbors - visited)
            visited |= neighbors
        return None

    # -- LDBC short reads ------------------------------------------------------

    def person_profile(self, person_id: int) -> tuple:
        s = self._home(person_id)
        return self._call_one(s, lambda e: e.person_profile(person_id))

    def person_recent_posts(self, person_id: int, limit: int = 10) -> list:
        s = self._home(person_id)
        return self._call_one(
            s, lambda e: e.person_recent_posts(person_id, limit)
        )

    def person_friends(self, person_id: int) -> list[tuple]:
        s = self._home(person_id)
        return self._call_one(s, lambda e: e.person_friends(person_id))

    def _message_home(self, message_id: int) -> int | None:
        return self.directory.home.get(message_id)

    def message_content(self, message_id: int) -> tuple:
        s = self._message_home(message_id)
        if s is None:
            return ()
        return self._call_one(s, lambda e: e.message_content(message_id))

    def message_creator(self, message_id: int) -> tuple:
        s = self._message_home(message_id)
        if s is None:
            return ()
        return self._call_one(s, lambda e: e.message_creator(message_id))

    def message_forum(self, message_id: int) -> tuple:
        if message_id not in self.directory.root:
            return ()
        # a comment's containing forum is its root post's; re-anchoring
        # at the root keeps this a single-shard read (the root's home
        # holds the forum ghost) with the same answer
        root = self.directory.root[message_id]
        target = message_id if root is None else root
        s = self.directory.home[target]
        return self._call_one(s, lambda e: e.message_forum(target))

    def message_replies(self, message_id: int) -> list[tuple]:
        s = self._message_home(message_id)
        if s is None:
            return []
        # every reply is mirrored at its parent's home shard
        return self._call_one(s, lambda e: e.message_replies(message_id))

    # -- complex reads ---------------------------------------------------------

    def complex_two_hop(self, person_id: int, limit: int = 20) -> list[tuple]:
        ids = self.two_hop(person_id)[:limit]
        if not ids:
            return []
        runs = self._fanout(
            ids,
            lambda e, group: [
                (i,) + tuple(e.point_lookup(i)[:2]) for i in group
            ],
        )
        return gather_sorted(runs, key=lambda row: row[0], limit=limit)

    def friends_recent_posts(
        self, person_id: int, limit: int = 10
    ) -> list[tuple]:
        friends = self.one_hop(person_id)
        if not friends:
            return []

        def per_shard(e: Connector, group: list[int]) -> list[tuple]:
            rows: list[tuple] = []
            for friend in group:
                for mid, content, date in e.person_recent_posts(
                    friend, limit
                ):
                    rows.append((mid, friend, content, date))
            rows.sort(key=lambda r: (-r[3], -r[0]))
            return rows[:limit]

        runs = self._fanout(friends, per_shard)
        return gather_sorted(
            runs, key=lambda r: (-r[3], -r[0]), limit=limit
        )

    # -- write path ------------------------------------------------------------

    def _next_txn(self) -> int:
        self._txn_seq += 1
        return self._txn_seq

    def _queue(self, ops: _Ops, s: int, event: UpdateEvent) -> None:
        ops.setdefault(s, []).append(event)

    def _ghost(self, kind: UpdateKind, payload: Any) -> UpdateEvent:
        created = getattr(payload, "creation_date", 0)
        return UpdateEvent(kind, created, 0, payload)

    def _ensure_person(self, pid: int, s: int, ops: _Ops) -> None:
        assert self.part is not None
        if pid in self.part.persons_at[s]:
            return
        self.part.persons_at[s].add(pid)
        person = self.part.person_payload[pid]
        self._queue(ops, s, self._ghost(UpdateKind.ADD_PERSON, person))

    def _ensure_forum(self, fid: int, s: int, ops: _Ops) -> None:
        assert self.part is not None
        if fid in self.part.forums_at[s]:
            return
        forum = self.part.forum_payload[fid]
        self._ensure_person(forum.moderator, s, ops)
        self.part.forums_at[s].add(fid)
        self._queue(ops, s, self._ghost(UpdateKind.ADD_FORUM, forum))

    def _ensure_message(self, mid: int, s: int, ops: _Ops) -> None:
        """Ghost a message (and its reference closure) onto shard ``s``."""
        assert self.part is not None
        if mid in self.part.messages_at[s]:
            return
        payload = self.part.message_payload[mid]
        self._ensure_person(payload.creator, s, ops)
        if isinstance(payload, Post):
            self._ensure_forum(payload.forum, s, ops)
            kind = UpdateKind.ADD_POST
        else:
            self._ensure_message(payload.reply_of, s, ops)
            self._ensure_message(payload.root_post, s, ops)
            kind = UpdateKind.ADD_COMMENT
        self.part.messages_at[s].add(mid)
        self._queue(ops, s, self._ghost(kind, payload))

    def _plan_event(self, event: UpdateEvent, ops: _Ops) -> None:
        """Queue one client event (plus any ghosts it needs) per shard."""
        assert self.part is not None
        kind = event.kind
        payload: Any = event.payload
        if kind is UpdateKind.ADD_PERSON:
            self.part.person_payload[payload.id] = payload
            s = self._home(payload.id)
            self.part.persons_at[s].add(payload.id)
            self._queue(ops, s, event)
        elif kind is UpdateKind.ADD_FRIENDSHIP:
            for s in sorted(
                {self._home(payload.person1), self._home(payload.person2)}
            ):
                self._ensure_person(payload.person1, s, ops)
                self._ensure_person(payload.person2, s, ops)
                self._queue(ops, s, event)
        elif kind is UpdateKind.ADD_FORUM:
            self.part.forum_payload[payload.id] = payload
            s = self._home(payload.moderator)
            self.part.forums_at[s].add(payload.id)
            self._queue(ops, s, event)
        elif kind is UpdateKind.ADD_FORUM_MEMBERSHIP:
            s = self._home(payload.person)
            self._ensure_forum(payload.forum, s, ops)
            self._queue(ops, s, event)
        elif kind is UpdateKind.ADD_POST:
            self.part.message_payload[payload.id] = payload
            self.directory.register_post(payload, self.shard_count)
            s = self._home(payload.creator)
            self._ensure_forum(payload.forum, s, ops)
            self.part.messages_at[s].add(payload.id)
            self._queue(ops, s, event)
        elif kind is UpdateKind.ADD_COMMENT:
            self.part.message_payload[payload.id] = payload
            self.directory.register_comment(payload, self.shard_count)
            home = self._home(payload.creator)
            mirror = self.directory.home[payload.reply_of]
            for s in sorted({home, mirror}):
                self._ensure_person(payload.creator, s, ops)
                self._ensure_message(payload.reply_of, s, ops)
                self._ensure_message(payload.root_post, s, ops)
                self.part.messages_at[s].add(payload.id)
                self._queue(ops, s, event)
        elif kind in (
            UpdateKind.ADD_POST_LIKE,
            UpdateKind.ADD_COMMENT_LIKE,
        ):
            s = self.directory.home[payload.message]
            self._ensure_person(payload.person, s, ops)
            self._queue(ops, s, event)
        else:  # pragma: no cover - exhaustive over UpdateKind
            raise ValueError(f"unknown update kind {kind}")

    def _apply_events(self, events: list[UpdateEvent]) -> None:
        """Plan, lock, and apply a group of events as one scatter wave.

        Shard locks are taken with :meth:`LockManager.acquire_many`, i.e.
        in one global sorted order — two coordinators (or one coordinator
        and an administrative task) locking overlapping shard sets cannot
        deadlock.  Each shard's events apply in plan order through its
        primary, which is also the CDC partition order.
        """
        ops: _Ops = {}
        for event in events:
            self._plan_event(event, ops)
        if not ops:
            return
        txn = self._next_txn()
        self.locks.acquire_many(
            txn,
            [("shard", s) for s in ops],
            LockMode.EXCLUSIVE,
        )
        try:
            calls: dict[Hashable, Callable[[], None]] = {}
            for s in sorted(ops):
                primary, queued = self.primaries[s], ops[s]

                def apply_all(
                    p: ShardPrimary = primary,
                    evs: list[UpdateEvent] = queued,
                ) -> None:
                    for ev in evs:
                        p.apply(ev)

                calls[(s, "primary")] = apply_all
            self.scatter.run(calls)
            assert self._producer is not None
            self._producer.flush()
        finally:
            self.locks.release_all(txn)

    def apply_update(self, event: UpdateEvent) -> None:
        self._apply_events([event])

    def apply_update_batch(self, events: list[UpdateEvent]) -> None:
        self._apply_events(list(events))

    def add_person(self, person: Person) -> None:
        self._apply_events(
            [self._ghost(UpdateKind.ADD_PERSON, person)]
        )

    def add_friendship(self, knows: Knows) -> None:
        self._apply_events(
            [self._ghost(UpdateKind.ADD_FRIENDSHIP, knows)]
        )

    def add_forum(self, forum: Forum) -> None:
        self._apply_events([self._ghost(UpdateKind.ADD_FORUM, forum)])

    def add_forum_membership(self, membership: ForumMembership) -> None:
        event = UpdateEvent(
            UpdateKind.ADD_FORUM_MEMBERSHIP,
            membership.join_date,
            0,
            membership,
        )
        self._apply_events([event])

    def add_post(self, post: Post) -> None:
        self._apply_events([self._ghost(UpdateKind.ADD_POST, post)])

    def add_comment(self, comment: Comment) -> None:
        self._apply_events([self._ghost(UpdateKind.ADD_COMMENT, comment)])

    def add_like(self, like: Like) -> None:
        kind = (
            UpdateKind.ADD_POST_LIKE
            if self.directory.root.get(like.message) is None
            else UpdateKind.ADD_COMMENT_LIKE
        )
        self._apply_events([self._ghost(kind, like)])

    # -- replication -----------------------------------------------------------

    def sync_replicas(self, budget: int = 0) -> int:
        """Drain every replica to within ``budget`` CDC records."""
        calls: dict[Hashable, Callable[[], int]] = {}
        for pods in self.replicas:
            for replica in pods:
                calls[
                    (replica.shard_id, f"replica-{replica.replica_id}")
                ] = lambda r=replica: r.catch_up(budget)
        if not calls:
            return 0
        return sum(self.scatter.run(calls).values())

    def replica_staleness(self) -> dict[tuple[int, int], int]:
        """Current CDC lag, in records, of every replica pod."""
        return {
            (r.shard_id, r.replica_id): r.staleness()
            for pods in self.replicas
            for r in pods
        }

    def max_staleness(self) -> int:
        return max(self.replica_staleness().values(), default=0)

    # -- harness hooks ---------------------------------------------------------

    def set_isolation_level(self, level: str) -> None:
        # trajectory finding 5: a sqlg pod's backing Database keeps
        # private options, so its connector override must be called;
        # delete together with SqlgConnector.set_isolation_level once
        # SqlgProvider takes options=self.options
        super().set_isolation_level(level)
        for primary in self.primaries:
            primary.engine.set_isolation_level(level)
        for pods in self.replicas:
            for replica in pods:
                replica.engine.set_isolation_level(level)

    def cache_stats(self) -> list[CacheStats]:
        rows: list[CacheStats] = []
        for primary in self.primaries:
            rows.extend(primary.engine.cache_stats())
        for pods in self.replicas:
            for replica in pods:
                rows.extend(replica.engine.cache_stats())
        return rows

    def sanitize_targets(self) -> dict[str, object]:
        # per-shard engines are stock single-node engines whose integrity
        # audits run in single-node mode; the cluster layer's own
        # invariants are covered by the parity and CDC-ordering tests
        return {}

    def checkpoint_pages(self) -> int:
        return sum(p.engine.checkpoint_pages() for p in self.primaries)
