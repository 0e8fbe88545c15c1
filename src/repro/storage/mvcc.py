"""Version chains + watermark-driven garbage collection for MVCC reads.

Each store owns one :class:`VersionStore` and keys it by its record
identity (row handles, node ids, id-triples, vertex ids).
The representation is deliberately sparse — version metadata exists only
for records written *while a snapshot was open*:

* ``_stamps``: key -> begin timestamp of the record's current value.  An
  absent stamp means "visible always" (written with no reader active),
  so bulk loading and snapshot-free operation carry zero metadata.
* ``_chains``: key -> older committed values, each valid over the
  half-open stamp interval ``[begin_ts, end_ts)``.  Chains only grow
  when an update overwrites a value some active snapshot may still need.
* ``_tombstones``: key -> deletion timestamp.  Deletes are deferred
  (the record stays in the store and its indexes, filtered on read)
  only while snapshots are active; otherwise they stay physical.

The **visibility rule**: a key is visible to snapshot ``R`` iff it was
created at or before ``R.read_ts`` (stamp absent or <= read_ts, else an
older chain version covers read_ts) and not deleted at or before it.
Reads with no snapshot see the latest committed state minus tombstones.

**GC watermark**: versions whose interval ends at or below the
watermark, stamps at or below it, and tombstones at or below it can
never be observed again — every active snapshot's ``read_ts`` is >= the
watermark (the oracle lower-bounds it by the oldest active snapshot),
and future snapshots begin even later.  :meth:`VersionStore.gc`
*asserts* that bound rather than trusting its caller: collecting past a
live reader is the classic MVCC correctness bug, and the assertion is
the regression surface for it.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

from repro.simclock.ledger import charge
from repro.txn import oracle

#: a version-store key: whatever the owning store anchors its writes on
Key = Hashable

#: updates+deletes recorded since the last collection that trigger an
#: automatic :meth:`VersionStore.gc` (heavy write traffic collects as it
#: goes instead of accreting chains without bound)
GC_THRESHOLD = 256


@dataclass
class _Version:
    """One superseded committed value, valid over [begin_ts, end_ts)."""

    value: Any
    begin_ts: int
    end_ts: int


class VersionStore:
    """Per-store MVCC metadata: stamps, version chains, tombstones."""

    def __init__(
        self,
        name: str = "mvcc",
        *,
        gc_threshold: int = GC_THRESHOLD,
        on_reclaim: Callable[[Key], None] | None = None,
    ) -> None:
        self.name = name
        self.gc_threshold = gc_threshold
        #: called with each tombstoned key whose deferred physical
        #: removal the collector decides is safe
        self.on_reclaim = on_reclaim
        self._stamps: dict[Key, int] = {}
        self._chains: dict[Key, list[_Version]] = {}
        self._tombstones: dict[Key, int] = {}
        self._dirty_since_gc = 0
        self.versions_reclaimed = 0
        self.gc_runs = 0

    # -- write side ---------------------------------------------------------

    def stamp(self, key: Key) -> None:
        """Record a new key's begin timestamp (insert path).

        With no snapshot open the stamp is skipped entirely: an unstamped
        record is visible to every view, and future snapshots only begin
        at later timestamps.
        """
        if oracle.snapshots_active():
            self._stamps[key] = oracle.ORACLE.advance()

    def record_update(self, key: Key, old_value: Any) -> None:
        """Preserve ``old_value`` before the caller overwrites ``key``.

        Must be called *before* the in-place write.  With no snapshot
        open nothing is kept — no reader can ever ask for the old value.
        """
        if not oracle.snapshots_active():
            return
        ts = oracle.ORACLE.advance()
        self._chains.setdefault(key, []).append(
            _Version(old_value, self._stamps.get(key, 0), ts)
        )
        self._stamps[key] = ts
        self._dirty_since_gc += 1
        self.maybe_gc()

    def record_delete(self, key: Key) -> bool:
        """Note a delete; True means it was deferred (tombstoned).

        When snapshots are active the caller must keep the record (and
        its index entries) in place — reads filter it by visibility —
        until the collector reclaims it via :attr:`on_reclaim`.  With no
        snapshot open the delete stays physical (False) and any
        metadata for the key is dropped.
        """
        if oracle.snapshots_active():
            self._tombstones[key] = oracle.ORACLE.advance()
            self._dirty_since_gc += 1
            self.maybe_gc()
            return True
        self._stamps.pop(key, None)
        self._chains.pop(key, None)
        return False

    def undelete(self, key: Key) -> bool:
        """Remove a tombstone (transaction-abort undo); was it present?"""
        return self._tombstones.pop(key, None) is not None

    def record_recreate(self, key: Key, old_value: Any = True) -> bool:
        """Re-insert a key whose delete was deferred; was it tombstoned?

        Unlike :meth:`undelete` (an *undo* — as if the delete never
        happened), a re-create is a new fact: snapshots older than the
        delete keep seeing ``old_value`` via a chain version covering
        ``[begin_ts, deleted_at)``, views between the delete and the
        re-insert see nothing, and the fresh stamp makes the key visible
        only from now on.
        """
        deleted_at = self._tombstones.pop(key, None)
        if deleted_at is None:
            return False
        self._chains.setdefault(key, []).append(
            _Version(old_value, self._stamps.get(key, 0), deleted_at)
        )
        self._stamps[key] = oracle.ORACLE.advance()
        self._dirty_since_gc += 1
        return True

    def move(self, old_key: Key, new_key: Key) -> None:
        """Re-key metadata when the store relocates a record."""
        if old_key in self._stamps:
            self._stamps[new_key] = self._stamps.pop(old_key)
        if old_key in self._chains:
            self._chains[new_key] = self._chains.pop(old_key)
        if old_key in self._tombstones:
            self._tombstones[new_key] = self._tombstones.pop(old_key)

    # -- read side ----------------------------------------------------------

    def visible(self, key: Key) -> bool:
        """Apply the visibility rule for ``key`` under the current view."""
        snapshot = oracle.CURRENT
        if snapshot is None:
            # current reads: latest committed state minus deferred deletes
            return not self._tombstones or key not in self._tombstones
        if not (self._stamps or self._tombstones):
            return True  # untouched store: every snapshot sees everything
        charge("version_check")
        read_ts = snapshot.read_ts
        deleted_at = self._tombstones.get(key)
        if deleted_at is not None and deleted_at <= read_ts:
            return False
        begin_ts = self._stamps.get(key)
        if begin_ts is None or begin_ts <= read_ts:
            return True
        # current value too new: visible only if an older version covers
        return self._covering(key, read_ts) is not None

    def filter_visible(self, keys: list[Any]) -> list[Any]:
        """Drop keys the current view must not see (index probe results).

        Returns the input list unchanged (no copy) in the common case of
        no snapshot and no deferred deletes.
        """
        if oracle.CURRENT is None and not self._tombstones:
            return keys
        return [k for k in keys if self.visible(k)]

    def stale(self, key: Key) -> bool:
        """Whether the current view must chain-walk past ``key``'s value.

        True only when a snapshot is active and the key's latest value
        was stamped after it — the vectorized batch readers use this to
        fall back to per-record chain walks.
        """
        snapshot = oracle.CURRENT
        if snapshot is None or not self._stamps:
            return False
        begin_ts = self._stamps.get(key)
        return begin_ts is not None and begin_ts > snapshot.read_ts

    def stale_keys(self) -> list[Key]:
        """Keys whose latest value was stamped after the current view began.

        These are exactly the keys whose secondary-index entries may have
        *moved* since the snapshot started (an update re-files the entry
        under the new indexed value): index lookups re-check them against
        the snapshot-visible value to drop false positives and recover
        rows whose old-value entries are gone.  Empty when no snapshot is
        active, so snapshot-free operation pays nothing.
        """
        snapshot = oracle.CURRENT
        if snapshot is None or not self._stamps:
            return []
        read_ts = snapshot.read_ts
        return [k for k, ts in self._stamps.items() if ts > read_ts]

    def recheck_stale(
        self,
        hits: list[Key],
        stale: list[Key],
        matches: Callable[[Key], bool],
    ) -> list[Key]:
        """Correct an index probe's visible ``hits`` for moved entries.

        ``stale`` is the caller's share of :meth:`stale_keys` (non-empty;
        callers return ``hits`` themselves otherwise) and ``matches(key)``
        whether the key's *snapshot* value — the caller's :meth:`read` —
        still satisfies the probe.  Stale hits that no longer match are
        dropped (the entry was re-filed under the probed value after the
        snapshot began); stale visible keys missing from ``hits`` are
        recovered when they match (their old-value entry is gone).
        """
        kept = [
            key for key in hits if not self.stale(key) or matches(key)
        ]
        seen = set(kept)
        kept.extend(
            key
            for key in stale
            if key not in seen and self.visible(key) and matches(key)
        )
        return kept

    def read(self, key: Key, current_value: Any) -> Any:
        """The value of ``key`` as of the current view.

        ``current_value`` is the store's latest committed value; a stale
        snapshot walks the chain to the covering older version.  Only
        call for keys :meth:`visible` returned True for.
        """
        snapshot = oracle.CURRENT
        if snapshot is None:
            return current_value
        begin_ts = self._stamps.get(key)
        if begin_ts is None or begin_ts <= snapshot.read_ts:
            return current_value
        version = self._covering(key, snapshot.read_ts)
        if version is None:  # pragma: no cover - guarded by visible()
            raise KeyError(
                f"{self.name}: no version of {key!r} at ts "
                f"{snapshot.read_ts}"
            )
        return version.value

    def _covering(self, key: Key, read_ts: int) -> _Version | None:
        """The chain version whose interval contains ``read_ts``."""
        for version in reversed(self._chains.get(key, ())):
            charge("version_walk")
            if version.begin_ts <= read_ts < version.end_ts:
                return version
            if version.end_ts <= read_ts:
                break  # intervals are ordered; nothing older can cover
        return None

    # -- garbage collection --------------------------------------------------

    def maybe_gc(self) -> int:
        """Collect when enough writes accumulated since the last run."""
        if self._dirty_since_gc < self.gc_threshold:
            return 0
        return self.gc()

    def gc(
        self,
        watermark: int | None = None,
        *,
        oldest_active: int | None = None,
    ) -> int:
        """Reclaim versions no active or future snapshot can observe.

        ``watermark`` defaults to the oracle's (the oldest active
        snapshot's read timestamp, or the latest stamp when idle);
        ``oldest_active`` defaults to the oracle's oldest held snapshot.
        The watermark must never exceed the oldest active snapshot —
        that would collect versions a live reader still needs — and the
        collector refuses to run rather than silently corrupt a reader.
        Returns the number of reclaimed versions/stamps/tombstones.
        """
        if watermark is None:
            watermark = oracle.ORACLE.watermark()
        if oldest_active is None:
            oldest_active = oracle.ORACLE.oldest_active()
        if oldest_active is not None and watermark > oldest_active:
            raise ValueError(
                f"{self.name}: GC watermark {watermark} exceeds the "
                f"oldest active snapshot ts {oldest_active}; collecting "
                f"past a live reader would corrupt its snapshot"
            )
        reclaimed = 0
        for key in list(self._chains):
            chain = self._chains[key]
            kept = [v for v in chain if v.end_ts > watermark]
            reclaimed += len(chain) - len(kept)
            if kept:
                self._chains[key] = kept
            else:
                del self._chains[key]
        for key in [
            k for k, ts in self._stamps.items() if ts <= watermark
        ]:
            # visible to every remaining view: the stamp is redundant
            if key not in self._tombstones:
                del self._stamps[key]
                reclaimed += 1
        for key in [
            k for k, ts in self._tombstones.items() if ts <= watermark
        ]:
            # invisible to every remaining view: physically removable
            del self._tombstones[key]
            self._stamps.pop(key, None)
            self._chains.pop(key, None)
            if self.on_reclaim is not None:
                self.on_reclaim(key)
            reclaimed += 1
        self._dirty_since_gc = 0
        self.gc_runs += 1
        self.versions_reclaimed += reclaimed
        return reclaimed

    # -- introspection -------------------------------------------------------

    def metadata_counts(self) -> dict[str, int]:
        """Live metadata sizes (the GC regression tests assert on these)."""
        return {
            "stamps": len(self._stamps),
            "chain_versions": sum(
                len(c) for c in self._chains.values()
            ),
            "tombstones": len(self._tombstones),
        }
