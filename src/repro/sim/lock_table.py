"""The simulator's authoritative lock table.

Tracks, per entity, which transactions hold which mode(s).  Grant rule: a
request conflicts if any *other* transaction holds a mode that conflicts
(only SHARED/SHARED is compatible).

Two facilities support the event-driven scheduler:

* **Mode multisets.** A transaction may hold SHARED and EXCLUSIVE on the
  same entity at once (a lock upgrade).  Each mode is tracked separately,
  so ``release(txn, entity, SHARED)`` after an upgrade removes only the
  shared grant and the exclusive one stays visible — the historical
  behaviour of overwriting the mode made that release a silent no-op and
  leaked the exclusive lock until abort.
* **Per-entity wait queues.** Blocked transactions register as waiters via
  :meth:`add_waiter`; :meth:`release` and :meth:`release_all_wake` return
  the *wake-up set* — the waiters whose requested mode became grantable on
  an entity whose holder set weakened — so the scheduler re-examines
  exactly the sessions a release might have unblocked instead of
  rescanning every live session each tick.  Waiters that still conflict
  with the remaining holders (an EXCLUSIVE waiter across another holder's
  EXCLUSIVE→SHARED downgrade, say) are not in the set: waking them was a
  pure wasted re-classification.  :meth:`waiter_modes` exposes the queued
  requests so the scheduler can maintain those waiters' waits-for edges
  without re-classifying them.

**Sharding.**  The table partitions its per-entity state (holder maps and
wait queues) across ``shards`` entity-hash shards behind this unchanged
public API.  Every query and mutation is per-entity and therefore
shard-local; the only cross-entity walks (``release_all`` and its wake
variant) iterate the *per-transaction* held index, which stays global and
sorted — so any shard count produces byte-identical grants, wake-up sets,
and release orders, and ``shards=1`` is exactly the historical single-dict
table.  The partitioning is what lets a future parallel scheduler hand
each shard to its own worker without touching callers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.operations import LockMode
from ..core.steps import Entity


class _Shard:
    """Per-entity state of one partition: holder maps and wait queues."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        #: Entity -> {transaction: set of granted modes}.
        self.holders: Dict[Entity, Dict[str, Set[LockMode]]] = {}
        #: Per-entity wait queue: waiter -> requested mode (arrival order).
        self.waiters: Dict[Entity, Dict[str, LockMode]] = {}


class LockTable:
    """Entity -> {transaction: modes} with conflict queries and wait
    queues, partitioned over ``shards`` entity-hash shards (``shards=1``,
    the default, is the single-partition reference)."""

    def __init__(self, shards: int = 1) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self._parts = [_Shard() for _ in range(shards)]
        #: Per-transaction index of held entities (O(footprint)
        #: release_all); global — it orders the cross-entity walks.
        self._held: Dict[str, Set[Entity]] = {}
        #: Reverse waiter index: waiter -> entity it waits on (global; a
        #: transaction waits on at most one entity at a time).
        self._waiting_on: Dict[str, Entity] = {}
        #: Opt-in change log for replica-owning executors: the set of
        #: entities whose holder map mutated since the last drain.  Off
        #: (``None``) by default — tracking costs one ``set.add`` per
        #: holder mutation, and only the process executor reads it.
        self._delta_log: Optional[Set[Entity]] = None

    # ------------------------------------------------------------------
    # Holder-delta extraction (process-executor replica protocol)
    # ------------------------------------------------------------------

    def enable_delta_tracking(self) -> None:
        """Start recording which entities' holder maps change.  Must be
        called before any grant so the first :meth:`take_holder_delta`
        bootstraps a complete replica (the delta of everything-from-empty
        is the full state)."""
        if self._delta_log is None:
            self._delta_log = set()

    def take_holder_delta(self) -> Dict[Entity, Optional[Dict[str, LockMode]]]:
        """Drain the change log: entity -> current effective-mode holder
        map (``None`` when no holders remain).  Exactly the inputs of
        :meth:`blockers` for those entities, which is what a worker-side
        replica needs to reproduce its verdicts byte-identically."""
        log = self._delta_log
        if not log:
            return {}
        delta: Dict[Entity, Optional[Dict[str, LockMode]]] = {}
        for entity in sorted(log, key=repr):  # deterministic payload bytes
            held = self._part(entity).holders.get(entity)
            delta[entity] = (
                {txn: self._effective(modes) for txn, modes in held.items()}
                if held
                else None
            )
        log.clear()
        return delta

    def _mark_changed(self, entity: Entity) -> None:
        if self._delta_log is not None:
            self._delta_log.add(entity)

    def shard_of(self, entity: Entity) -> int:
        """Shard index of ``entity`` under the entity-hash rule — the
        query the phase pipeline uses to key shard-local work sets.  It is
        the single home of the partitioning rule: :meth:`_part` routes
        through it, so slice routing and table routing agree by
        construction (asserted by the randomized partition tests)."""
        return hash(entity) % self.shards

    def _part(self, entity: Entity) -> _Shard:
        if self.shards == 1:
            # The default table: every entity's home is the one partition,
            # so nothing is hashed on the path every query goes through.
            return self._parts[0]
        return self._parts[self.shard_of(entity)]

    # ------------------------------------------------------------------
    # Holder queries
    # ------------------------------------------------------------------

    @staticmethod
    def _effective(modes: Set[LockMode]) -> LockMode:
        return (
            LockMode.EXCLUSIVE if LockMode.EXCLUSIVE in modes else LockMode.SHARED
        )

    def holders(self, entity: Entity) -> Dict[str, LockMode]:
        """Transactions holding ``entity``, mapped to their strongest mode."""
        return {
            txn: self._effective(modes)
            for txn, modes in self._part(entity).holders.get(entity, {}).items()
        }

    def mode_held(self, txn: str, entity: Entity) -> Optional[LockMode]:
        modes = self._part(entity).holders.get(entity, {}).get(txn)
        return self._effective(modes) if modes else None

    def modes_held(self, txn: str, entity: Entity) -> FrozenSet[LockMode]:
        """Every mode ``txn`` holds on ``entity`` (both, after an upgrade)."""
        return frozenset(self._part(entity).holders.get(entity, {}).get(txn, ()))

    def blockers(self, txn: str, entity: Entity, mode: LockMode) -> List[str]:
        """Other transactions holding conflicting modes on ``entity``."""
        return [
            other
            for other, modes in self._part(entity).holders.get(entity, {}).items()
            if other != txn and mode.conflicts_with(self._effective(modes))
        ]

    def grantable(self, txn: str, entity: Entity, mode: LockMode) -> bool:
        return not self.blockers(txn, entity, mode)

    # ------------------------------------------------------------------
    # Grants and releases
    # ------------------------------------------------------------------

    def acquire(self, txn: str, entity: Entity, mode: LockMode) -> None:
        """Record a grant.  The caller must have checked :meth:`grantable`."""
        blockers = self.blockers(txn, entity, mode)
        if blockers:
            raise RuntimeError(
                f"{txn} acquires {mode} on {entity!r} despite holders {blockers}"
            )
        self._part(entity).holders.setdefault(entity, {}).setdefault(
            txn, set()
        ).add(mode)
        self._held.setdefault(txn, set()).add(entity)
        self._mark_changed(entity)

    def _drop(self, txn: str, entity: Entity, mode: LockMode) -> bool:
        """Remove one mode grant; True only if ``txn``'s *effective* hold on
        ``entity`` weakened (holder gone, or EXCLUSIVE downgraded to
        SHARED) — releasing the SHARED half of an upgrade changes nothing a
        waiter could be granted on, so it must not produce wake-ups.  The
        weaken rule itself lives in :meth:`would_weaken`."""
        weakened = self.would_weaken(txn, entity, mode)
        current = self._part(entity).holders.get(entity)
        modes = current.get(txn) if current is not None else None
        if modes is None or mode not in modes:
            return False
        modes.discard(mode)
        self._mark_changed(entity)
        if not modes:
            del current[txn]
            held = self._held.get(txn)
            if held is not None:
                held.discard(entity)
                if not held:
                    del self._held[txn]
            if not current:
                del self._part(entity).holders[entity]
        return weakened

    def would_weaken(self, txn: str, entity: Entity, mode: LockMode) -> bool:
        """Whether releasing ``mode`` would weaken ``txn``'s effective hold
        on ``entity``.  The single home of the weaken rule: :meth:`_drop`
        returns this predicate after mutating, and the scheduler queries it
        up front to skip waits-for edge maintenance for releases that
        change nothing a waiter could be granted on."""
        modes = self._part(entity).holders.get(entity, {}).get(txn)
        if not modes or mode not in modes:
            return False
        if len(modes) == 1:
            return True
        return self._effective(modes) is not self._effective(modes - {mode})

    def release(self, txn: str, entity: Entity, mode: LockMode) -> List[str]:
        """Release one mode grant; returns the wake-up set — the waiters on
        ``entity`` (in arrival order) whose requested mode is grantable now
        that the holder set weakened.  Waiters that still conflict with the
        remaining holders are left queued and unwoken."""
        if self._drop(txn, entity, mode):
            return [
                w
                for w, wanted in self._part(entity).waiters.get(entity, {}).items()
                if w != txn and self.grantable(w, entity, wanted)
            ]
        return []

    def release_all(self, txn: str) -> List[Tuple[Entity, LockMode]]:
        """Release every lock of ``txn`` (abort/commit path); returns what
        was released (entity, strongest mode).  Use :meth:`waiters_of` on
        the released entities — or :meth:`release_all_wake` — for wake-ups.
        """
        self.remove_waiter(txn)  # a departing txn must not stay queued
        released: List[Tuple[Entity, LockMode]] = []
        for entity in sorted(self._held.get(txn, ()), key=repr):
            holders = self._part(entity).holders
            modes = holders[entity].pop(txn)
            self._mark_changed(entity)
            released.append((entity, self._effective(modes)))
            if not holders[entity]:
                del holders[entity]
        self._held.pop(txn, None)
        return released

    def release_all_wake(self, txn: str) -> Tuple[List[Tuple[Entity, LockMode]], List[str]]:
        """:meth:`release_all` plus the combined wake-up set of every
        released entity's now-grantable waiters."""
        released = self.release_all(txn)
        woken: List[str] = []
        seen: Set[str] = set()
        for entity, _ in released:
            for w, wanted in self._part(entity).waiters.get(entity, {}).items():
                if w != txn and w not in seen and self.grantable(w, entity, wanted):
                    seen.add(w)
                    woken.append(w)
        return released, woken

    # ------------------------------------------------------------------
    # Wait queues
    # ------------------------------------------------------------------

    def add_waiter(self, txn: str, entity: Entity, mode: LockMode) -> None:
        """Register ``txn`` as blocked on ``entity`` wanting ``mode``.  A
        transaction waits on at most one entity at a time (the simulator
        blocks on the pending step only)."""
        prev = self._waiting_on.get(txn)
        if prev is not None and prev != entity:
            self.remove_waiter(txn)
        self._part(entity).waiters.setdefault(entity, {})[txn] = mode
        self._waiting_on[txn] = entity

    def remove_waiter(self, txn: str) -> None:
        entity = self._waiting_on.pop(txn, None)
        if entity is None:
            return
        waiters = self._part(entity).waiters
        queue = waiters.get(entity)
        if queue is not None:
            queue.pop(txn, None)
            if not queue:
                del waiters[entity]

    def waiters_of(self, entity: Entity) -> List[str]:
        """Waiters queued on ``entity``, in arrival order."""
        return list(self._part(entity).waiters.get(entity, {}))

    def waiter_modes(self, entity: Entity) -> List[Tuple[str, LockMode]]:
        """Waiters queued on ``entity`` with their requested modes, in
        arrival order — the scheduler's edge-maintenance query: after a
        release whose wake-up set was grantability-filtered, the still
        blocked waiters' waits-for edges are re-derived from these requests
        instead of re-classifying the sessions."""
        return list(self._part(entity).waiters.get(entity, {}).items())

    def waiting_entity(self, txn: str) -> Optional[Entity]:
        return self._waiting_on.get(txn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def held_by(self, txn: str) -> Dict[Entity, LockMode]:
        return {
            entity: self._effective(self._part(entity).holders[entity][txn])
            for entity in sorted(self._held.get(txn, ()), key=repr)
        }

    def locked_entities(self) -> FrozenSet[Entity]:
        return frozenset(
            entity for part in self._parts for entity in part.holders  # repro: noqa[RPR005] read-only whole-table introspection for tests; never on a shard-local path
        )
