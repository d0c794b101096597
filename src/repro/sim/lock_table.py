"""The simulator's authoritative lock table.

Tracks, per entity, which transactions hold which mode(s).  Grant rule: a
request conflicts if any *other* transaction holds a mode that conflicts
(only SHARED/SHARED is compatible).

Three facilities support the event-driven scheduler and the service
kernel:

* **Mode multisets.** A transaction may hold SHARED and EXCLUSIVE on the
  same entity at once (a lock upgrade).  Each mode is tracked separately,
  so ``release(txn, entity, SHARED)`` after an upgrade removes only the
  shared grant and the exclusive one stays visible — the historical
  behaviour of overwriting the mode made that release a silent no-op and
  leaked the exclusive lock until abort.
* **Per-entity wait queues.** A transaction registers its pending request
  via :meth:`add_waiter` — the service kernel a parked acquire, the event
  engine every pending lock, blocked or not, from its classification until
  it is cleared; :meth:`release` and :meth:`release_all_wake` return the
  *wake-up set* — the queued names whose requested mode is grantable on an
  entity whose holder set weakened — so the scheduler re-examines exactly
  the sessions a release might have unblocked instead of rescanning every
  live session each tick.  When the release leaves the entity with no
  holder, the wake-up set is the whole queue, read without a conflict
  query per waiter; otherwise requests that still conflict with the
  remaining holders (an EXCLUSIVE waiter across another holder's
  EXCLUSIVE→SHARED downgrade, say) are filtered out: waking them was a
  pure wasted re-classification.  :meth:`queue` exposes the queued
  requests (uncopied; :meth:`waiter_modes` is the copying view) so the
  scheduler can maintain the waiters' waits-for edges, and move a runnable
  request to blocked, without re-classifying them.
* **Exclusive-holder index.** ``_exclusive`` maps each entity to the
  holders whose modes include EXCLUSIVE; it is maintained where a grant
  enters or leaves (:meth:`acquire`, :meth:`_drop`, :meth:`release_all`).
  Conflict queries answer from it and from the holder map's size, never
  from a holder's mode set: a SHARED request conflicts only with another
  transaction in the index, an EXCLUSIVE one with every other holder.
  :meth:`grantable` is O(1) and builds no list, so a release's wake-up
  filter costs O(1) per waiter however many transactions share the
  entity; :meth:`blockers` returns ``[]`` at once for an unheld entity or
  a SHARED request against an empty index, and otherwise lists the
  conflicting holders in holder-map order.

The cross-entity walks (``release_all`` and its wake variant, ``held_by``)
iterate the per-transaction held index sorted by ``repr``, so their
results never depend on set or dict order.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..core.operations import LockMode
from ..core.steps import Entity

#: The queue of an entity nobody waits on.
_NO_WAITERS: Mapping[str, LockMode] = MappingProxyType({})


class LockTable:
    """Entity -> {transaction: modes} with conflict queries and wait
    queues."""

    def __init__(self) -> None:
        #: Entity -> {transaction: set of granted modes}.
        self._holders: Dict[Entity, Dict[str, Set[LockMode]]] = {}
        #: Entity -> holders whose modes include EXCLUSIVE (the grant
        #: rule admits at most one); no entry when there is none.
        self._exclusive: Dict[Entity, Set[str]] = {}
        #: Per-entity wait queue: waiter -> requested mode (arrival order).
        self._waiters: Dict[Entity, Dict[str, LockMode]] = {}
        #: Per-transaction index of held entities (O(footprint)
        #: release_all).
        self._held: Dict[str, Set[Entity]] = {}
        #: Reverse waiter index: waiter -> entity it waits on (a
        #: transaction waits on at most one entity at a time).
        self._waiting_on: Dict[str, Entity] = {}

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
            for txn, modes in self._holders.get(entity, {}).items()
        }

    def mode_held(self, txn: str, entity: Entity) -> Optional[LockMode]:
        modes = self._holders.get(entity, {}).get(txn)
        return self._effective(modes) if modes else None

    def modes_held(self, txn: str, entity: Entity) -> FrozenSet[LockMode]:
        """Every mode ``txn`` holds on ``entity`` (both, after an upgrade)."""
        return frozenset(self._holders.get(entity, {}).get(txn, ()))

    def blockers(
        self, txn: Optional[str], entity: Entity, mode: LockMode
    ) -> List[str]:
        """Transactions other than ``txn`` holding modes on ``entity`` that
        conflict with ``mode`` (every such holder when ``txn`` is
        ``None``), in holder-map order."""
        current = self._holders.get(entity)
        if not current:
            return []
        if mode is LockMode.EXCLUSIVE:
            return [other for other in current if other != txn]
        exclusive = self._exclusive.get(entity)
        if not exclusive:
            return []
        return [other for other in current if other != txn and other in exclusive]

    def grantable(self, txn: str, entity: Entity, mode: LockMode) -> bool:
        if mode is LockMode.EXCLUSIVE:
            current = self._holders.get(entity)
            return not current or (len(current) == 1 and txn in current)
        exclusive = self._exclusive.get(entity)
        return not exclusive or txn in exclusive

    # ------------------------------------------------------------------
    # Grants and releases
    # ------------------------------------------------------------------

    def acquire(self, txn: str, entity: Entity, mode: LockMode) -> None:
        """Record a grant.  The caller must have checked :meth:`grantable`."""
        if not self.grantable(txn, entity, mode):
            raise RuntimeError(
                f"{txn} acquires {mode} on {entity!r} despite holders "
                f"{self.blockers(txn, entity, mode)}"
            )
        self._holders.setdefault(entity, {}).setdefault(txn, set()).add(mode)
        self._held.setdefault(txn, set()).add(entity)
        if mode is LockMode.EXCLUSIVE:
            self._exclusive.setdefault(entity, set()).add(txn)

    def _drop(self, txn: str, entity: Entity, mode: LockMode) -> bool:
        """Remove one mode grant; True only if ``txn``'s *effective* hold on
        ``entity`` weakened (holder gone, or EXCLUSIVE downgraded to
        SHARED) — releasing the SHARED half of an upgrade changes nothing a
        waiter could be granted on, so it must not produce wake-ups.  The
        weaken rule itself lives in :meth:`would_weaken`."""
        weakened = self.would_weaken(txn, entity, mode)
        current = self._holders.get(entity)
        modes = current.get(txn) if current is not None else None
        if modes is None or mode not in modes:
            return False
        modes.discard(mode)
        if mode is LockMode.EXCLUSIVE:
            self._unindex_exclusive(txn, entity)
        if not modes:
            del current[txn]
            held = self._held.get(txn)
            if held is not None:
                held.discard(entity)
                if not held:
                    del self._held[txn]
            if not current:
                del self._holders[entity]
        return weakened

    def _unindex_exclusive(self, txn: str, entity: Entity) -> None:
        exclusive = self._exclusive[entity]
        exclusive.discard(txn)
        if not exclusive:
            del self._exclusive[entity]

    def would_weaken(self, txn: str, entity: Entity, mode: LockMode) -> bool:
        """Whether releasing ``mode`` would weaken ``txn``'s effective hold
        on ``entity``.  The single home of the weaken rule: :meth:`_drop`
        returns this predicate after mutating, and the scheduler queries it
        up front to skip waits-for edge maintenance for releases that
        change nothing a waiter could be granted on."""
        modes = self._holders.get(entity, {}).get(txn)
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
            return self._wake_set(txn, entity)
        return []

    def release_all(self, txn: str) -> List[Tuple[Entity, LockMode]]:
        """Release every lock of ``txn`` (abort/commit path); returns what
        was released (entity, strongest mode).  Use :meth:`waiters_of` on
        the released entities — or :meth:`release_all_wake` — for wake-ups.
        """
        self.remove_waiter(txn)  # a departing txn must not stay queued
        released: List[Tuple[Entity, LockMode]] = []
        holders = self._holders
        for entity in sorted(self._held.get(txn, ()), key=repr):
            modes = holders[entity].pop(txn)
            mode = self._effective(modes)
            if mode is LockMode.EXCLUSIVE:
                self._unindex_exclusive(txn, entity)
            released.append((entity, mode))
            if not holders[entity]:
                del holders[entity]
        self._held.pop(txn, None)
        return released

    def release_all_wake(self, txn: str) -> Tuple[List[Tuple[Entity, LockMode]], List[str]]:
        """:meth:`release_all` plus the combined wake-up set of every
        released entity's now-grantable waiters."""
        released = self.release_all(txn)
        woken: List[str] = []
        for entity, _ in released:
            # A transaction waits on at most one entity: no duplicates.
            woken.extend(self._wake_set(txn, entity))
        return released, woken

    def _wake_set(self, txn: str, entity: Entity) -> List[str]:
        """The queued names (in arrival order) whose requested mode is
        grantable on ``entity`` after ``txn`` weakened its hold there.
        With no holder left every request is grantable, so the set is the
        whole queue without a conflict query per waiter."""
        queue = self._waiters.get(entity)
        if not queue:
            return []
        if entity not in self._holders:
            return [w for w in queue if w != txn]
        return [
            w
            for w, wanted in queue.items()
            if w != txn and self.grantable(w, entity, wanted)
        ]

    # ------------------------------------------------------------------
    # Wait queues
    # ------------------------------------------------------------------

    def add_waiter(self, txn: str, entity: Entity, mode: LockMode) -> None:
        """Queue ``txn``'s pending request for ``mode`` on ``entity``.  A
        transaction waits on at most one entity at a time (the simulator
        queues the pending step only)."""
        prev = self._waiting_on.get(txn)
        if prev is not None and prev != entity:
            self.remove_waiter(txn)
        self._waiters.setdefault(entity, {})[txn] = mode
        self._waiting_on[txn] = entity

    def remove_waiter(self, txn: str) -> None:
        entity = self._waiting_on.pop(txn, None)
        if entity is None:
            return
        queue = self._waiters.get(entity)
        if queue is not None:
            queue.pop(txn, None)
            if not queue:
                del self._waiters[entity]

    def waiters_of(self, entity: Entity) -> List[str]:
        """Waiters queued on ``entity``, in arrival order."""
        return list(self._waiters.get(entity, {}))

    def queue(self, entity: Entity) -> Mapping[str, LockMode]:
        """``entity``'s wait queue itself — waiter -> requested mode, in
        arrival order — without the copy :meth:`waiter_modes` takes: the
        scheduler's herd walks read it once per lock event.  Read it,
        never mutate it, and do not change the table while iterating
        it."""
        return self._waiters.get(entity, _NO_WAITERS)

    def waiter_modes(self, entity: Entity) -> List[Tuple[str, LockMode]]:
        """Waiters queued on ``entity`` with their requested modes, in
        arrival order — the scheduler's edge-maintenance query: after a
        release whose wake-up set was grantability-filtered, the still
        blocked waiters' waits-for edges are re-derived from these requests
        instead of re-classifying the sessions."""
        return list(self._waiters.get(entity, {}).items())

    def waiting_entity(self, txn: str) -> Optional[Entity]:
        return self._waiting_on.get(txn)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def held_by(self, txn: str) -> Dict[Entity, LockMode]:
        return {
            entity: self._effective(self._holders[entity][txn])
            for entity in sorted(self._held.get(txn, ()), key=repr)
        }

    def locked_entities(self) -> FrozenSet[Entity]:
        return frozenset(self._holders)
