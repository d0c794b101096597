"""Altruistic locking — Section 5 of the paper [SGMS94].

Designed for long-lived transactions: a transaction may *donate* (unlock)
items it is finished with before reaching its **locked point** (the instant
it acquires its last lock).  A transaction that picks up a donated item
enters the donor's **wake** and is then confined to donated items until the
donor reaches its locked point.  Rules (basic, exclusive-locks-only
version):

* **AL1** — lock an item before any INSERT/DELETE/ACCESS on it.
* **AL2** — if ``T_i`` is in the wake of another active ``T_j``, then all
  items locked by ``T_i`` so far must have been unlocked by ``T_j`` in the
  past.
* **AL3** — a transaction may lock an item only once.

The online session enforces AL2 *prospectively*: before locking ``A`` it
checks every active pre-locked-point donor ``T_j`` whose wake it is in (or
would enter by taking ``A``); when the constraint fails the session WAITS
until the donor reaches its locked point or finishes, at which point the
wake dissolves ("Once T1 reaches its locked point … T2 is no longer in the
wake of T1 and can lock any entity it needs" — Fig. 4).

A verdict costs O(|after|) with ``after = locked_past ∪ {pending}``,
whatever the live population and the script length:

* :attr:`AltruisticContext.donors` indexes the active pre-locked-point
  donors by donated item, so AL2 examines only the donors of the items in
  ``after`` — exactly the donors it can be decided against.  The index is
  changed only by :meth:`AltruisticContext.donate` (a donation) and
  :meth:`AltruisticContext.withdraw` (a locked point, or a
  pre-locked-point donor leaving), each of which notifies the item
  channels it touched in the same body.
* Candidates are ordered by their begin sequence number, which is the
  order of :attr:`AltruisticContext.sessions`, so ``waiting_on`` lists the
  blockers in the order a scan of every live session would.
* The locked point is a countdown of the script's not-yet-locked distinct
  items; ``locked_past`` keeps each locked item's channel in lock order,
  so the dependency declaration is a copy, not a sort.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import Operation
from ..core.schedules import Schedule
from ..core.steps import Entity, Step
from ..exceptions import PolicyViolation
from .base import (
    Access,
    Admission,
    AdmissionResult,
    DeleteNode,
    InsertNode,
    Intent,
    LockingPolicy,
    PolicyContext,
    PolicySession,
    PROCEED,
    Read,
    Write,
    access_steps,
)


def al_item_channel(item: Entity) -> Tuple[str, Entity]:
    """Invalidation channel for the wake state of ``item``: whether it sits
    in some active pre-locked-point donor's donated set.  An AL2 verdict
    can only flip through the items of ``locked_past ∪ {pending}``, so
    donations, locked-point arrivals, and donor departures notify exactly
    the item channels they touch."""
    return ("al-item", item)


_begin_order = attrgetter("seq")


class AltruisticContext(PolicyContext):
    """Shared wake bookkeeping across the active transactions."""

    def __init__(self, donate_immediately: bool = True) -> None:
        self.donate_immediately = donate_immediately
        self.sessions: Dict[str, "AltruisticSession"] = {}
        #: Item -> the active pre-locked-point donors that donated it, by
        #: name.  No empty entries.
        self.donors: Dict[Entity, Dict[str, "AltruisticSession"]] = {}
        #: Source of each session's begin sequence number.
        self.begin_seq = itertools.count()

    def begin(self, name: str, intents: Sequence[Intent]) -> "AltruisticSession":
        session = AltruisticSession(
            name, self, intents, donate_immediately=self.donate_immediately
        )
        self.sessions[name] = session
        return session

    def donate(self, session: "AltruisticSession", item: Entity) -> None:
        """``session``, pre-locked-point, unlocked ``item``: it joins the
        donated set and the donor index."""
        session.donated.add(item)
        self.donors.setdefault(item, {})[session.name] = session
        self.wake_changed((item,))

    def withdraw(self, session: "AltruisticSession") -> None:
        """``session`` stops constraining anyone (it reached its locked
        point, or left before it): drop it from the donor index."""
        donated = sorted(session.donated, key=repr)
        donors = self.donors
        for item in donated:
            index = donors[item]
            del index[session.name]
            if not index:
                del donors[item]
        self.wake_changed(donated)

    def wake_changed(self, items) -> None:
        """The wake state of ``items`` changed (a donation, a donor
        reaching its locked point, or a pre-locked-point donor leaving):
        invalidate the sessions whose cached AL2 verdict involves them."""
        self.notify_changed(tuple(al_item_channel(x) for x in items))


class AltruisticSession(PolicySession):
    """Online altruistic-locking state machine for one transaction.

    ``donate_immediately`` unlocks each item as soon as its access is done
    (maximal altruism); otherwise items are held to the end (degenerating to
    2PL).  The locked point is computed from the intent script: after the
    lock for the last distinct item is acquired, the transaction is
    post-locked-point.
    """

    def __init__(
        self,
        name: str,
        context: AltruisticContext,
        intents: Sequence[Intent],
        donate_immediately: bool = True,
    ):
        super().__init__(name)
        self.context = context
        #: Begin order among the context's sessions (AL2 blocker order).
        self.seq = next(context.begin_seq)
        self.intents = list(intents)
        self.donate_immediately = donate_immediately
        self.cursor = 0
        self.queue: List[Step] = []
        #: Each locked item -> its invalidation channel, in lock order.
        self.locked_past: Dict[Entity, Tuple[str, Entity]] = {}
        self.held: Set[Entity] = set()
        self.donated: Set[Entity] = set()
        self._structural = False
        self._draining = False
        #: Each distinct item of the script -> the index of the last intent
        #: that uses it (whether it is needed after the current intent).
        self._last_use: Dict[Entity, int] = {}
        for i, intent in enumerate(self.intents):
            for e in _intent_item(intent):
                self._last_use[e] = i
        #: Distinct items not yet locked; the locked point is reached at 0.
        self._to_lock = len(self._last_use)

    # ------------------------------------------------------------------

    @property
    def reached_locked_point(self) -> bool:
        """True once every distinct item of the script has been locked."""
        return self._to_lock == 0

    def in_wake_of(self, donor: "AltruisticSession") -> bool:
        """Has this transaction locked an item donated by ``donor`` while
        ``donor`` is pre-locked-point?  (The wake definition of §5.)"""
        return (
            not donor.donated.isdisjoint(self.locked_past)
            and not donor.reached_locked_point
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _expand(self, intent: Intent) -> List[Step]:
        steps: List[Step] = []

        def lock(entity: Entity) -> None:
            if entity in self.held:
                return
            if entity in self.locked_past:
                raise PolicyViolation(
                    "AL3", f"{self.name} would lock {entity!r} twice"
                )
            steps.append(Step(Operation.LOCK_EXCLUSIVE, entity))

        def maybe_donate(entity: Entity) -> None:
            # ``cursor`` already points past the intent being expanded.
            if self.donate_immediately and self._last_use[entity] < self.cursor:
                steps.append(Step(Operation.UNLOCK_EXCLUSIVE, entity))

        if isinstance(intent, Access):
            lock(intent.entity)
            steps.extend(access_steps(intent.entity))
            maybe_donate(intent.entity)
        elif isinstance(intent, Read):
            lock(intent.entity)
            steps.append(Step(Operation.READ, intent.entity))
            maybe_donate(intent.entity)
        elif isinstance(intent, Write):
            lock(intent.entity)
            steps.append(Step(Operation.WRITE, intent.entity))
            maybe_donate(intent.entity)
        elif isinstance(intent, InsertNode):
            lock(intent.node)
            steps.append(Step(Operation.INSERT, intent.node))
            maybe_donate(intent.node)
        elif isinstance(intent, DeleteNode):
            lock(intent.node)
            steps.append(Step(Operation.DELETE, intent.node))
            maybe_donate(intent.node)
        else:
            raise PolicyViolation("AL1", f"unsupported intent {intent!r}")
        return steps

    # ------------------------------------------------------------------
    # PolicySession protocol
    # ------------------------------------------------------------------

    def peek(self) -> Optional[Step]:
        while not self.queue:
            if self.cursor >= len(self.intents):
                if not self._draining:
                    self._draining = True
                    self.queue.extend(
                        Step(Operation.UNLOCK_EXCLUSIVE, e)
                        for e in sorted(self.held, key=repr)
                    )
                    continue
                return None
            intent = self.intents[self.cursor]
            self.cursor += 1
            self.queue.extend(self._expand(intent))
        return self.queue[0]

    def admission(self) -> AdmissionResult:
        """AL2 enforcement for the pending lock step: only the donors of
        the items in ``after`` can be decided against, and being one means
        ``after`` already meets their donated set."""
        step = self.queue[0] if self.queue else None
        if step is None or not step.is_lock:
            return PROCEED
        entity = step.entity
        donors = self.context.donors
        found: Dict[str, AltruisticSession] = {}
        for x in (*self.locked_past, entity):
            index = donors.get(x)
            if index:
                found.update(index)
        found.pop(self.name, None)
        if not found:
            return PROCEED
        after = {*self.locked_past, entity}
        # Taking this lock would put us (or keep us) in a donor's wake
        # while holding/wanting non-donated items: AL2 forbids it until
        # the donor reaches its locked point.
        blockers = tuple(
            donor.name
            for donor in sorted(found.values(), key=_begin_order)
            if not after.issubset(donor.donated)
        )
        if blockers:
            return AdmissionResult(Admission.WAIT, waiting_on=blockers)
        return PROCEED

    def admission_dependencies(self):
        """An AL2 verdict for a pending lock reads, per active donor, only
        ``after & donor.donated`` and ``after ⊆ donor.donated`` with
        ``after = locked_past ∪ {pending}`` — both can change only through
        the wake state of items *in* ``after``, so those item channels are
        the complete dependency set."""
        step = self.queue[0] if self.queue else None
        if step is None or not step.is_lock:
            return ()
        return (*self.locked_past.values(), al_item_channel(step.entity))

    def executed(self) -> None:
        step = self.queue.pop(0)
        if step.is_lock:
            self.locked_past[step.entity] = al_item_channel(step.entity)
            self.held.add(step.entity)
            self._to_lock -= 1
            if not self._to_lock and self.donated:
                # The wake dissolves: sessions confined to our donations
                # may now lock anything (the Fig. 4 release moment).
                self.context.withdraw(self)
        elif step.is_unlock:
            self.held.discard(step.entity)
            if self._to_lock:
                self.context.donate(self, step.entity)
        elif step.op.is_structural:
            self._structural = True

    def on_commit(self) -> None:
        self.context.sessions.pop(self.name, None)
        if self.donated and self._to_lock:
            self.context.withdraw(self)

    def on_abort(self) -> None:
        self.context.sessions.pop(self.name, None)
        if self.donated and self._to_lock:
            self.context.withdraw(self)

    @property
    def has_structural_effects(self) -> bool:
        return self._structural


def _intent_item(intent: Intent) -> Tuple[Entity, ...]:
    if isinstance(intent, (Access, Read, Write)):
        return (intent.entity,)
    if isinstance(intent, InsertNode):
        return (intent.node,)
    if isinstance(intent, DeleteNode):
        return (intent.node,)
    return ()


class AltruisticPolicy(LockingPolicy):
    """Factory for altruistic-locking runs."""

    name = "Altruistic"

    def __init__(self, donate_immediately: bool = True):
        self.donate_immediately = donate_immediately

    def create_context(self, **kwargs) -> AltruisticContext:
        return AltruisticContext(donate_immediately=self.donate_immediately)


# ----------------------------------------------------------------------
# Offline rule checker
# ----------------------------------------------------------------------


def check_altruistic_schedule(schedule: Schedule) -> List[str]:
    """Verify a recorded schedule against AL1–AL3.

    Replays the events, tracking each transaction's lock history, donations,
    locked points (computed from the *full* transactions, which the schedule
    carries), and wake membership.  Returns violation descriptions.

    Like the online session, the AL2 check indexes the pre-locked-point
    donors by donated item, so a lock event costs O(|locked so far|), not
    O(transactions); candidates are reported in the order of
    ``schedule.transactions``.
    """
    violations: List[str] = []
    locked_past: Dict[str, Set[Entity]] = {}
    held: Dict[str, Set[Entity]] = {}
    donated: Dict[str, Set[Entity]] = {}
    # Locked point per transaction: index (within its own steps) of its last
    # LOCK step; a transaction is pre-locked-point while its progress is at
    # or before that index.
    lock_points: Dict[str, Optional[int]] = {
        name: txn.locked_point() for name, txn in schedule.transactions.items()
    }
    progress: Dict[str, int] = {name: 0 for name in schedule.transactions}
    order: Dict[str, int] = {name: i for i, name in enumerate(schedule.transactions)}
    # Item -> the pre-locked-point transactions that donated it.
    donors: Dict[Entity, Set[str]] = {}

    for pos, event in enumerate(schedule.events):
        txn, step = event.txn, event.step
        past = locked_past.setdefault(txn, set())
        have = held.setdefault(txn, set())
        gave = donated.setdefault(txn, set())
        point = lock_points[txn]
        if step.is_lock:
            if step.entity in past:
                violations.append(
                    f"event {pos}: {txn} locks {step.entity!r} twice (AL3)"
                )
            past.add(step.entity)
            have.add(step.entity)
            # AL2: check wake constraints against every other transaction
            # that is still pre-locked-point and has donated an item of
            # ``past`` (no other can fail the check).
            found = {other for x in past for other in donors.get(x, ())}
            found.discard(txn)
            for other in sorted(found, key=order.__getitem__):
                other_donated = donated[other]
                if not past.issubset(other_donated):
                    outside = sorted(past - other_donated, key=repr)
                    violations.append(
                        f"event {pos}: {txn} is in the wake of {other} but "
                        f"has locked non-donated items {outside} (AL2)"
                    )
        elif step.is_unlock:
            if step.entity not in have:
                violations.append(
                    f"event {pos}: {txn} unlocks {step.entity!r} it does not hold"
                )
            have.discard(step.entity)
            if point is not None and progress[txn] <= point:
                gave.add(step.entity)
                donors.setdefault(step.entity, set()).add(txn)
        else:
            if step.entity not in have:
                violations.append(
                    f"event {pos}: {txn} performs {step} without a lock (AL1)"
                )
        if progress[txn] == point:
            # This was the last lock: the wake dissolves.
            for x in sorted(gave, key=repr):
                index = donors[x]
                index.discard(txn)
                if not index:
                    del donors[x]
        progress[txn] += 1
    return violations
