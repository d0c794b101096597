"""The transaction-lifecycle state machine the tick simulator drives.

:class:`KernelRun` is the kernel half of the old ``sim/scheduler.py``
``_Run`` monolith: it composes the state layers — the
:class:`~repro.sim.lock_table.LockTable`, the always-fresh
:class:`~repro.sim.waits_for.WaitsForGraph`, the
:class:`~repro.sim.admission.AdmissionCache`/``Classifier`` pair, the
:class:`~repro.sim.event_log.EventLog`, and :class:`~repro.sim.metrics.Metrics`
— and owns the transaction lifecycle transitions every driver needs:
registration, step execution (grant/release/wake), commit, and
abort/restart.  What it deliberately does **not** own is any notion of
*time or transport*: no tick loop, no RNG, no arrival queue, no sockets.

Events carry their verdict.  A session whose classification reads only
its pending step and the lock table (2PL, DTR, scripted) is classified
where the events that decide it happen, never in the classify phase:

* its own step — after ``executed()``, ``Classifier.settle`` peeks the
  next step once, on the still-RUNNABLE session without clearing it: a
  drained script is cleared and goes to ``complete``, any other step
  gets its verdict (LOCK_WAIT on its blockers, or it stays RUNNABLE),
  the executed lock leaves the queue and a pending lock is queued on its
  entity either way — so the runnable index moves only when the session
  blocks or drains;
* its admission and its restart — ``_register`` calls the same;
* a grant hands the acquired entity to ``Classifier.acquired``, one walk
  of that entity's queue (blocked waiters' edges extend; runnable
  sessions whose queued mode now conflicts block in place, sharing one
  blocker query per wanted mode), and every release — an unlock, a
  commit, an abort — hands its wake-up set to ``Classifier.wake``
  (blocked waiters become runnable in place; runnable ones are skipped).

Sessions whose verdict needs the policy are marked dirty for the next
classify phase instead; their own step leaves them RUNNABLE and in the
runnable index (only the executed lock's queue entry goes), since phase
2 re-derives them before anything reads either.  A step is peeked once:
``LiveEntry.peek`` caches the pending step from the first peek after an
admission or a step, and ``_execute_step`` resets it right after
``executed()``.  The step and release paths test no engine flag: the
naive engine's run holds a no-op classifier stand-in, built once.

One driver sits on top: the tick simulator (``repro.sim.scheduler._Run``
subclasses this and adds the seeded per-tick loop, batched arrivals, and
the phase pipeline) — proven byte-identical to the pre-split engine by
the standing naive/event equivalence suites.  The request-driven service
kernel (:mod:`repro.kernel.core`) does not use this class: it runs on
the same lock table, waits-for graph and victim rule, but keeps its own
commit, abort, wake and forget transitions (ROADMAP item 6(a) is to
make it a second driver of this one).

Layering (checked by ``tests/test_layering.py``): this package may import the state layers it
absorbs (``sim/lock_table``, ``sim/admission``, ``sim/waits_for``,
``sim/deadlock``, ``sim/live``, ``sim/metrics``, ``sim/event_log``,
``sim/executor``) but never the drivers above it (``sim/scheduler``,
``sim/runner``, ``sim/grid``) — the kernel must stay reusable by any
front-end.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..core.schedules import Event
from ..core.steps import Entity
from ..exceptions import PolicyViolation
from ..policies.base import Intent, PolicyContext, PolicySession
from ..sim.admission import AdmissionCache, Classifier
from ..sim.event_log import EventLog
from ..sim.executor import SerialExecutor
from ..sim.live import UNPEEKED, LiveEntry
from ..sim.lock_table import LockTable
from ..sim.metrics import Metrics
from ..sim.waits_for import WaitsForGraph

#: An aborted transaction restarts at most this many times; the abort
#: after its last restart drops it (ROADMAP item 5(iv) would remove the
#: ceiling).
MAX_RESTARTS = 10


class KernelRun:
    """State and lifecycle helpers of one kernel instance: composes the
    state layers and owns transaction admission, commit, abort/restart,
    and step execution.  The driver (the tick simulator) decides *when*
    these transitions fire; the kernel decides *what* they do — and the
    two engines' byte-identical equivalence is asserted over exactly
    these transitions."""

    def __init__(
        self,
        context: PolicyContext,
        *,
        event_engine: bool = True,
    ):
        self.context = context
        self.event_engine = event_engine
        self.metrics = Metrics()
        self.table = LockTable()
        self.graph = WaitsForGraph()
        self.live: Dict[str, LiveEntry] = {}
        self.cache = AdmissionCache(self.live, self.metrics)
        if event_engine:
            self.classifier = Classifier(
                self.live, self.metrics, self.table, self.graph, self.cache
            )
            self.context.set_change_listener(self.cache.policy_changed)
        else:
            # The naive engine classifies every session from scratch each
            # tick, so the events that classify in place do nothing.
            self.classifier = _Unclassified()  # type: ignore[assignment]
        #: Walks the classify phase's check set (:mod:`repro.sim.executor`).
        self.executor = SerialExecutor()
        self.log = EventLog()
        self.committed: List[str] = []
        self.dropped: List[str] = []
        self._seq = 0

    events = property(lambda self: self.log.events)

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------

    def _register(self, entry: LiveEntry) -> None:
        name = entry.item.name
        session = entry.session
        self.live[name] = entry
        entry.needs_admission = (
            session.dynamic
            or type(session).admission is not PolicySession.admission
        )
        if not self.event_engine:
            return
        if entry.needs_admission:
            # Policy-aware invalidation when the session can declare what
            # its verdict depends on; the conservative every-tick fallback
            # otherwise.
            entry.tracks_deps = session.admission_dependencies() is not None
            self.cache.register(name, tracks_deps=entry.tracks_deps)
        else:
            self.classifier.settle(entry)

    def commit(self, entry: LiveEntry) -> None:
        name = entry.item.name
        m = self.metrics
        self.log.forget(name)  # committed events are permanent
        entry.session.on_commit()
        entry.record.committed = True
        entry.record.end_tick = m.ticks
        m.committed += 1
        self.committed.append(name)
        del self.live[name]
        self._forget(entry)
        # A policy that commits while still holding locks used to leak them
        # forever (later sessions then livelocked with a SimulationError);
        # commit now implies strictness for whatever is still held.
        released, woken = self.table.release_all_wake(name)
        if released:
            self.classifier.wake(woken)

    def abort(self, victim: LiveEntry, reason: str) -> None:
        m = self.metrics
        name = victim.item.name
        m.aborted += 1
        victim.session.on_abort()
        self._forget(victim)
        _, woken = self.table.release_all_wake(name)
        self.classifier.wake(woken)
        self.log.erase(name)

        def drop() -> None:
            del self.live[name]
            self.dropped.append(name)
            victim.record.end_tick = m.ticks

        if victim.attempt > MAX_RESTARTS:
            drop()
            return
        intents: Optional[Sequence[Intent]] = victim.item.intents
        if victim.item.restart is not None:
            intents = victim.item.restart(name, victim.attempt, self.context)
        if intents is None:
            drop()
            return
        try:
            session = self.context.begin(name, intents)
        except PolicyViolation:
            drop()
            return
        # Count the restart only now that one actually happened — a drop
        # (restart budget exhausted, strategy gave up, or begin refused the
        # replanned script) is an abort, not a restart.
        m.restarts += 1
        victim.record.restarts += 1
        entry = LiveEntry(
            victim.item,
            session,
            victim.record,
            attempt=victim.attempt + 1,
            seq=victim.seq,
        )
        self._register(entry)

    def _execute_step(self, entry: LiveEntry) -> None:
        m = self.metrics
        step = entry.peek()
        assert step is not None
        name = entry.item.name
        op = step.op
        mode = op.lock_mode
        classifier = self.classifier
        if op.is_lock and mode is not None:
            self.table.acquire(name, step.entity, mode)
            # Runnable sessions queued on this entity whose cached
            # classification assumed it was free block in place; blocked
            # waiters' edges extend.
            classifier.acquired(name, step.entity)
        elif op.is_unlock and mode is not None:
            weakened = self.table.would_weaken(name, step.entity, mode)
            classifier.wake(self.table.release(name, step.entity, mode))
            if weakened:
                classifier.refresh_lock_edges(name, step.entity)
        self.log.record(name, Event(name, entry.step_count, step))
        entry.step_count += 1
        entry.session.executed()
        entry.peeked = UNPEEKED
        m.events_executed += 1
        entry.record.steps_executed += 1
        if not entry.needs_admission:
            # Its own acquire and wake-ups are done, so the verdict of its
            # next step is decided now; it is still RUNNABLE, and settle
            # moves only what that next step changes.
            classifier.settle(entry)
            return
        # It stays RUNNABLE and in the runnable index until its phase-2
        # re-derivation, which comes before anything reads either; only
        # the executed lock's queue entry goes.
        self.table.remove_waiter(name)
        if entry.tracks_deps:
            # Defer the replanning peek to next tick's phase 1 (it may
            # raise or drain to None — commit/abort are phase-1 business,
            # exactly when the naive engine sees them).
            self.cache.phase1.add(name)
            self.cache.dirty.add(name)
        # A dynamic session is re-examined every tick anyway.

    def _forget(self, entry: LiveEntry) -> None:
        """Drop every piece of engine bookkeeping for this incarnation."""
        name = entry.item.name
        self.classifier.clear(entry)
        # Eagerly prune inbound waits-for edges: a departed session blocks
        # nobody, and a restarted incarnation under the same name must not
        # inherit edges aimed at its predecessor.  The waiters' lazy
        # accounting is caught up through the previous tick first (if this
        # departure is their wake-up, re-classification will cover the
        # current tick; if it is not, a later accrual point will).
        waiters = self.graph.forget(name)
        if waiters:
            self.classifier.accrue_many(waiters, self.metrics.ticks - 1)
        self.cache.forget(name)


class _Unclassified:
    """The naive engine's stand-in for :class:`Classifier`: it classifies
    every live session from scratch each tick (:mod:`repro.sim.reference`),
    so the lifecycle's in-place classification hooks are no-ops and the
    step path carries no engine flag."""

    #: Written by the tick loop; read by nothing.
    observed = 0

    def settle(self, entry: LiveEntry) -> None:
        pass

    def acquired(self, holder: str, entity: Entity) -> None:
        pass

    def wake(self, names: Iterable[str]) -> None:
        pass

    def refresh_lock_edges(self, releaser: str, entity: Entity) -> None:
        pass

    def clear(self, entry: LiveEntry) -> None:
        pass
