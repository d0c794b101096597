"""The transaction-lifecycle state machine the tick simulator drives.

:class:`KernelRun` is the kernel half of the old ``sim/scheduler.py``
``_Run`` monolith: it composes the state layers — the
:class:`~repro.sim.lock_table.LockTable`, the
:class:`~repro.sim.waits_for.WaitsForGraph` of policy-wait edges, the
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
  of that entity's queue (blocked waiters are skipped; runnable sessions
  whose queued mode now conflicts block in place), and every release —
  an unlock, a commit, an abort — hands its wake-up set, when it is not
  empty, to ``Classifier.wake`` (blocked waiters become runnable in
  place; runnable ones are skipped).  Neither touches the waits-for
  graph: a LOCK_WAIT session's edges are read from the lock table when
  a cycle is searched (``Classifier.view``).

A commit and an abort leave through one teardown, ``_depart``, which
clears each structure once: ``Classifier.clear`` (nothing for a drained
script, which ``settle`` cleared; stored edges only for a POLICY_WAIT
session, the only kind with any), the edges aimed at the leaver
(``WaitsForGraph.remove_inbound``), its routing state, and its locks
with its queued request (``LockTable.release_all_wake``, the one owner
of a departing name's queue entry on both engines).  Blocked ticks are
credited only where a wait ends (a wake, a re-derivation, a victim
pick): accrual is an idempotent catch-up (``through - accrued_to``) and
every transition out of a wait accrues first, so a catch-up at a
blocker's departure would change no total.

A session that declares invalidation channels (``tracks_deps``: DDAG,
altruistic) takes the same ``settle`` after its own step: a next verdict
that declares no channel and proceeds is settled there (unsubscribed,
out of ``dirty``), a drained script or a peek that raised
``PolicyViolation`` (kept on the entry) goes to ``complete`` for the
next tick's phase 1, and any other verdict is marked dirty for the next
classify phase.  Dynamic sessions, and the lock events of any session
whose verdict needs the policy, take that dirty route too; a step leaves
such a session RUNNABLE and in the runnable index (only the executed
lock's queue entry goes), since phase 2 re-derives it before anything
reads either.  A step is peeked once: ``LiveEntry.peek`` caches the
pending step from the first peek after an admission or a step, and
``_execute_step`` resets it right after ``executed()``.  The step and
release paths test no engine flag: the naive engine marks every session
as needing the policy and none as declaring channels, so none is
settled in place, nothing is queued, and a grant or release finds no
one to move.

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
``sim/runner``) — the kernel must stay reusable by any front-end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.schedules import Event
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
        self.classifier = Classifier(
            self.live, self.metrics, self.table, self.graph, self.cache
        )
        if event_engine:
            self.context.set_change_listener(self.cache.policy_changed)
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
        if not self.event_engine:
            # The naive engine asks every session's verdict every tick:
            # none is settled in place, nothing is queued, and the lock
            # events that classify in place find no one to move.
            entry.needs_admission = True
            return
        entry.needs_admission = (
            session.dynamic
            or type(session).admission is not PolicySession.admission
        )
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
        self._depart(entry)

    def abort(self, victim: LiveEntry, reason: str) -> None:
        m = self.metrics
        name = victim.item.name
        m.aborted += 1
        victim.session.on_abort()
        self._depart(victim)
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
            woken = self.table.release(name, step.entity, mode)
            if woken:
                classifier.wake(woken)
        self.log.record(name, Event(name, entry.step_count, step))
        entry.step_count += 1
        entry.session.executed()
        entry.peeked = UNPEEKED
        m.events_executed += 1
        entry.record.steps_executed += 1
        if not entry.needs_admission or entry.tracks_deps:
            # Its own acquire and wake-ups are done, and no step runs
            # before the next tick's phases read its pending step, so that
            # step is peeked now; it is still RUNNABLE, and settle moves
            # only what that step changes (a verdict that may still flip
            # is left dirty, a drained or refused script to phase 1).
            classifier.settle(entry)
            return
        # A dynamic session is re-examined every tick: it stays RUNNABLE
        # and in the runnable index until then, and only the executed
        # lock's queue entry goes.
        self.table.remove_waiter(name)

    def _depart(self, entry: LiveEntry) -> None:
        """Tear this incarnation down, each structure once (see the module
        docstring): whatever it still holds is released, so a commit
        implies strictness, and the wake-up set is woken."""
        name = entry.item.name
        self.classifier.clear(entry)
        # A restarted incarnation under the same name must not inherit
        # edges aimed at its predecessor.
        self.graph.remove_inbound(name)
        self.cache.forget(name)
        _, woken = self.table.release_all_wake(name)
        if woken:
            self.classifier.wake(woken)
