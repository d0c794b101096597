"""The transaction-lifecycle state machine shared by every driver.

:class:`KernelRun` is the kernel half of the old ``sim/scheduler.py``
``_Run`` monolith: it composes the state layers — the sharded
:class:`~repro.sim.lock_table.LockTable`, the always-fresh
:class:`~repro.sim.waits_for.WaitsForGraph`, the
:class:`~repro.sim.admission.AdmissionCache`/``Classifier`` pair, the
:class:`~repro.sim.event_log.EventLog`, and :class:`~repro.sim.metrics.Metrics`
— and owns the transaction lifecycle transitions every driver needs:
registration, step execution (grant/release/wake), commit, and
abort/restart.  What it deliberately does **not** own is any notion of
*time or transport*: no tick loop, no RNG, no arrival queue, no sockets.

Two drivers sit on top:

* the tick simulator (``repro.sim.scheduler._Run`` subclasses this and
  adds the seeded per-tick loop, batched arrivals, and the phase
  pipeline) — proven byte-identical to the pre-split engine by the
  standing naive/event equivalence suites; and
* the request-driven service kernel (:mod:`repro.kernel.core`), which
  exposes the tick-free ``begin/acquire/release/commit/abort`` API the
  asyncio front-end (:mod:`repro.service`) serves to concurrent clients.

Layering (lint rule RPR003): this package may import the state layers it
absorbs (``sim/lock_table``, ``sim/admission``, ``sim/waits_for``,
``sim/deadlock``, ``sim/live``, ``sim/metrics``, ``sim/event_log``,
``sim/executor``) but never the drivers above it (``sim/scheduler``,
``sim/runner``, ``sim/grid``) — the kernel must stay reusable by any
front-end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.schedules import Event
from ..exceptions import PolicyViolation
from ..policies.base import Intent, PolicyContext, PolicySession
from ..sim.admission import AdmissionCache, Classifier
from ..sim.event_log import EventLog
from ..sim.executor import make_executor
from ..sim.live import LiveEntry
from ..sim.lock_table import LockTable
from ..sim.metrics import Metrics

from ..sim.waits_for import WaitsForGraph


class KernelRun:
    """State and lifecycle helpers of one kernel instance: composes the
    state layers and owns transaction admission, commit, abort/restart,
    and step execution.  Drivers (the tick simulator, the service
    front-end) decide *when* these transitions fire; the kernel decides
    *what* they do — and the two engines' byte-identical equivalence is
    asserted over exactly these transitions."""

    def __init__(
        self,
        context: PolicyContext,
        *,
        metrics: Optional[Metrics] = None,
        max_restarts: int = 10,
        lock_shards: int = 1,
        shard_workers: int = 0,
        executor_kind: str = "thread",
        event_engine: bool = True,
    ):
        self.context = context
        self.max_restarts = max_restarts
        self.event_engine = event_engine
        self.metrics = metrics if metrics is not None else Metrics()
        self.table = LockTable(shards=lock_shards)
        self.graph = WaitsForGraph()
        self.live: Dict[str, LiveEntry] = {}
        self.cache = AdmissionCache(self.live, self.metrics)
        self.classifier = Classifier(
            self.live, self.metrics, self.table, self.graph, self.cache
        )
        #: The classify-phase executor (serial reference, thread-pool
        #: fan-out, or replica-owning worker processes over shard slices;
        #: see :mod:`repro.sim.executor`).  ``bind_table`` lets the
        #: process executor switch on the table's delta tracking before
        #: any lock is granted.
        self.executor = make_executor(shard_workers, kind=executor_kind)
        self.executor.bind_table(self.table)
        self.log = EventLog()
        self.committed: List[str] = []
        self.dropped: List[str] = []
        self._seq = 0
        if self.event_engine:
            self.context.set_change_listener(self.cache.policy_changed)

    # -- legacy views (kept for tests and callers of the old layout) ----

    waits_for = property(lambda self: self.graph.waits_for)
    blocked_by = property(lambda self: self.graph.blocked_by)
    watchers = property(lambda self: self.cache.watchers)
    events = property(lambda self: self.log.events)
    events_by_txn = property(lambda self: self.log.by_txn)

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
            self.cache.register(
                name,
                tracks_deps=entry.tracks_deps,
                dynamic=not entry.tracks_deps,
                complete=False,
            )
        else:
            self.cache.register(
                name,
                tracks_deps=False,
                dynamic=False,
                complete=session.peek() is None,
            )

    def record_event(self, name: str, event: Event) -> None:
        self.log.record(name, event)

    def erase(self, name: str) -> None:
        self.log.erase(name)

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
            self._wake(woken)

    def abort(self, victim: LiveEntry, reason: str) -> None:
        m = self.metrics
        name = victim.item.name
        m.aborted += 1
        victim.session.on_abort()
        self._forget(victim)
        _, woken = self.table.release_all_wake(name)
        self._wake(woken)
        self.log.erase(name)

        def drop() -> None:
            del self.live[name]
            self.dropped.append(name)
            victim.record.end_tick = m.ticks

        if victim.attempt > self.max_restarts:
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
        step = entry.session.peek()
        assert step is not None
        name = entry.item.name
        op = step.op
        mode = op.lock_mode
        if op.is_lock and mode is not None:
            self.table.acquire(name, step.entity, mode)
            if self.event_engine:
                # Sessions whose cached classification assumed this entity
                # was free (watchers) must be re-derived; queued waiters
                # stay blocked — a grant can only extend their blocker
                # sets, so their edges are updated in place instead.
                self.cache.mark_dirty(
                    self.cache.watchers.get(step.entity, ()), exclude=name
                )
                self.classifier.extend_lock_edges(name, step.entity)
        elif op.is_unlock and mode is not None:
            weakened = self.event_engine and self.table.would_weaken(
                name, step.entity, mode
            )
            woken = self.table.release(name, step.entity, mode)
            self._wake(woken)
            if weakened:
                self.classifier.refresh_lock_edges(name, step.entity)
        self.log.record(name, Event(name, entry.step_count, step))
        entry.step_count += 1
        entry.session.executed()
        m.events_executed += 1
        entry.record.steps_executed += 1
        if self.event_engine:
            self.classifier.clear(entry)
            if name in self.cache.dynamic:
                pass  # re-examined every tick anyway
            elif entry.tracks_deps:
                # Defer the replanning peek to next tick's phase 1 (it may
                # raise or drain to None — commit/abort are phase-1
                # business, exactly when the naive engine sees them).
                self.cache.phase1.add(name)
                self.cache.dirty.add(name)
            elif entry.session.peek() is None:
                self.cache.complete.add(name)
            else:
                self.cache.dirty.add(name)

    def _wake(self, names) -> None:
        """A release returned these waiters in its wake-up set."""
        if self.event_engine:
            self.cache.wake(names)

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
            through = self.metrics.ticks - 1
            for w in waiters:
                w_entry = self.live.get(w)
                if w_entry is not None:
                    self.classifier.accrue(w_entry, through)
        self.cache.forget(name)
