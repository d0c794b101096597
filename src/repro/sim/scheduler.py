"""The concurrency simulator's event loop: executes transaction intents
under a locking policy and records the resulting schedule.

One *tick* executes one step of one randomly chosen runnable session.
Scheduling semantics per tick (identical for both engines):

1. commit sessions that have no pending step;
2. classify the rest: runnable / lock-blocked / policy-blocked (WAIT) /
   policy-violating (ABORT — e.g. DDAG rule L5 after a concurrent edge
   insert, the paper's Fig. 3);
3. if nothing is runnable, find a cycle in the waits-for graph (lock waits +
   policy waits) and abort a victim, else the run has livelocked (an error);
4. execute one step of one runnable session (uniformly at random, seeded).

Two engines implement these semantics: ``engine="naive"`` re-classifies
every live session from scratch each tick (:mod:`repro.sim.reference`, the
executable specification) and ``engine="event"`` (default) caches
classifications and invalidates them only by the events that can change
them.  In the event engine, a session whose verdict needs no policy (2PL,
DTR, scripted) is classified where its own step, admission, restart or a
lock event happens, and a DDAG or altruistic session where its own step,
admission or restart happens whenever its verdict declares no
invalidation channel.  So phase 1 walks only drained or refused scripts
and dynamic sessions, phase 2 only policy verdicts that may have
flipped, and a tick enters a phase only when something is due in it:
for a 2PL run the classify phase is never entered and the commit scan
only to commit, so its classify walk never runs.  This module is the
**driver layer** over the lock-manager kernel: the transaction-lifecycle
state machine (grant/block/wake/deadlock/commit/abort) lives in :class:`repro.kernel.lifecycle.KernelRun`, which
composes the state layers — :mod:`repro.sim.admission` (classification
cache, invalidation channels, classifier), :mod:`repro.sim.waits_for`
(stored policy-wait edges, walked with the lock table's by the
reference detector),
:mod:`repro.sim.deadlock` (oracle detector, victim costing),
:mod:`repro.sim.lock_table` (holder maps and wait queues), and
:mod:`repro.sim.event_log` (O(own events) abort erasure) — all documented
in docs/ARCHITECTURE.md along with the invalidation-channel protocol.
:class:`_Run` adds what makes the kernel a *tick simulator*: the seeded
RNG, batched arrival admission, and the per-tick phase pipeline.  The
same kernel layers serve the request-driven asyncio service through
:class:`repro.kernel.core.LockKernel` (see :mod:`repro.service`).

Aborted transactions release their locks, their recorded events are
erased, and the transaction restarts with an intent script recomputed by
the workload's restart strategy (by default, the same intents).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from ..core.states import StructuralState
from ..exceptions import PolicyViolation, SimulationError
from ..kernel.lifecycle import KernelRun
from ..policies.base import Intent, LockingPolicy, PolicyContext
from .live import LiveEntry
from .deadlock import pick_victim
from .event_log import assemble as _assemble, truncated as _truncated
from .metrics import Metrics, TxnRecord
from .reference import naive_tick

#: Recompute the intent script after an abort: (name, attempt, context) -> intents.
RestartStrategy = Callable[[str, int, PolicyContext], Optional[Sequence[Intent]]]


@dataclass
class WorkloadItem:
    """One transaction of a workload: a name, its intent script, an optional
    restart strategy consulted after aborts, and an arrival time.

    ``start_tick`` delays admission: the transaction's policy session is
    created (and, for policies like DTR that plan at begin-time, planned)
    only when the simulation clock reaches it.  Staggered arrivals are what
    make the long-transaction scenarios meaningful — a short transaction
    arriving *behind* a sweep experiences the blocking the policies differ
    on."""

    name: str
    intents: Sequence[Intent]
    restart: Optional[RestartStrategy] = None
    start_tick: int = 0


@dataclass
class SimResult:
    """Everything a run produced."""

    schedule: object
    metrics: Metrics
    committed: Tuple[str, ...]
    aborted: Tuple[str, ...]
    context: PolicyContext

    @property
    def ok(self) -> bool:
        return not self.aborted


class Simulator:
    """Run a workload under a policy; see the module docstring.

    ``engine`` selects the scheduling implementation: ``"event"`` (the
    default event-driven engine) or ``"naive"`` (the per-tick rescan kept as
    the reference both engines' equivalence is asserted against).
    """

    ENGINES = ("event", "naive")

    def __init__(
        self,
        policy: LockingPolicy,
        seed: int = 0,
        max_ticks: int = 100_000,
        context_kwargs: Optional[dict] = None,
        engine: str = "event",
    ):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {self.ENGINES}")
        self.policy = policy
        self.rng = random.Random(seed)
        self.max_ticks = max_ticks
        self.context_kwargs = dict(context_kwargs or {})
        self.engine = engine

    # ------------------------------------------------------------------

    def run(
        self,
        workload: Sequence[WorkloadItem],
        initial: StructuralState = StructuralState.empty(),
        validate: bool = True,
    ) -> SimResult:
        run = _Run(self, workload)
        run.execute()
        schedule = _assemble(run.events)
        if validate:
            schedule.assert_legal()
            schedule.assert_proper(initial)
        return SimResult(
            schedule=schedule,
            metrics=run.metrics,
            committed=tuple(run.committed),
            aborted=tuple(run.dropped),
            context=run.context,
        )


class _Run(KernelRun):
    """One simulation run (both engines): the tick *driver* over the
    lifecycle kernel.  :class:`~repro.kernel.lifecycle.KernelRun`
    composes the state layers and owns admission, commit, abort/restart,
    and step execution; this subclass adds the seeded RNG, the batched
    arrival queue, and the per-tick phase pipeline that feeds workload
    scripts into those transitions."""

    def __init__(self, sim: Simulator, workload: Sequence[WorkloadItem]):
        super().__init__(
            sim.policy.create_context(**sim.context_kwargs),
            event_engine=sim.engine == "event",
        )
        self.rng = sim.rng
        self.max_ticks = sim.max_ticks
        #: Not-yet-admitted items, batched by arrival tick (ascending) and
        #: ordered by name within a batch.  Admission pops whole batches —
        #: O(batch) per arrival tick and a single integer compare on every
        #: other tick, instead of per-item deque churn.
        self.pending: Deque[Tuple[int, List[WorkloadItem]]] = deque()
        for item in sorted(workload, key=lambda it: (it.start_tick, it.name)):
            if self.pending and self.pending[-1][0] == item.start_tick:
                self.pending[-1][1].append(item)
            else:
                self.pending.append((item.start_tick, [item]))

    # ------------------------------------------------------------------
    # Main loop (shared tick skeleton)
    # ------------------------------------------------------------------

    def execute(self) -> None:
        m = self.metrics
        tick = (
            self._event_tick if self.event_engine else lambda: naive_tick(self)
        )
        pending = self.pending
        self.admit_arrivals()
        while self.live or pending:
            if not self.live and pending:
                # Idle until the next arrival: jump to the tick *before*
                # it so the increment below lands exactly on start_tick,
                # clamped so a far-future arrival cannot jump the clock
                # straight past the max_ticks guard below.
                m.ticks = min(
                    max(m.ticks, pending[0][0] - 1),
                    self.max_ticks,
                )
            if m.ticks >= self.max_ticks:
                raise SimulationError(
                    f"exceeded {self.max_ticks} ticks with "
                    f"{_truncated(sorted(self.live))} still active and "
                    f"{sum(len(batch) for _, batch in pending)} pending"
                )
            m.ticks += 1
            # Until this tick's classify phase, the naive engine has
            # observed blocked sessions through the previous tick.
            self.classifier.observed = m.ticks - 1
            # Admission is entered only on a tick an arrival is due, as
            # the event tick enters a phase only when something is due.
            if pending and pending[0][0] <= m.ticks:
                self.admit_arrivals()
            # Accrued *after* admissions: a transaction admitted at tick
            # t can execute at tick t, so it belongs in tick t's
            # integral.
            m.active_integral += len(self.live)
            if not self.live:
                continue
            tick()

    # ------------------------------------------------------------------
    # Arrival admission (driver-side: the kernel has no clock)
    # ------------------------------------------------------------------

    def admit_arrivals(self) -> None:
        m = self.metrics
        while self.pending and self.pending[0][0] <= m.ticks:
            _, batch = self.pending.popleft()
            for item in batch:
                session = self.context.begin(item.name, item.intents)
                record = TxnRecord(item.name, start_tick=m.ticks)
                m.records[item.name] = record
                entry = LiveEntry(item, session, record, seq=self._seq)
                self._seq += 1
                self._register(entry)

    # ------------------------------------------------------------------
    # Event engine tick
    # ------------------------------------------------------------------

    def _event_tick(self) -> None:
        """One event-engine tick as an explicit phase pipeline: commit
        scan → classify → deadlock → execute.  The commit scan is entered
        only when a session can act in it and the classify phase only when
        a session is due a re-derivation — in a 2PL run, neither ever is —
        but every tick reaches the classify phase's observation point."""
        cache = self.cache
        if cache.complete or cache.dynamic:
            if not self._phase_commit():
                return
        self.classifier.observed = self.metrics.ticks
        if cache.dirty or cache.dynamic:
            if self._phase_classify():
                return
        if not cache.runnable.names:
            self._phase_deadlock()
            return
        self._phase_execute()

    def _phase_commit(self) -> bool:
        """Phase 1 — commit scan, entered only when a session can act
        here (every-tick dynamic ones, and drained scripts and scripts
        whose peek at their admission, restart or own step raised);
        those are visited, in admission order (sorted by ``seq`` only
        when there is more than one), matching the naive engine's
        insertion-order scan over all of live — for every other session
        the phase-1 peek is an observable no-op.  The peek is the
        entry's cached one (:meth:`LiveEntry.peek`, which re-raises a
        kept violation).  A session restarted here is not visited again
        this tick: the naive engine's next peek of it is phase 2's, which
        catches no refusal, so a successor whose first peek was refused
        goes to ``dirty``, where the classify walk re-raises it.  Returns
        whether any session survives into phase 2."""
        live = self.live
        cache = self.cache
        candidates = cache.phase1_candidates()
        if len(candidates) > 1:
            candidates.sort(key=lambda n: live[n].seq)
        for name in candidates:
            entry = live[name]
            try:
                step = entry.peek()
            except PolicyViolation as exc:
                self.abort(entry, str(exc))
                successor = live.get(name)
                if successor is not None and successor.violation is not None:
                    cache.complete.discard(name)
                    cache.dirty.add(name)
                continue
            if step is None:
                self.commit(entry)
        return bool(live)

    def _phase_classify(self) -> bool:
        """Phase 2 — classify only sessions whose verdict needs the policy
        and whose cached state may have changed: the dirty set
        (admissions, restarts and executors whose verdict declares a
        channel or does not proceed, channel hits, woken or invalidated
        sessions) plus every dynamic session, in sorted name order.  Every other
        session was classified where its step, admission, restart or lock
        event happened, so a 2PL run never enters this phase.  Phase-2
        policy aborts are collected in walk order and processed after it;
        returns whether any occurred (which ends the tick).  The tick has
        already moved :attr:`Classifier.observed` to this tick — the naive
        engine's blocked-tick observation point — so from here on an
        in-place wake credits, and a new LOCK_WAIT starts after, the
        current tick."""
        names = self.cache.take_check_slices()
        if not names:
            return False
        aborts: List[Tuple[LiveEntry, str]] = []
        self.executor.run_classify(self.classifier, self.live, names, aborts)
        for entry, reason in aborts:
            self.abort(entry, reason)
        return bool(aborts)

    def _phase_deadlock(self) -> None:
        """Deadlock path.  The reference DFS walks the classifier's
        detection view — stored POLICY_WAIT edges, LOCK_WAIT edges read
        from the lock table as the search reaches them — with no
        per-tick rebuild."""
        m = self.metrics
        live = self.live
        cycle = self.graph.find_cycle(self.classifier.view)
        m.cycle_detections += 1
        m.cycle_visits += self.graph.last_visits
        if cycle is None:
            raise SimulationError(
                f"livelock: no runnable session and no waits-for cycle "
                f"among {_truncated(sorted(live))}"
            )
        victim_name = pick_victim(cycle, live)
        m.deadlocks += 1
        m.deadlock_victims.append(victim_name)
        victim = live[victim_name]
        # The abort ends the victim's wait, so its blocked ticks are
        # credited through this tick, which the naive engine observed;
        # the other members are credited where their waits end.
        self.classifier.accrue(victim, m.ticks)
        self.abort(victim, "deadlock victim")

    def _phase_execute(self) -> None:
        """Phase 3 — execute one step of one runnable session, seeded
        uniform choice over the runnable names in sorted order — which is
        how ``cache.runnable`` keeps them, so the draw on its backing list
        costs a length and a k-th element whatever the population."""
        self._execute_step(
            self.live[self.rng.choice(self.cache.runnable.names)]
        )
