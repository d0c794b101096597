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
them.  This module is the **driver layer** over the lock-manager kernel:
the transaction-lifecycle state machine (grant/block/wake/deadlock/
commit/abort) lives in :class:`repro.kernel.lifecycle.KernelRun`, which
composes the state layers — :mod:`repro.sim.admission` (classification
cache, invalidation channels, classifier), :mod:`repro.sim.waits_for`
(always-fresh graph, incremental cycle detection),
:mod:`repro.sim.deadlock` (oracle detector, victim costing),
:mod:`repro.sim.lock_table` (sharded holder maps and wait queues), and
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
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.states import StructuralState
from ..exceptions import PolicyViolation, SimulationError
from ..kernel.lifecycle import KernelRun
from ..policies.base import Intent, LockingPolicy, PolicyContext
from .live import LiveEntry
from .deadlock import (  # _find_cycle re-exported for tests/oracle use
    find_cycle as _find_cycle,
    pick_victim,
    resolve_deadlock,
)
from .event_log import assemble as _assemble, truncated as _truncated
from .metrics import Metrics, TxnRecord
from .reference import naive_tick

#: Recompute the intent script after an abort: (name, attempt, context) -> intents.
RestartStrategy = Callable[[str, int, PolicyContext], Optional[Sequence[Intent]]]

#: Legacy alias: the live-session record moved to the admission layer.
_Live = LiveEntry


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
    #: How the classify work was scheduled (executor kind, per-shard
    #: classification counts, barrier waits, spills) — deliberately not
    #: part of ``Metrics``/``work_summary`` so seeded outcomes stay
    #: byte-identical across ``shard_workers``.
    executor_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.aborted


class Simulator:
    """Run a workload under a policy; see the module docstring.

    ``engine`` selects the scheduling implementation: ``"event"`` (the
    default event-driven engine) or ``"naive"`` (the per-tick rescan kept as
    the reference both engines' equivalence is asserted against).
    ``lock_shards`` partitions the lock table (any count produces identical
    runs; ``1`` is the single-partition reference).  ``shard_workers``
    selects the classify-phase executor worker count: ``0`` (default) is
    the serial reference, ``N>=1`` fans shard-local classification out to
    ``N`` workers behind a deterministic merge barrier — any worker count
    produces byte-identical runs (event engine only).  ``executor``
    selects the worker kind when ``shard_workers >= 1``: ``"thread"``
    (default) or ``"process"`` (persistent replica-owning worker
    processes); ``"serial"`` forces the serial reference regardless of
    worker count.
    """

    ENGINES = ("event", "naive")
    EXECUTORS = ("serial", "thread", "process")

    def __init__(
        self,
        policy: LockingPolicy,
        seed: int = 0,
        max_ticks: int = 100_000,
        max_restarts: int = 10,
        context_kwargs: Optional[dict] = None,
        engine: str = "event",
        lock_shards: int = 1,
        shard_workers: int = 0,
        executor: str = "thread",
    ):
        if engine not in self.ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {self.ENGINES}")
        if shard_workers < 0:
            raise ValueError(
                f"shard_workers must be >= 0, got {shard_workers}"
            )
        if executor not in self.EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of "
                f"{self.EXECUTORS}"
            )
        if shard_workers and engine != "event":
            raise ValueError(
                "shard_workers requires the event engine "
                f"(got engine={engine!r})"
            )
        self.policy = policy
        self.rng = random.Random(seed)
        self.max_ticks = max_ticks
        self.max_restarts = max_restarts
        self.context_kwargs = dict(context_kwargs or {})
        self.engine = engine
        self.lock_shards = lock_shards
        self.shard_workers = shard_workers
        self.executor = executor

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
            executor_stats=run.executor.snapshot(),
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
            max_restarts=sim.max_restarts,
            lock_shards=sim.lock_shards,
            shard_workers=sim.shard_workers,
            executor_kind=sim.executor,
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
        #: Items still awaiting admission (the batches' total size).
        self.pending_items = len(workload)

    # ------------------------------------------------------------------
    # Main loop (shared tick skeleton)
    # ------------------------------------------------------------------

    def execute(self) -> None:
        m = self.metrics
        tick = (
            self._event_tick if self.event_engine else lambda: naive_tick(self)
        )
        try:
            self.admit_arrivals()
            while self.live or self.pending:
                if not self.live and self.pending:
                    # Idle until the next arrival: jump to the tick *before*
                    # it so the increment below lands exactly on start_tick,
                    # clamped so a far-future arrival cannot jump the clock
                    # straight past the max_ticks guard below.
                    m.ticks = min(
                        max(m.ticks, self.pending[0][0] - 1),
                        self.max_ticks,
                    )
                if m.ticks >= self.max_ticks:
                    raise SimulationError(
                        f"exceeded {self.max_ticks} ticks with "
                        f"{_truncated(sorted(self.live))} still active and "
                        f"{self.pending_items} pending"
                    )
                m.ticks += 1
                self.admit_arrivals()
                # Accrued *after* admissions: a transaction admitted at tick
                # t can execute at tick t, so it belongs in tick t's
                # integral.
                m.active_integral += len(self.live)
                if not self.live:
                    continue
                tick()
        finally:
            self.executor.shutdown()

    # ------------------------------------------------------------------
    # Arrival admission (driver-side: the kernel has no clock)
    # ------------------------------------------------------------------

    def admit_arrivals(self) -> None:
        m = self.metrics
        while self.pending and self.pending[0][0] <= m.ticks:
            _, batch = self.pending.popleft()
            self.pending_items -= len(batch)
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
        scan → classify → deadlock → execute.  Each phase is a method
        with a documented shard-locality contract; only the classify
        phase's work is partitioned (and optionally fanned out to shard
        workers by the executor) — every other phase runs whole on the
        coordinator."""
        if not self._phase_commit():
            return
        if self._phase_classify():
            return
        if not self.cache.runnable:
            self._phase_deadlock()
            return
        self._phase_execute()

    def _phase_commit(self) -> bool:
        """Phase 1 — commit scan (coordinator only: commits and phase-1
        aborts mutate the live table, the lock table, and the log, all of
        which the classify phase needs frozen).  Only sessions that can
        act here (every-tick dynamic ones, finished scripted ones, and
        dependency-declaring sessions due their replanning peek) are
        visited, in admission order, matching the naive engine's
        insertion-order scan over all of live — for every other session
        the phase-1 peek is an observable no-op.  Returns whether any
        session survives into phase 2."""
        live = self.live
        for name in sorted(
            self.cache.phase1_candidates(), key=lambda n: live[n].seq
        ):
            entry = live.get(name)
            if entry is None:
                continue
            try:
                step = entry.session.peek()
            except PolicyViolation as exc:
                self.abort(entry, str(exc))
                continue
            if step is None:
                self.commit(entry)
        return bool(live)

    def _phase_classify(self) -> bool:
        """Phase 2 — classify only sessions whose cached state may have
        changed: the dirty set (woken waiters, invalidated watchers,
        executors, fresh admissions) plus every dynamic session.  The
        check set is partitioned into shard-local slices (keyed by the
        pending lock entity's shard) plus a global slice, and handed to
        the executor: shard slices read only frozen phase inputs and
        their own shard's holder map, so the parallel executor may derive
        them on workers; all state mutation happens in coordinator-side
        applies at the merge barrier, in shard-index order.  Phase-2
        policy aborts — which may now surface from shard slices too,
        since admission-needing sessions shard-route — are canonicalized
        to the legacy sorted-by-name order before processing, so the
        abort sequence is independent of slice layout; returns whether
        any occurred (which ends the tick).  Lint rule RPR009 pins this
        shape: the phase body may mutate scheduler state only through
        ``take_check_slices``, ``run_classify``, and ``abort``."""
        aborts: List[Tuple[LiveEntry, str]] = []
        slices, global_slice, spill = self.cache.take_check_slices(
            self.table.shard_of, self.table.shards
        )
        self.executor.run_classify(
            self.classifier, self.live, slices, global_slice, aborts,
            spill,
        )
        aborts.sort(key=lambda pr: pr[0].item.name)
        for entry, reason in aborts:
            self.abort(entry, reason)
        return bool(aborts)

    def _phase_deadlock(self) -> None:
        """Deadlock path (coordinator only: cycle detection walks the
        whole waits-for graph — inherently cross-shard — and the victim
        abort mutates every layer).  The graph is maintained always-fresh,
        so the incremental detector runs directly on it — acyclicity
        certificates survive between detections, and only the
        possibly-cyclic region is re-walked (the from-scratch walk was
        the last O(blocked) per-detection cost)."""
        m = self.metrics
        live = self.live
        cycle = self.graph.find_cycle()
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
        # The cycle members' lazy accounting must be as fresh as the
        # naive engine's every-blocked-session classification here
        # (the victim's record is final after the abort).
        for member in cycle:
            entry = live.get(member)
            if entry is not None:
                self.classifier.accrue(entry, m.ticks)
        self.abort(live[victim_name], "deadlock victim")

    def _phase_execute(self) -> None:
        """Phase 3 — execute one step of one runnable session, seeded
        uniform choice over the runnable names in sorted order — which is
        how ``cache.runnable`` keeps them, so the draw costs a length and a
        k-th element whatever the population (coordinator only: grants,
        releases, wake-ups, and the event log are global mutations;
        invalidation routing keys the *next* tick's shard slices)."""
        self._execute_step(self.live[self.rng.choice(self.cache.runnable)])


def _pick_deadlock_victim(waits_for, live) -> Optional[str]:
    """Legacy :func:`repro.sim.deadlock.resolve_deadlock` (victim only)."""
    found = resolve_deadlock(waits_for, live)
    return None if found is None else found[0]
