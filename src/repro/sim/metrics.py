"""Metrics collected by the concurrency simulator.

The performance benchmark (the substitute for the paper's companion
evaluation [CHMS94]) reports these per policy/workload cell: throughput,
blocking, aborts, and mean latency — the dimensions along which altruistic
locking and DDAG claim improvements over 2PL for long/traversal
transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class TxnRecord:
    """Per-transaction lifecycle record."""

    name: str
    start_tick: int
    end_tick: Optional[int] = None
    committed: bool = False
    restarts: int = 0
    steps_executed: int = 0
    blocked_ticks: int = 0

    @property
    def latency(self) -> Optional[int]:
        if self.end_tick is None:
            return None
        return self.end_tick - self.start_tick


@dataclass
class Metrics:
    """Aggregate counters for one simulation run."""

    ticks: int = 0
    events_executed: int = 0
    committed: int = 0
    aborted: int = 0
    restarts: int = 0
    deadlocks: int = 0
    #: Victim of each waits-for cycle resolution, in detection order; the
    #: engines must agree on this sequence exactly (the equivalence tests
    #: compare it), not just on the ``deadlocks`` count.
    deadlock_victims: List[str] = field(default_factory=list)
    lock_wait_observations: int = 0
    policy_wait_observations: int = 0
    active_integral: int = 0
    records: Dict[str, TxnRecord] = field(default_factory=dict)

    # -- scheduler work counters ---------------------------------------
    # How much classification work the engine performed.  These measure the
    # *engine*, not the workload, so they are reported separately from
    # :meth:`summary` (whose values are identical between the naive and the
    # event-driven engine on the same seed; the work counters are exactly
    # what the event engine is built to shrink).
    #: Derivations of a session's classification from its pending step
    #: (peek + admission + lock check), wherever they run: in the classify
    #: phase, or — for a session whose verdict needs no policy — in place
    #: at its own step, admission or restart.  A wake or block applied in
    #: place by a lock event is not one (see ``lock_transitions``).
    classify_checks: int = 0
    #: Policy admission() evaluations.
    admission_checks: int = 0
    #: Blocker derivations: one per derivation whose pending step locks
    #: (wherever it runs) and per in-place block transition.  A grant
    #: that blocks several watchers makes no ``LockTable.blockers`` call:
    #: their edges are read from the table at a cycle search, which
    #: counts no derivation.
    blocker_queries: int = 0
    #: Waiters a lock release/commit/abort woke (moved to runnable in
    #: place, or marked dirty when their verdict needs the policy).
    wakeups: int = 0
    #: Classifications a lock event applied in place (the event engine):
    #: a woken waiter made runnable, or a watcher blocked by an acquire.
    #: Reported beside ``classify_checks`` so the moved work stays visible.
    lock_transitions: int = 0
    #: Sessions re-examined because a policy change notification hit one of
    #: their declared invalidation channels (the policy-aware protocol that
    #: lets dynamic sessions skip the every-tick re-check).
    invalidations: int = 0
    #: Waits-for cycle detections run (no-runnable ticks).
    cycle_detections: int = 0
    #: Graph nodes visited (DFS pushes) across all cycle detections.  Both
    #: engines run the same DFS on the same graph (rebuilt per tick by the
    #: naive engine, maintained by the event engine), so the deadlock
    #: bench asserts the two counts equal.
    cycle_visits: int = 0

    def accrue_blocked(self, record: TxnRecord, lock_wait: bool, ticks: int) -> None:
        """Credit ``ticks`` blocked-tick observations to ``record`` in one
        step — the event engine's accrue-on-demand accounting.  The naive
        engine adds +1 per blocked session per tick; the event engine skips
        untouched sessions and catches their accounting up lazily where a
        wait ends (a wake, a re-classification, a victim pick), so the
        totals of both engines match exactly."""
        if ticks <= 0:
            return
        record.blocked_ticks += ticks
        if lock_wait:
            self.lock_wait_observations += ticks
        else:
            self.policy_wait_observations += ticks

    @property
    def throughput(self) -> float:
        """Committed transactions per tick."""
        return self.committed / self.ticks if self.ticks else 0.0

    @property
    def mean_latency(self) -> float:
        latencies = [
            r.latency for r in self.records.values() if r.latency is not None and r.committed
        ]
        return sum(latencies) / len(latencies) if latencies else 0.0

    @property
    def mean_active(self) -> float:
        """Average number of concurrently active transactions (the
        'concurrency level' axis of the performance study)."""
        return self.active_integral / self.ticks if self.ticks else 0.0

    @property
    def wait_fraction(self) -> float:
        """Fraction of scheduling observations that found a session blocked
        (lock waits plus policy waits)."""
        total = self.lock_wait_observations + self.policy_wait_observations
        denom = total + self.events_executed
        return total / denom if denom else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "ticks": float(self.ticks),
            "committed": float(self.committed),
            "aborted": float(self.aborted),
            "restarts": float(self.restarts),
            "deadlocks": float(self.deadlocks),
            "throughput": self.throughput,
            "mean_latency": self.mean_latency,
            "mean_active": self.mean_active,
            "wait_fraction": self.wait_fraction,
        }

    def work_summary(self) -> Dict[str, float]:
        """Engine work counters (see the field comments); reported by the
        performance benchmarks to compare scheduler implementations."""
        return {
            "classify_checks": float(self.classify_checks),
            "admission_checks": float(self.admission_checks),
            "blocker_queries": float(self.blocker_queries),
            "wakeups": float(self.wakeups),
            "lock_transitions": float(self.lock_transitions),
            "invalidations": float(self.invalidations),
            "classify_per_tick": (
                self.classify_checks / self.ticks if self.ticks else 0.0
            ),
            "cycle_detections": float(self.cycle_detections),
            "cycle_visits": float(self.cycle_visits),
            "cycle_visits_per_detection": (
                self.cycle_visits / self.cycle_detections
                if self.cycle_detections
                else 0.0
            ),
        }
