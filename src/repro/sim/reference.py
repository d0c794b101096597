"""The naive reference engine: the executable specification.

One tick re-classifies every live session from scratch — peek, admission
verdict, lock-table conflict query — and rebuilds the waits-for graph as
it goes.  O(live × footprint) per tick, which is exactly why the event
engine exists; it is kept verbatim because every optimization in the
event-driven layers (cached classifications, invalidation channels,
lock-wait edges read from the lock table only at a cycle search) is
equivalence-tested against the
schedules, summaries, per-transaction records, and deadlock-victim
sequences this loop produces on the same seed.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..exceptions import PolicyViolation, SimulationError
from ..policies.base import Admission
from .live import LiveEntry
from .deadlock import find_cycle_counted, pick_victim
from .event_log import truncated


def naive_tick(run) -> None:
    """One tick of the naive engine over ``run`` (a
    :class:`repro.sim.scheduler._Run`)."""
    m = run.metrics
    live = run.live
    # Phase 1: commits.
    for name in list(live):
        entry = live[name]
        try:
            step = entry.session.peek()
        except PolicyViolation as exc:
            run.abort(entry, str(exc))
            continue
        if step is None:
            run.commit(entry)
    if not live:
        return  # next arrivals (if any) admit at the top

    # Phase 2: classify.
    runnable: List[LiveEntry] = []
    waits_for: Dict[str, Set[str]] = {}
    aborts: List[Tuple[LiveEntry, str]] = []
    for name in sorted(live):
        entry = live[name]
        step = entry.session.peek()
        assert step is not None
        m.classify_checks += 1
        m.admission_checks += 1
        verdict = entry.session.admission()
        if verdict.verdict is Admission.ABORT:
            aborts.append((entry, verdict.reason or "policy violation"))
            continue
        if verdict.verdict is Admission.WAIT:
            m.policy_wait_observations += 1
            entry.record.blocked_ticks += 1
            waits_for.setdefault(name, set()).update(
                w for w in verdict.waiting_on if w in live
            )
            continue
        mode = step.lock_mode
        if step.is_lock and mode is not None:
            m.blocker_queries += 1
            blockers = run.table.blockers(name, step.entity, mode)
            if blockers:
                m.lock_wait_observations += 1
                entry.record.blocked_ticks += 1
                waits_for.setdefault(name, set()).update(
                    b for b in blockers if b in live
                )
                continue
        runnable.append(entry)

    for entry, reason in aborts:
        run.abort(entry, reason)
    if aborts:
        return

    if not runnable:
        # From-scratch resolution on the per-tick graph (the event engine
        # runs the same DFS on its maintained graph).
        cycle, visits = find_cycle_counted(waits_for)
        m.cycle_detections += 1
        m.cycle_visits += visits
        if cycle is None:
            raise SimulationError(
                f"livelock: no runnable session and no waits-for cycle "
                f"among {truncated(sorted(live))}"
            )
        victim_name = pick_victim(cycle, live)
        m.deadlocks += 1
        m.deadlock_victims.append(victim_name)
        run.abort(live[victim_name], "deadlock victim")
        return

    # Phase 3: execute one step.
    run._execute_step(run.rng.choice(runnable))
