"""Deadlock-storm stress benchmark — cycle search without a per-tick
rebuild and lock events that carry their verdict.

The paper's D-policies trade deadlock-freedom for concurrency (DDAG and
altruistic runs resolve contention through waits-for cycle detection, not
avoidance), so deadlock-heavy workloads are exactly where the reproduction
must scale.  The search walks policy-wait edges the engine stores
(reverse blocker→waiters index, eager inbound-edge pruning at departure)
and lock-wait edges read from the lock table as it reaches them, so no
graph is rebuilt per tick; and a lock event that already decides a
session's next classification applies it in place — a woken waiter
becomes runnable, a watcher of an entity just acquired in a conflicting
mode becomes blocked — so the event engine re-derives a 2PL session only
when it executes, is admitted, or restarts.

This bench runs deadlock-storm workloads (unordered access sets over a
small hot set, staggered arrivals) through **both** engines and asserts:

* exact equivalence — identical schedules, metric summaries, deadlock
  victim sequences, and per-transaction records on the same seed;
* the structural bound on the 2PL storm — event ``classify_checks`` ≤
  ``events_executed + txns + restarts``: at most one full re-derivation
  per executed step, admission and restart, however large the herd a
  lock event moves (the moves are counted as ``lock_transitions``);
* the altruistic storm's saving — ``classify_checks`` drop ≥ 2× versus
  the naive rescan (dependency-declaring sessions keep the dirty route);
* one detector — the event engine walks its detection view with the
  naive engine's DFS, so the detection counts, the ``cycle_visits`` work
  counters and the victim sequences must be equal; a view that drifted
  from the per-tick rebuild can show up here.

Workloads are built through the registered grid factories
(:data:`repro.sim.GRID_FACTORIES`) — the same by-name specs
``test_bench_grid.py`` hands to ``run_cell`` — so this bench and the grid
harness exercise one construction path.
"""

import time

from conftest import banner

from repro.policies import AltruisticPolicy, TwoPhasePolicy
from repro.sim import Simulator, format_table, grid_factory


def _run_cell(name, policy_factory, build, structural_bound=False):
    """Run one storm under both engines; assert equivalence; return the
    per-engine work numbers.  ``build()`` constructs ``(items, initial,
    context_kwargs)`` fresh per engine so nothing is shared between runs.
    ``structural_bound`` gates the event engine's ``classify_checks`` on
    the bound lock-table-only sessions obey instead of on a ratio."""
    results = {}
    rows = []
    num_txns = 0
    for engine in ("naive", "event"):
        items, initial, _ = build()
        num_txns = len(items)
        sim = Simulator(
            policy_factory(), seed=0, engine=engine, max_ticks=2_000_000
        )
        start = time.perf_counter()
        result = sim.run(items, initial, validate=False)
        wall = time.perf_counter() - start
        results[engine] = result
        m = result.metrics
        rows.append({
            "workload": name,
            "engine": engine,
            "txns": len(items),
            "ticks": m.ticks,
            "deadlocks": m.deadlocks,
            "classify_checks": m.classify_checks,
            "lock_transitions": m.lock_transitions,
            "cycle_visits": m.cycle_visits,
            "wall_s": round(wall, 3),
        })
    print(format_table(
        rows,
        ["workload", "engine", "txns", "ticks", "deadlocks",
         "classify_checks", "lock_transitions", "cycle_visits", "wall_s"],
    ))

    naive, event = results["naive"], results["event"]
    assert naive.schedule.events == event.schedule.events, (
        f"{name}: engines must produce identical schedules"
    )
    assert naive.metrics.summary() == event.metrics.summary(), (
        f"{name}: metric summaries diverge"
    )
    assert naive.metrics.deadlock_victims == event.metrics.deadlock_victims, (
        f"{name}: deadlock victim sequences diverge"
    )
    for txn, rn in naive.metrics.records.items():
        re_ = event.metrics.records[txn]
        assert (
            rn.start_tick, rn.end_tick, rn.committed, rn.restarts,
            rn.steps_executed, rn.blocked_ticks,
        ) == (
            re_.start_tick, re_.end_tick, re_.committed, re_.restarts,
            re_.steps_executed, re_.blocked_ticks,
        ), f"{name}: per-transaction record for {txn} diverges"

    # A storm that does not storm proves nothing.
    assert naive.metrics.deadlocks > 0, f"{name}: expected waits-for cycles"

    checks = {e: r.metrics.classify_checks for e, r in results.items()}
    ratio = checks["naive"] / max(1, checks["event"])
    em = event.metrics
    # One full re-derivation per executed step, admission and restart:
    # the sessions a lock event moves are moved in place.
    bound = em.events_executed + num_txns + em.restarts
    if structural_bound:
        assert checks["event"] <= bound, (
            f"{name}: {checks['event']} classify checks exceed "
            f"events + txns + restarts = {bound}"
        )
    else:
        assert ratio >= 2.0, (
            f"{name}: expected >= 2x fewer classify checks at "
            f"{num_txns} txns, got {ratio:.1f}x"
        )

    # One detector: the same DFS over the same graph, so both work
    # counters agree exactly.
    nm = naive.metrics
    assert nm.cycle_detections == em.cycle_detections, (
        f"{name}: detection counts diverge"
    )
    assert em.cycle_visits == nm.cycle_visits, (
        f"{name}: the maintained graph walked differently from the rebuild "
        f"({em.cycle_visits} vs {nm.cycle_visits} visits)"
    )
    return {
        "workload": name,
        "txns": num_txns,
        "ticks": naive.metrics.ticks,
        "deadlocks": naive.metrics.deadlocks,
        "naive_checks": checks["naive"],
        "event_checks": checks["event"],
        "event_check_bound": bound if structural_bound else None,
        "lock_transitions": em.lock_transitions,
        "ratio": round(ratio, 2),
        "cycle_detections": nm.cycle_detections,
        "cycle_visits": nm.cycle_visits,
    }


def test_deadlock_storm_stress():
    banner(
        "[scheduler] table-backed waits-for search: deadlock storms at "
        "1200/150 txns"
    )
    cells = []

    # 2PL storm: unordered two-access transactions, half the traffic on an
    # 8-entity hot set, arrivals just above service capacity.  Most ticks
    # find every live session blocked, so the deadlock path dominates;
    # each release wakes and each acquire blocks a herd of waiters, which
    # used to be re-classified one by one and are now moved in place.
    cells.append(_run_cell(
        "2pl-deadlock-storm",
        TwoPhasePolicy,
        lambda: grid_factory("deadlock_storm")(
            0, num_entities=600, num_txns=1200, accesses_per_txn=2,
            arrival_rate=0.4, hot_set_size=8, hot_traffic=0.5,
        ),
        structural_bound=True,
    ))

    # Altruistic storm: the same shape through a dynamic
    # (dependency-declaring) policy, so policy-wait edges and lock-wait
    # edges mix in the cycles being detected.  The naive engine's
    # O(live·donors) admission work is why this cell stays smaller than
    # the 2PL one.
    cells.append(_run_cell(
        "altruistic-deadlock-storm",
        AltruisticPolicy,
        lambda: grid_factory("deadlock_storm")(
            0, num_entities=150, num_txns=150, accesses_per_txn=2,
            arrival_rate=0.15, hot_set_size=8, hot_traffic=0.45,
        ),
    ))

    print(format_table(
        cells,
        ["workload", "txns", "ticks", "deadlocks", "naive_checks",
         "event_checks", "event_check_bound", "lock_transitions", "ratio",
         "cycle_detections", "cycle_visits"],
    ))
    print("\nshape: no-runnable ticks no longer rescan the live set, lock "
          "events move the sessions they decide in place, and detections "
          "walk the maintained graph exactly as the naive engine walks "
          "its rebuild")


def test_2pl_deadlock_storm_ends_every_transaction():
    """A 200-transaction 2PL deadlock storm, event engine."""
    items, initial, _ = grid_factory("deadlock_storm")(
        0, num_entities=100, num_txns=200, accesses_per_txn=2,
        arrival_rate=0.4, hot_set_size=6, hot_traffic=0.5,
    )
    result = Simulator(TwoPhasePolicy(), seed=0, max_ticks=500_000).run(
        items, initial, validate=False
    )
    # Storm victims may exhaust their restart budget and drop; everything
    # else must commit, and cycles must actually have formed.
    assert result.metrics.committed + len(result.aborted) == 200
    assert result.metrics.deadlocks > 0
