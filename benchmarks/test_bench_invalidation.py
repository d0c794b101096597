"""Dynamic-policy stress benchmark — the policy-aware invalidation protocol.

PR 1's event-driven scheduler explicitly degraded to the naive per-tick
rescan for dynamic sessions, which is exactly the paper's own policies:
DDAG rule L5 consults "the present state of G" and altruistic AL2 consults
the shared wake bookkeeping.  The invalidation protocol
(``PolicySession.admission_dependencies`` + ``PolicyContext.notify_changed``)
lets those sessions declare precisely which shared-state changes can flip
their cached verdicts, so the scheduler re-examines them only when such a
change is reported instead of every tick.

This bench runs 1,000+ transaction stress workloads under the paper's two
dynamic policies through **both** engines and asserts:

* exact equivalence — identical schedules, metric summaries, and
  per-transaction records on the same seed;
* the protocol's win — ``classify_checks + admission_checks`` drop ≥ 10×
  versus the naive rescan (the acceptance bar of the invalidation work).

Workloads are built through the registered grid factories
(:data:`repro.sim.GRID_FACTORIES`) — the same by-name specs
``test_bench_grid.py`` hands to ``run_cell`` — so this bench and the grid
harness exercise one construction path.
"""

import time

from conftest import banner

from repro.policies import AltruisticPolicy, DdagPolicy
from repro.sim import Simulator, format_table, grid_factory


def _run_cell(name, policy_factory, build):
    """Run one workload under both engines; assert equivalence; return the
    per-engine work numbers.  ``build()`` constructs ``(items, initial,
    context_kwargs)`` fresh per engine — dynamic policies mutate the
    context's graph, so nothing may be shared between the two runs."""
    results = {}
    rows = []
    num_txns = 0
    for engine in ("naive", "event"):
        items, initial, context_kwargs = build()
        num_txns = len(items)
        sim = Simulator(
            policy_factory(),
            seed=0,
            engine=engine,
            max_ticks=2_000_000,
            context_kwargs=context_kwargs,
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
            "classify+admission": m.classify_checks + m.admission_checks,
            "invalidations": m.invalidations,
            "wall_s": round(wall, 3),
        })
    print(format_table(
        rows,
        ["workload", "engine", "txns", "ticks", "classify+admission",
         "invalidations", "wall_s"],
    ))

    naive, event = results["naive"], results["event"]
    assert naive.schedule.events == event.schedule.events, (
        f"{name}: engines must produce identical schedules"
    )
    assert naive.metrics.summary() == event.metrics.summary(), (
        f"{name}: metric summaries diverge"
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

    checks = {
        e: r.metrics.classify_checks + r.metrics.admission_checks
        for e, r in results.items()
    }
    ratio = checks["naive"] / max(1, checks["event"])
    assert ratio >= 10.0, (
        f"{name}: expected >= 10x fewer classification+admission checks "
        f"at {num_txns} txns, got {ratio:.1f}x"
    )
    return {
        "workload": name,
        "txns": num_txns,
        "ticks": naive.metrics.ticks,
        "naive_checks": checks["naive"],
        "event_checks": checks["event"],
        "ratio": round(ratio, 2),
        "invalidations": event.metrics.invalidations,
    }


def test_dynamic_policy_invalidation_stress():
    banner(
        "[scheduler] policy-aware invalidation: dynamic policies at "
        "1200/1100 txns"
    )
    cells = []

    # Altruistic locking: an open system of short transactions arriving
    # just above the simulator's service capacity, so a standing population
    # of wake-constrained and lock-blocked sessions accumulates.  AL2 is
    # the shared-state verdict; donations/locked-points invalidate it.
    cells.append(_run_cell(
        "altruistic-stress",
        AltruisticPolicy,
        lambda: grid_factory("stress")(
            0, num_entities=2000, num_txns=1200,
            arrival_rate=0.085, hot_fraction=0.0,
        ),
    ))

    # DDAG: dynamic traversals (structural churn: fresh-leaf inserts) over
    # a shared rooted DAG at an overload arrival rate, piling traversals
    # behind the hot upper nodes.  L5 is the shared-state verdict; graph
    # mutations invalidate the affected node channels.  The registered
    # factory derives the DAG (and the context's snapshot of it) from the
    # seed, fresh per engine run.
    cells.append(_run_cell(
        "ddag-dynamic-stress",
        DdagPolicy,
        lambda: grid_factory("dynamic_traversal")(
            0, nodes=60, edge_prob=0.05, num_txns=1100,
            walk_length=3, insert_prob=0.3, arrival_rate=0.18,
        ),
    ))

    # The altruistic cell must actually exercise the notification path —
    # a zero here would mean the protocol silently fell back to every-tick
    # re-checks (or donations stopped being reported).
    assert cells[0]["invalidations"] > 0

    print(format_table(
        cells,
        ["workload", "txns", "naive_checks", "event_checks", "ratio",
         "invalidations"],
    ))
    print("\nshape: the paper's own (dynamic) policies now ride the "
          "event-driven engine")


def test_altruistic_stress_commits_all_but_dropped_victims():
    """A 300-transaction altruistic stress run, event engine."""
    items, initial, _ = grid_factory("stress")(
        0, num_entities=600, num_txns=300, arrival_rate=0.085, hot_fraction=0.0
    )
    result = Simulator(AltruisticPolicy(), seed=0, max_ticks=500_000).run(
        items, initial, validate=False
    )
    # Deadlock victims may exhaust their restart budget and drop; everything
    # else must commit.
    assert result.metrics.committed + len(result.aborted) == 300
    assert result.metrics.committed >= 290
