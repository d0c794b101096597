"""Performance study — the simulated substitute for [CHMS94].

The paper defers quantitative evaluation of the DDAG policy to its companion
paper (a KBMS testbed we do not have); per the reproduction's substitution
rule we rerun the comparisons on the discrete-event simulator driving the
actual policy implementations.  Absolute numbers are simulator ticks, not
testbed seconds; the *shapes* under test:

* **altruistic vs 2PL, long transactions** — late-arriving short
  transactions queue behind a 2PL sweep's lifetime but run in an altruistic
  sweep's wake; the gap widens with sweep length (crossover at small
  sweeps, where wake bookkeeping costs more than it saves).
* **DDAG vs 2PL, traversals** — DDAG's early lock release along a traversal
  admits more concurrency than strict 2PL holding the whole path.
* **all policies** — every recorded schedule serializable (the safety side
  of the trade).
* **event-driven vs naive scheduler** — the per-tick classification work of
  the event engine stays near-constant while the naive rescan grows with
  the live population; identical schedules, orders of magnitude less work.
"""

import statistics
import time
from functools import partial

from conftest import banner

from repro.core import is_serializable
from repro.graphs import random_rooted_dag
from repro.policies import AltruisticPolicy, DdagPolicy, TwoPhasePolicy
from repro.sim import (
    Simulator,
    format_table,
    grid_factory,
    long_transaction_workload,
    run_cell,
    stress_workload,
    traversal_workload,
)

SEEDS = range(8)


def test_altruistic_vs_2pl_long_transactions():
    banner("[CHMS94-substitute] late shorts behind a sweep: 2PL vs altruistic")
    rows = []
    crossover_seen = False
    for sweep in (8, 16, 24, 32):
        means = {}
        for policy in (TwoPhasePolicy(), AltruisticPolicy()):
            lat = []
            for seed in SEEDS:
                items, init = long_transaction_workload(
                    sweep, 5, short_length=2, seed=seed,
                    region="leading", short_start=int(sweep * 2.5),
                )
                result = Simulator(policy, seed=seed).run(items, init)
                assert is_serializable(result.schedule)
                lat.append(statistics.fmean(
                    rec.latency
                    for name, rec in result.metrics.records.items()
                    if name != "LONG"
                ))
            means[policy.name] = statistics.fmean(lat)
        speedup = means["2PL"] / means["Altruistic"]
        rows.append({
            "sweep": sweep,
            "2PL short-latency": round(means["2PL"], 1),
            "AL short-latency": round(means["Altruistic"], 1),
            "speedup": round(speedup, 2),
        })
        if speedup < 1:
            crossover_seen = True
    print(format_table(rows, ["sweep", "2PL short-latency", "AL short-latency", "speedup"]))
    assert rows[-1]["speedup"] > 1.2, "altruism must win for long sweeps"
    print("\nshape: altruistic wins and the gap widens with sweep length"
          + ("; crossover at small sweeps observed" if crossover_seen else ""))


def test_ddag_vs_2pl_traversals():
    banner("[CHMS94-substitute] concurrent traversals: DDAG vs strict 2PL")
    # The registered "traversal" factory derives both the workload and
    # the DDAG context from the seed (2PL ignores the context kwarg).
    traversals = partial(
        grid_factory("traversal"),
        nodes=10, edge_prob=0.25, num_txns=6, walk_length=5,
    )
    cells = [
        run_cell(policy, "traversals", traversals, SEEDS)
        for policy in (DdagPolicy(), TwoPhasePolicy())
    ]
    rows = [c.row() for c in cells]
    print(format_table(
        rows,
        ["policy", "committed", "ticks", "mean_latency", "wait_fraction",
         "serializable"],
    ))
    ddag, tpl = cells
    assert ddag.all_serializable and tpl.all_serializable
    assert ddag.means["wait_fraction"] <= tpl.means["wait_fraction"] + 0.02, (
        "DDAG's early release should not block more than 2PL"
    )
    print("\nshape: DDAG's crab-style early release keeps blocking at or below"
          "\nstrict 2PL while preserving serializability")


def test_event_engine_vs_naive_classification_work():
    """Head-to-head at 300 transactions: the event-driven scheduler must
    reproduce the naive engine's schedule exactly while doing a fraction of
    its classification work."""
    banner("[scheduler] event-driven engine vs naive per-tick rescan")
    items, initial = stress_workload(100, 300, arrival_rate=2.0, seed=0)
    rows = []
    results = {}
    for engine in ("naive", "event"):
        start = time.perf_counter()
        result = Simulator(TwoPhasePolicy(), seed=0, engine=engine).run(
            items, initial
        )
        wall = time.perf_counter() - start
        results[engine] = result
        work = result.metrics.work_summary()
        rows.append({
            "engine": engine,
            "ticks": result.metrics.ticks,
            "classify_checks": int(work["classify_checks"]),
            "classify/tick": round(work["classify_per_tick"], 2),
            "blocker_queries": int(work["blocker_queries"]),
            "wall_s": round(wall, 3),
        })
    print(format_table(
        rows,
        ["engine", "ticks", "classify_checks", "classify/tick",
         "blocker_queries", "wall_s"],
    ))
    naive, event = results["naive"], results["event"]
    assert naive.schedule.events == event.schedule.events, (
        "engines must produce identical schedules on the same seed"
    )
    assert naive.metrics.summary() == event.metrics.summary()
    saving = naive.metrics.classify_checks / max(1, event.metrics.classify_checks)
    assert saving > 10, f"expected >10x fewer classifications, got {saving:.1f}x"
    print(f"\nshape: identical schedules; the event engine performs "
          f"{saving:.0f}x fewer classification operations")


def test_event_engine_thousand_transaction_stress():
    """Scale run: >= 1,000 transactions through the event engine, with
    near-constant per-tick classification work (the naive engine's per-tick
    work at this population is in the hundreds)."""
    banner("[scheduler] 1,200-transaction stress workload, event engine")
    items, initial = stress_workload(400, 1200, arrival_rate=2.0, seed=0)
    start = time.perf_counter()
    result = Simulator(TwoPhasePolicy(), seed=0, max_ticks=500_000).run(
        items, initial, validate=False
    )
    wall = time.perf_counter() - start
    m = result.metrics
    work = m.work_summary()
    print(format_table(
        [{
            "txns": len(items),
            "committed": m.committed,
            "ticks": m.ticks,
            "classify/tick": round(work["classify_per_tick"], 2),
            "wakeups": int(work["wakeups"]),
            "wall_s": round(wall, 3),
        }],
        ["txns", "committed", "ticks", "classify/tick", "wakeups", "wall_s"],
    ))
    assert m.committed == 1200
    assert result.ok
    assert work["classify_per_tick"] < 25, (
        "event engine classification work must not scale with the population"
    )
    print("\nshape: thousands of transactions complete with per-tick "
          "classification work independent of the live population")


def test_stress_event_engine_commits_every_transaction():
    """A 300-transaction 2PL stress run on the event engine commits all."""
    items, initial = stress_workload(100, 300, arrival_rate=2.0, seed=0)
    result = Simulator(TwoPhasePolicy(), seed=0).run(
        items, initial, validate=False
    )
    assert result.metrics.committed == 300


def test_altruistic_long_transaction_run_serializable():
    """One altruistic long-transaction run (sweep 16) is serializable."""
    items, init = long_transaction_workload(
        16, 5, short_length=2, seed=3, region="leading", short_start=40
    )
    result = Simulator(AltruisticPolicy(), seed=3).run(items, init)
    assert is_serializable(result.schedule)


def test_ddag_traversal_run_serializable():
    """One DDAG traversal run (10-node DAG, 6 transactions) is serializable."""
    dag = random_rooted_dag(10, 0.25, seed=3)
    items, init = traversal_workload(dag, 6, 5, seed=3)
    result = Simulator(
        DdagPolicy(), seed=3, context_kwargs={"dag": dag.snapshot()}
    ).run(items, init)
    assert is_serializable(result.schedule)
