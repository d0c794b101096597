"""Ablations — what each design knob of the policies buys.

Two ablations called out in DESIGN.md:

* **DDAG auto-release** (crab locking) on vs off: early release is where the
  DDAG policy's concurrency comes from; holding every lock to commit
  degenerates it into 2PL-over-a-DAG.
* **Altruistic donation** on vs off: with donation disabled the policy *is*
  strict 2PL (the wake machinery never engages), so the short-transaction
  latency advantage must disappear.

Both ablations must preserve safety — the rules stay intact; only the
generosity changes.
"""

import statistics

from conftest import banner

from repro.core import is_serializable
from repro.graphs import random_rooted_dag
from repro.policies import AltruisticPolicy, DdagPolicy
from repro.sim import Simulator, long_transaction_workload, traversal_workload

SEEDS = range(8)


def _chain_pipeline(length: int, num_txns: int):
    """Full-chain traversals: every transaction walks root..leaf — the
    configuration where crab locking pipelines (T2 enters the chain while T1
    is further down) and hold-to-commit serialises."""
    from repro.graphs import chain
    from repro.policies import Access
    from repro.sim import WorkloadItem, dag_structural_state

    dag = chain(length)
    walk = list(range(1, length + 1))
    items = [
        WorkloadItem(f"T{i}", [Access(n) for n in walk])
        for i in range(1, num_txns + 1)
    ]
    return dag, items, dag_structural_state(dag)


def test_ablation_ddag_auto_release():
    banner("Ablation — DDAG crab release on vs off (chain pipeline)")
    rows = {}
    for auto in (True, False):
        waits = []
        for seed in SEEDS:
            dag, items, init = _chain_pipeline(6, 3)
            from repro.graphs import chain

            result = Simulator(
                DdagPolicy(auto_release=auto),
                seed=seed,
                context_kwargs={"dag": chain(6)},
            ).run(items, init)
            assert is_serializable(result.schedule)
            waits.append(result.metrics.wait_fraction)
        rows[auto] = statistics.fmean(waits)
    print(f"  auto-release on:  wait_fraction = {rows[True]:.4f}")
    print(f"  auto-release off: wait_fraction = {rows[False]:.4f}")
    assert rows[True] < rows[False], (
        "early release must block less than hold-to-commit on the chain"
    )
    print("\nshape: crab release pipelines traversals down the chain; "
          "holding\nevery lock to commit serialises them")


def test_ablation_altruistic_donation():
    banner("Ablation — altruistic donation on vs off (off == strict 2PL)")
    rows = {}
    for donate in (True, False):
        lat = []
        for seed in SEEDS:
            items, init = long_transaction_workload(
                24, 5, short_length=2, seed=seed,
                region="leading", short_start=60,
            )
            result = Simulator(
                AltruisticPolicy(donate_immediately=donate), seed=seed
            ).run(items, init)
            assert is_serializable(result.schedule)
            lat.append(statistics.fmean(
                rec.latency
                for name, rec in result.metrics.records.items()
                if name != "LONG"
            ))
        rows[donate] = statistics.fmean(lat)
    print(f"  donation on:  short-latency = {rows[True]:.1f}")
    print(f"  donation off: short-latency = {rows[False]:.1f}")
    assert rows[True] < rows[False], "donation is where the wake benefit lives"
    print("\nshape: without donation the wake machinery never engages and the "
          "policy behaves like 2PL")


def test_ablation_ddag_hold_to_commit_traversals_serializable():
    """Without crab release, random-DAG traversals stay serializable."""
    dag = random_rooted_dag(10, 0.25, seed=3)
    items, init = traversal_workload(dag, 6, 5, seed=3)
    result = Simulator(
        DdagPolicy(auto_release=False), seed=3,
        context_kwargs={"dag": dag.snapshot()},
    ).run(items, init)
    assert is_serializable(result.schedule)
