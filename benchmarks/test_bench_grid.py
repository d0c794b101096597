"""Stress grid bench — the static policies' scale cells through ``run_cell``.

The reproduction's evidence is measured in (policy, workload, seed)
cells.  This bench runs the 1,200-transaction stress grid — 2PL and
altruistic locking on an open stress workload, 2PL on a deadlock storm —
one :func:`repro.sim.run_cell` per cell over a registered workload factory
(``functools.partial(grid_factory(name), **kwargs)``), and asserts that
every seed of every cell ran and that every row carries a real verdict:
each seed's schedule is serializability-checked at this scale too, and
every row says ``True``.
"""

from functools import partial

from conftest import banner

from repro.policies import AltruisticPolicy, TwoPhasePolicy
from repro.sim import format_table, grid_factory, run_cell

SEEDS = (0, 1, 2)


def _cells():
    """The stress grid's ``(policy, row label, factory name, kwargs)``
    cells: both static-policy scale scenarios of the earlier PRs.  Pairs,
    not a cross product — the altruistic deadlock storm needs its own
    (smaller) tuning and is already covered by test_bench_deadlock.py."""
    open_stress = {
        "num_entities": 2000, "num_txns": 1200,
        "arrival_rate": 0.085, "hot_fraction": 0.0,
    }
    storm = {
        "num_entities": 600, "num_txns": 1200,
        "accesses_per_txn": 2, "arrival_rate": 0.4,
        "hot_set_size": 8, "hot_traffic": 0.5,
    }
    return [
        (TwoPhasePolicy(), "open-stress", "stress", open_stress),
        (AltruisticPolicy(), "open-stress", "stress", open_stress),
        (TwoPhasePolicy(), "deadlock-storm", "deadlock_storm", storm),
    ]


def test_stress_grid_rows_carry_real_verdicts():
    banner(
        "[harness] stress grid at 1200 txns/cell, seeds "
        f"{SEEDS[0]}-{SEEDS[-1]}"
    )
    cells = [
        run_cell(
            policy, label, partial(grid_factory(name), **kwargs), SEEDS,
            max_ticks=2_000_000,
        )
        for policy, label, name, kwargs in _cells()
    ]

    rows = [c.row() for c in cells]
    print(format_table(rows, [
        "policy", "workload", "runs", "failures", "serializable",
        "ticks", "committed", "throughput", "mean_latency",
    ]))
    assert all(c.runs == len(SEEDS) and c.failures == 0 for c in cells)
    assert all(r["serializable"] is True for r in rows), (
        "a safe policy's cell was not verified serializable"
    )
    print("\nshape: every seed of every cell runs to completion and is "
          "verified serializable")


def test_small_grid_cells_have_no_failures():
    """A small grid (2 policies x 1 workload x 2 seeds) fails no seed."""
    factory = partial(
        grid_factory("stress"),
        num_entities=200, num_txns=60, arrival_rate=0.5,
    )
    cells = [
        run_cell(policy, "stress", factory, (0, 1), max_ticks=500_000)
        for policy in (TwoPhasePolicy(), AltruisticPolicy())
    ]
    assert all(c.failures == 0 for c in cells)
