"""Policy comparison grids: run a policy × workload × seed grid cell by
cell.

The paper's claims are comparative, so the evidence is a table of
(policy, workload) cells, each averaged over seeds.  A cell's workload is
a registered factory with its keyword arguments bound
(``functools.partial(grid_factory(name), **kwargs)``), which builds the
items, the initial state and any policy context from the seed, and
:func:`~repro.sim.run_cell` runs the cell's seeds and aggregates them.

Run:  python examples/policy_grid.py
"""

from functools import partial

from repro.policies import AltruisticPolicy, DdagPolicy, TwoPhasePolicy
from repro.sim import format_table, grid_factory, run_cell


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Name the cells: 2PL vs DDAG on traversals, 2PL vs altruistic on
    #    the long-transaction scenario (pairs, not a cross product —
    #    each comparison has its own natural workload).
    # ------------------------------------------------------------------
    traversals = partial(
        grid_factory("traversal"),
        nodes=10, edge_prob=0.25, num_txns=6, walk_length=5,
    )
    long_sweep = partial(
        grid_factory("long_transaction"),
        num_entities=24, num_short=5, short_length=2,
        region="leading", short_start=60,
    )
    cells = [
        (DdagPolicy(), "traversal", traversals),
        (TwoPhasePolicy(), "traversal", traversals),
        (AltruisticPolicy(), "long-sweep", long_sweep),
        (TwoPhasePolicy(), "long-sweep", long_sweep),
    ]

    # ------------------------------------------------------------------
    # 2. Run every cell over the same eight seeds and print one row each.
    # ------------------------------------------------------------------
    results = [
        run_cell(policy, label, factory, seeds=range(8))
        for policy, label, factory in cells
    ]
    print(format_table(
        [c.row() for c in results],
        ["policy", "workload", "runs", "failures", "serializable",
         "ticks", "mean_latency", "wait_fraction"],
    ))


if __name__ == "__main__":
    main()
