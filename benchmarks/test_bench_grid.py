"""Parallel experiment grid bench — multiprocess ``run_cell`` fan-out.

The reproduction's evaluation budget is measured in (policy, workload,
seed) cells, and until this bench's subject change every seed of every
cell ran serially in one process.  The grid runner
(:func:`repro.sim.run_grid`) fans the seed-runs out over a multiprocessing
pool from picklable specs (policy constructors + registered factory names,
never live objects) and streams per-seed summaries back to the parent,
which aggregates them exactly as the serial path does.

This bench runs the 1,200-transaction stress grid through both paths and
asserts the grid's correctness contract:

* **byte-identical rows** — ``workers=0`` (the in-process reference) and
  ``workers>=2`` produce equal :class:`CellResult` objects, means, stdevs,
  failure lists and all;
* **a real verdict on every row** — every seed's schedule is
  serializability-checked, at this scale too, and every row says ``True``.

Wall-clock for both paths is recorded in ``BENCH_grid_stress.json`` (the
unified artifact schema — see benchmarks/README.md) in pytest's base
temporary directory, so a run leaves nothing in the checkout; CI passes
``--basetemp`` and uploads it from there.  Near-linear scaling
only shows on a multi-core runner, so the speedup is reported, not
asserted.

``BENCH_SMOKE_SCALE`` (a float in ``(0, 1]``, default 1) shrinks the
transaction counts for CI smoke runs.
"""

import os
import time

from conftest import banner

from repro.policies import AltruisticPolicy, TwoPhasePolicy
from repro.sim import (
    GridSpec,
    PolicySpec,
    WorkloadSpec,
    cell_rows_with_work,
    format_table,
    run_grid,
    write_bench_artifact,
)

SCALE = float(os.environ.get("BENCH_SMOKE_SCALE", "1"))
WORKERS = 2
RESULTS_NAME = "BENCH_grid_stress.json"


def _scaled(n: int) -> int:
    return max(50, int(n * SCALE))


def _grid_spec() -> GridSpec:
    """The stress grid: both static-policy scale scenarios of the earlier
    PRs as one declarative spec.  ``pairs`` instead of a cross product —
    the altruistic deadlock storm needs its own (smaller) tuning and is
    already covered by test_bench_deadlock.py."""
    two_pl = PolicySpec(TwoPhasePolicy)
    altruistic = PolicySpec(AltruisticPolicy)
    open_stress = WorkloadSpec("stress", {
        "num_entities": 2000, "num_txns": _scaled(1200),
        "arrival_rate": 0.085, "hot_fraction": 0.0,
    }, label="open-stress")
    storm = WorkloadSpec("deadlock_storm", {
        "num_entities": 600, "num_txns": _scaled(1200),
        "accesses_per_txn": 2, "arrival_rate": 0.4,
        "hot_set_size": 8, "hot_traffic": 0.5,
    }, label="deadlock-storm")
    return GridSpec(
        pairs=(
            (two_pl, open_stress),
            (altruistic, open_stress),
            (two_pl, storm),
        ),
        seeds=(0, 1, 2),
        max_ticks=2_000_000,
    )


def test_grid_parallel_equivalence_and_scaling(tmp_path_factory):
    banner(
        f"[harness] multiprocess grid fan-out at {_scaled(1200)} txns/cell: "
        f"workers=0 vs workers={WORKERS} (scale={SCALE:g})"
    )
    spec = _grid_spec()

    start = time.perf_counter()
    serial = run_grid(spec, workers=0)
    wall_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_grid(spec, workers=WORKERS)
    wall_parallel = time.perf_counter() - start

    # The contract: identical CellResult objects — rows, means, stdevs,
    # failure lists, work counters — regardless of the worker count.
    assert [c.row() for c in serial] == [c.row() for c in parallel], (
        "parallel grid rows diverge from the serial reference"
    )
    for s_cell, p_cell in zip(serial, parallel):
        assert s_cell == p_cell, (
            f"cell {s_cell.policy}×{s_cell.workload}: aggregates diverge"
        )

    rows = [c.row() for c in serial]
    assert all(r["serializable"] is True for r in rows), (
        "a safe policy's cell was not verified serializable"
    )
    assert all(c.runs == len(spec.seeds) and c.failures == 0 for c in serial)

    print(format_table(rows, [
        "policy", "workload", "runs", "failures", "serializable",
        "ticks", "committed", "throughput", "mean_latency",
    ]))
    speedup = wall_serial / max(wall_parallel, 1e-9)
    print(f"\nserial {wall_serial:.2f}s vs {WORKERS} workers "
          f"{wall_parallel:.2f}s ({speedup:.2f}x, {os.cpu_count()} cpus)")

    results_path = tmp_path_factory.getbasetemp() / RESULTS_NAME
    write_bench_artifact(
        results_path, "grid_stress",
        cell_rows_with_work(serial),
        scale=SCALE, workers=WORKERS, wall_s=wall_parallel,
        extra={
            "wall_serial_s": round(wall_serial, 3),
            "wall_parallel_s": round(wall_parallel, 3),
            "speedup": round(speedup, 2),
            "cpu_count": os.cpu_count(),
            "seeds": list(spec.seeds),
        },
    )
    print(f"\nshape: seed-runs fan out across processes and aggregate to "
          f"byte-identical rows; results in {results_path}")


def test_bench_grid_kernel(benchmark):
    """Kernel: one small in-process grid (2 policies × 1 workload × 2
    seeds) — the serial reference path the fan-out is measured against."""
    spec = GridSpec(
        policies=(PolicySpec(TwoPhasePolicy), PolicySpec(AltruisticPolicy)),
        workloads=(WorkloadSpec("stress", {
            "num_entities": 200, "num_txns": 60, "arrival_rate": 0.5,
        }),),
        seeds=(0, 1),
        max_ticks=500_000,
    )

    cells = benchmark(lambda: run_grid(spec, workers=0))
    assert all(c.failures == 0 for c in cells)
