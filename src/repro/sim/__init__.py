"""Discrete-event concurrency simulator: the substitute for the paper's
companion performance study [CHMS94]."""

from .admission import AdmissionCache
from .artifacts import bench_artifact, cell_rows_with_work, write_bench_artifact
from .deadlock import find_cycle, find_cycle_counted, pick_victim, resolve_deadlock
from .executor import SerialExecutor
from .grid import GridSpec, PolicySpec, WorkloadSpec, run_grid
from .lock_table import LockTable
from .metrics import Metrics, TxnRecord
from .waits_for import WaitsForGraph
from .runner import (
    FAILED_SEEDS_LIMIT,
    CellResult,
    SeedOutcome,
    WorkloadFactory,
    aggregate_outcomes,
    format_table,
    run_cell,
    run_seed,
)
from .scheduler import SimResult, Simulator, WorkloadItem
from .workloads import (
    GRID_FACTORIES,
    dag_structural_state,
    ddag_cone_intents,
    ddag_restart_from_cone,
    deadlock_storm_workload,
    dynamic_traversal_workload,
    fig3_dag,
    fig3_workload,
    grid_factory,
    grid_factory_names,
    long_transaction_workload,
    random_access_workload,
    register_grid_factory,
    stress_workload,
    traversal_workload,
)

__all__ = [
    "AdmissionCache",
    "CellResult",
    "FAILED_SEEDS_LIMIT",
    "GRID_FACTORIES",
    "GridSpec",
    "LockTable",
    "Metrics",
    "PolicySpec",
    "SerialExecutor",
    "SeedOutcome",
    "SimResult",
    "Simulator",
    "TxnRecord",
    "WaitsForGraph",
    "WorkloadFactory",
    "WorkloadItem",
    "WorkloadSpec",
    "aggregate_outcomes",
    "bench_artifact",
    "cell_rows_with_work",
    "dag_structural_state",
    "ddag_cone_intents",
    "ddag_restart_from_cone",
    "deadlock_storm_workload",
    "dynamic_traversal_workload",
    "fig3_dag",
    "fig3_workload",
    "find_cycle",
    "find_cycle_counted",
    "format_table",
    "grid_factory",
    "grid_factory_names",
    "long_transaction_workload",
    "pick_victim",
    "random_access_workload",
    "register_grid_factory",
    "resolve_deadlock",
    "run_cell",
    "run_grid",
    "run_seed",
    "stress_workload",
    "traversal_workload",
    "write_bench_artifact",
]
