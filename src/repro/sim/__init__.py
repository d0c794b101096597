"""Discrete-event concurrency simulator: the substitute for the paper's
companion performance study [CHMS94]."""

from .. import _exports

_EXPORTS = {
    "AdmissionCache": ".admission",
    "CellResult": ".runner",
    "FAILED_SEEDS_LIMIT": ".runner",
    "GRID_FACTORIES": ".workloads",
    "LockTable": ".lock_table",
    "Metrics": ".metrics",
    "SerialExecutor": ".executor",
    "SeedOutcome": ".runner",
    "SimResult": ".scheduler",
    "Simulator": ".scheduler",
    "TxnRecord": ".metrics",
    "WaitsForGraph": ".waits_for",
    "WorkloadFactory": ".runner",
    "WorkloadItem": ".scheduler",
    "aggregate_outcomes": ".runner",
    "bench_artifact": ".artifacts",
    "dag_structural_state": ".workloads",
    "ddag_cone_intents": ".workloads",
    "ddag_restart_from_cone": ".workloads",
    "deadlock_storm_workload": ".workloads",
    "dynamic_traversal_workload": ".workloads",
    "fig3_dag": ".workloads",
    "fig3_workload": ".workloads",
    "find_cycle": ".deadlock",
    "find_cycle_counted": ".deadlock",
    "format_table": ".runner",
    "grid_factory": ".workloads",
    "long_transaction_workload": ".workloads",
    "pick_victim": ".deadlock",
    "random_access_workload": ".workloads",
    "register_grid_factory": ".workloads",
    "run_cell": ".runner",
    "run_seed": ".runner",
    "stress_workload": ".workloads",
    "traversal_workload": ".workloads",
    "write_bench_artifact": ".artifacts",
}

__all__ = tuple(_EXPORTS)
__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)
