"""Fig. 3 — the DDAG policy walk-through.

Paper: on the graph (reconstructed as the chain 1->2->3->4->5), T1 locks
node 2 (rule L4), then 3 and 4 (L5), unlocks 3; T2 begins at 3 (L4); T1
releases 4; T2 locks 4.  If T1 had inserted the edge (2, 4) while holding
2 and 4, T2 would be unable to lock 4 — rule L5 now also demands node 2 —
and must abort and restart from node 2.

Measured: both variants, the L1–L5 audit, serializability, and the abort-
and-restart behaviour across seeds.
"""

from conftest import banner

from repro.core import is_serializable
from repro.policies import Access, DdagPolicy, InsertEdge, Unlock, check_ddag_schedule
from repro.sim import (
    Simulator,
    WorkloadItem,
    dag_structural_state,
    fig3_dag,
    fig3_workload,
)
from repro.sim.workloads import ddag_restart_from_cone
from repro.viz import render_dag, render_schedule


def test_fig3_baseline_walkthrough():
    banner("Fig. 3 — T1 crabs 2,3,4; T2 follows 3,4 (no edge insert)")
    print(render_dag(fig3_dag()))
    items, init = fig3_workload()
    result = Simulator(
        DdagPolicy(auto_release=False), seed=0, context_kwargs={"dag": fig3_dag()}
    ).run(items, init)
    print(render_schedule(result.schedule, ["T1", "T2"]))
    print(f"\ncommitted: {result.committed}  (paper: both commit)")
    assert set(result.committed) == {"T1", "T2"}
    assert is_serializable(result.schedule)
    assert check_ddag_schedule(result.schedule, fig3_dag()) == []
    print("serializable: True | L1-L5 violations: none  (paper: same)")


def _edge_insert_items():
    t1 = [Access(2), Access(3), Access(4), Unlock(3), InsertEdge(2, 4),
          Unlock(4), Unlock(2)]
    t2 = [Access(3), Access(4)]
    return [
        WorkloadItem("T1", t1),
        WorkloadItem("T2", t2, restart=ddag_restart_from_cone([3, 4])),
    ]


def test_fig3_edge_insert_forces_abort():
    banner("Fig. 3 — T1 inserts edge (2,4): T2 must abort under rule L5")
    dag = fig3_dag()
    total = aborted = 0
    for seed in range(40):
        result = Simulator(
            DdagPolicy(auto_release=False), seed=seed,
            context_kwargs={"dag": fig3_dag()},
        ).run(_edge_insert_items(), dag_structural_state(dag))
        assert is_serializable(result.schedule)
        total += 1
        if result.metrics.aborted:
            aborted += 1
    print(f"runs with a rule-L5 abort of T2: {aborted}/{total} "
          f"(paper: whenever T2's lock of 4 follows the edge insert)")
    print("all runs serializable: True  (Theorem 2)")
    assert aborted > 0


def test_fig3_edge_insert_run_serializable():
    """One hold-to-commit Fig. 3 edge-insert run (seed 7) is serializable."""
    result = Simulator(
        DdagPolicy(auto_release=False), seed=7,
        context_kwargs={"dag": fig3_dag()},
    ).run(_edge_insert_items(), dag_structural_state(fig3_dag()))
    assert is_serializable(result.schedule)
