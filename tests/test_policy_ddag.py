"""Tests for the DDAG policy (rules L1-L5, Fig. 3, Theorem 2's claim)."""

import pytest

from repro.core import is_serializable
from repro.exceptions import PolicyViolation
from repro.graphs import RootedDag, chain, random_rooted_dag
from repro.policies import (
    Access,
    Admission,
    BrokenDdagPolicy,
    DdagPolicy,
    InsertEdge,
    InsertNode,
    Unlock,
    check_ddag_schedule,
)
from repro.sim import (
    Simulator,
    WorkloadItem,
    dag_structural_state,
    dynamic_traversal_workload,
    fig3_dag,
    fig3_workload,
    traversal_workload,
)


class TestSessionRules:
    def test_first_lock_anywhere_L4(self):
        dag = chain(4)
        ctx = DdagPolicy().create_context(dag=dag)
        session = ctx.begin("T", [Access(3)])
        step = session.peek()
        assert step.is_lock and step.entity == 3
        assert session.admission().verdict is Admission.PROCEED

    def test_L5_requires_all_predecessors(self):
        dag = RootedDag(1, [(1, 2), (1, 3), (2, 4), (3, 4)])  # diamond
        ctx = DdagPolicy().create_context(dag=dag)
        # Accessing 2 then 4 skips predecessor 3 of node 4: L5 must abort.
        session = ctx.begin("T", [Access(2), Access(4)])
        self._drain_until_lock_of(session, 4)
        assert session.admission().verdict is Admission.ABORT

    def test_L5_satisfied_with_all_predecessors(self):
        dag = RootedDag(1, [(1, 2), (1, 3), (2, 4), (3, 4)])
        ctx = DdagPolicy().create_context(dag=dag)
        session = ctx.begin("T", [Access(1), Access(2), Access(3), Access(4)])
        self._drain_until_lock_of(session, 4)
        assert session.admission().verdict is Admission.PROCEED

    def test_insert_lock_anytime_L2(self):
        dag = chain(2)
        ctx = DdagPolicy().create_context(dag=dag)
        session = ctx.begin("T", [Access(2), InsertNode(99, parents=(2,))])
        self._drain_until_lock_of(session, 99)
        assert session.admission().verdict is Admission.PROCEED

    def test_reinsertion_of_deleted_node_rejected(self):
        dag = chain(2)
        ctx = DdagPolicy().create_context(dag=dag)
        ctx.tombstones.add(99)
        session = ctx.begin("T", [Access(2), InsertNode(99, parents=(2,))])
        with pytest.raises(PolicyViolation, match="reinsert"):
            self._drain_until_lock_of(session, 99)

    def test_edge_insert_requires_held_endpoints(self):
        dag = chain(3)
        ctx = DdagPolicy().create_context(dag=dag)
        session = ctx.begin("T", [InsertEdge(1, 3)])
        with pytest.raises(PolicyViolation, match="without holding"):
            session.peek()

    @pytest.mark.parametrize("u, v", [(3, 1), (2, 1), (2, 2)])
    def test_cycle_closing_edge_insert_trips_the_guard(self, u, v):
        dag = chain(3)  # 1 -> 2 -> 3
        ctx = DdagPolicy(auto_release=False).create_context(dag=dag)
        session = ctx.begin(
            "T", [Access(1), Access(2), Access(3), InsertEdge(u, v)]
        )
        before = dag.graph.edges()
        with pytest.raises(AssertionError, match="cycle"):
            while session.peek() is not None:
                session.executed()
        assert dag.graph.edges() == before  # tripped before the edge went in

    @staticmethod
    def _drain_until_lock_of(session, node):
        """Execute session steps until the pending step is (LX node)."""
        while True:
            step = session.peek()
            assert step is not None, f"never reached lock of {node}"
            if step.is_lock and step.entity == node:
                return
            session.executed()


class TestFig3:
    def test_fig3_without_edge_insert_commits_both(self):
        items, init = fig3_workload()
        result = Simulator(
            DdagPolicy(auto_release=False), seed=0, context_kwargs={"dag": fig3_dag()}
        ).run(items, init)
        assert set(result.committed) == {"T1", "T2"}
        assert is_serializable(result.schedule)
        assert check_ddag_schedule(result.schedule, fig3_dag()) == []

    def test_fig3_edge_insert_forces_t2_abort(self):
        # T1 additionally inserts edge (2,4) while holding 2 and 4; if T2's
        # lock of 4 happens afterwards, rule L5 now also requires node 2 and
        # T2 must abort and restart from the dominator.
        dag = fig3_dag()
        t1 = [Access(2), Access(3), Access(4), Unlock(3), InsertEdge(2, 4),
              Unlock(4), Unlock(2)]
        t2 = [Access(3), Access(4)]
        from repro.sim.workloads import ddag_restart_from_cone

        items = [
            WorkloadItem("T1", t1),
            WorkloadItem("T2", t2, restart=ddag_restart_from_cone([3, 4])),
        ]
        aborted_runs = 0
        for seed in range(25):
            result = Simulator(
                DdagPolicy(auto_release=False),
                seed=seed,
                context_kwargs={"dag": fig3_dag()},
            ).run(items, dag_structural_state(dag))
            assert is_serializable(result.schedule)
            if result.metrics.aborted:
                aborted_runs += 1
        assert aborted_runs > 0  # the Fig. 3 race fires in some interleavings


class TestTheorem2Empirically:
    @pytest.mark.parametrize("seed", range(8))
    def test_static_traversals_serializable(self, seed):
        dag = random_rooted_dag(8, 0.3, seed=seed)
        items, init = traversal_workload(dag, 4, 4, seed=seed)
        result = Simulator(
            DdagPolicy(), seed=seed, context_kwargs={"dag": dag.snapshot()}
        ).run(items, init)
        assert is_serializable(result.schedule)
        assert check_ddag_schedule(result.schedule, dag) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_dynamic_traversals_serializable(self, seed):
        dag = random_rooted_dag(8, 0.3, seed=seed)
        items, init = dynamic_traversal_workload(dag, 4, 3, 0.6, seed=seed)
        result = Simulator(
            DdagPolicy(), seed=seed, context_kwargs={"dag": dag.snapshot()}
        ).run(items, init)
        assert is_serializable(result.schedule)
        if not result.aborted:
            assert check_ddag_schedule(result.schedule, dag) == []


class TestNegativeControl:
    def test_broken_ddag_produces_nonserializable_run(self):
        # With L5 disabled, traversals in opposite directions can cycle.
        bad = 0
        for seed in range(60):
            dag = chain(3)
            items = [
                WorkloadItem("T1", [Access(2), Unlock(2), Access(3)]),
                WorkloadItem("T2", [Access(3), Unlock(3), Access(2)]),
            ]
            result = Simulator(
                BrokenDdagPolicy(auto_release=False),
                seed=seed,
                context_kwargs={"dag": dag},
            ).run(items, dag_structural_state(dag))
            if not is_serializable(result.schedule):
                bad += 1
        assert bad > 0

    def test_real_ddag_rejects_the_same_workload(self):
        # The same opposite-direction traversal is impossible under L5: T2's
        # jump from 3 back up to 2 violates the predecessor rule.
        dag = chain(3)
        ctx = DdagPolicy(auto_release=False).create_context(dag=dag)
        session = ctx.begin("T2", [Access(3), Unlock(3), Access(2)])
        while True:
            step = session.peek()
            if step.is_lock and step.entity == 2:
                break
            session.executed()
        assert session.admission().verdict is Admission.ABORT
