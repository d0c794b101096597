"""Fig. 5 — dynamic tree policy walk-through.

Paper: when T1 begins, the forest is a single tree (Fig. 5a, rules DT0/DT2);
T2's access of node 4 adds it to the forest (Fig. 5b, DT1/DT2); once T2
finishes, node 4 can be deleted because T1 remains tree-locked with respect
to G(4) (DT3); T3 behaves analogously.

Measured: the forest trace for that exact scenario, tree-lockedness of
every precomputed locked transaction, and serializability (Theorem 4).
"""

from conftest import banner

from repro.core import StructuralState, is_serializable
from repro.core.transactions import Transaction
from repro.policies import Access, DtrPolicy, check_tree_locked
from repro.sim import Simulator, WorkloadItem
from repro.viz import render_forest


def test_fig5_forest_trace():
    banner("Fig. 5 — the database forest under DT0-DT3")
    ctx = DtrPolicy().create_context()
    print("DT0: forest initially empty:", render_forest(ctx.forest))

    s1 = ctx.begin("T1", [Access(1), Access(2), Access(3)])
    print("\nT1 over {1,2,3} (Fig. 5a):")
    print(render_forest(ctx.forest))
    assert ctx.forest.nodes() == {1, 2, 3}

    s2 = ctx.begin("T2", [Access(2), Access(4)])
    print("\nT2 over {2,4} adds node 4 (Fig. 5b):")
    print(render_forest(ctx.forest))
    assert 4 in ctx.forest

    for name, session in (("T1", s1), ("T2", s2)):
        txn = Transaction(name, tuple(session._steps))
        assert check_tree_locked(txn, ctx.plan_parents[name]) == []
    print("\nboth precomputed locked transactions are tree-locked (DT2)")

    while s2.peek() is not None:
        s2.executed()
    s2.on_commit()
    print("\nT2 commits; DT3 deletes node 4 (T1 tree-locked in G(4)):")
    print(render_forest(ctx.forest))
    assert 4 not in ctx.forest

    s3 = ctx.begin("T3", [Access(3), Access(5)])
    print("\nT3 over {3,5} adds node 5 (the analogous step for T3):")
    print(render_forest(ctx.forest))
    assert 5 in ctx.forest


def test_fig5_concurrent_runs():
    banner("Fig. 5 — concurrent T1, T2, T3 under the simulator")
    items = [
        WorkloadItem("T1", [Access(1), Access(2), Access(3)]),
        WorkloadItem("T2", [Access(2), Access(4)]),
        WorkloadItem("T3", [Access(3), Access(5)]),
    ]
    init = StructuralState.of(1, 2, 3, 4, 5)
    for seed in range(20):
        result = Simulator(DtrPolicy(), seed=seed).run(items, init)
        assert set(result.committed) == {"T1", "T2", "T3"}
        assert is_serializable(result.schedule)
    print("20/20 runs serializable  (Theorem 4)")


def test_fig5_run_serializable():
    """One Fig. 5 DTR run (seed 5) is serializable."""
    items = [
        WorkloadItem("T1", [Access(1), Access(2), Access(3)]),
        WorkloadItem("T2", [Access(2), Access(4)]),
        WorkloadItem("T3", [Access(3), Access(5)]),
    ]
    init = StructuralState.of(1, 2, 3, 4, 5)
    result = Simulator(DtrPolicy(), seed=5).run(items, init)
    assert is_serializable(result.schedule)
