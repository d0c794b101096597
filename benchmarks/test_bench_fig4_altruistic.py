"""Fig. 4 — altruistic locking walk-through.

Paper: once T1 releases entity 1, T2 locks it and enters T1's wake; from
then on T2 may lock only entities T1 has donated, until T1 reaches its
locked point (its lock of entity 3), after which T2 may lock anything.

Measured: the wake lifecycle on the exact scenario, plus AL1–AL3 audits and
serializability over many seeds.
"""

from conftest import banner

from repro.core import StructuralState, is_serializable
from repro.policies import (
    Access,
    Admission,
    AltruisticPolicy,
    check_altruistic_schedule,
)
from repro.sim import Simulator, WorkloadItem
from repro.viz import render_schedule


def test_fig4_wake_lifecycle():
    banner("Fig. 4 — T2 in T1's wake")
    ctx = AltruisticPolicy().create_context()
    t1 = ctx.begin("T1", [Access(1), Access(2), Access(3)])
    # T1: lock 1, access, donate 1 (pre-locked-point).
    for _ in range(4):
        assert t1.peek() is not None
        t1.executed()
    assert 1 in t1.donated and not t1.reached_locked_point
    print("T1 donated entity 1 before its locked point (its lock of 3)")

    t2 = ctx.begin("T2", [Access(1), Access(4)])
    for _ in range(4):  # T2 takes donated entity 1
        assert t2.peek() is not None
        t2.executed()
    assert t2.in_wake_of(t1)
    print("T2 locked entity 1 -> T2 is in the wake of T1")

    assert t2.peek().entity == 4
    assert t2.admission().verdict is Admission.WAIT
    print("T2 wants entity 4 (never donated): AL2 makes it WAIT  (paper: same)")

    while not t1.reached_locked_point:
        assert t1.peek() is not None
        t1.executed()
    assert t2.admission().verdict is Admission.PROCEED
    print("T1 reaches its locked point: the wake dissolves, T2 may proceed")


def test_fig4_full_runs_audited():
    banner("Fig. 4 — full concurrent runs, AL1-AL3 audited")
    items = [
        WorkloadItem("T1", [Access(1), Access(2), Access(3)]),
        WorkloadItem("T2", [Access(1), Access(2), Access(4)]),
    ]
    init = StructuralState.of(1, 2, 3, 4)
    shown = False
    for seed in range(20):
        result = Simulator(AltruisticPolicy(), seed=seed).run(items, init)
        assert set(result.committed) == {"T1", "T2"}
        assert is_serializable(result.schedule)
        assert check_altruistic_schedule(result.schedule) == []
        if not shown and seed == 0:
            print(render_schedule(result.schedule, ["T1", "T2"]))
            shown = True
    print("\n20/20 runs: serializable, AL1-AL3 clean  (Theorem 3)")


def test_fig4_run_serializable():
    """One Fig. 4 altruistic run (seed 3) is serializable."""
    items = [
        WorkloadItem("T1", [Access(1), Access(2), Access(3)]),
        WorkloadItem("T2", [Access(1), Access(2), Access(4)]),
    ]
    init = StructuralState.of(1, 2, 3, 4)
    result = Simulator(AltruisticPolicy(), seed=3).run(items, init)
    assert is_serializable(result.schedule)
