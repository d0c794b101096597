"""Theorems 2, 3, 4 — the three policies are safe; broken variants are not.

Paper: the DDAG policy (Thm 2), altruistic locking (Thm 3), and the dynamic
tree policy (Thm 4) are safe — every legal and proper schedule they admit is
serializable.

Measured: the dynamic verifier finds zero nonserializable schedules for the
real policies across seeded workloads (with the rule auditors also clean),
while the negative controls (L5 removed, AL2 removed, free-for-all locking)
are flagged unsafe, with canonical witnesses extracted for the
counterexamples via Theorem 1's Only-If construction.
"""

from functools import partial

from conftest import banner

from repro.core import StructuralState
from repro.policies import (
    Access,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    BrokenDdagPolicy,
    DdagPolicy,
    DtrPolicy,
    FreeForAllPolicy,
    Unlock,
    check_altruistic_schedule,
)
from repro.sim import WorkloadItem, dag_structural_state, grid_factory
from repro.verify import verify_policy

SEEDS = range(12)

_ddag_factory = partial(
    grid_factory("dynamic_traversal"),
    nodes=8, edge_prob=0.3, num_txns=4, walk_length=3, insert_prob=0.5,
)


def test_theorem2_ddag_safe():
    banner("Theorem 2 — DDAG policy: dynamic traversal workloads")
    report = verify_policy(DdagPolicy(), _ddag_factory, SEEDS)
    print(report.summary())
    assert report.ok


def test_theorem3_altruistic_safe():
    banner("Theorem 3 — altruistic locking: long-transaction workloads")
    report = verify_policy(
        AltruisticPolicy(),
        partial(grid_factory("long_transaction"), num_entities=8, num_short=3),
        SEEDS,
        auditors=[lambda r: check_altruistic_schedule(r.schedule)],
    )
    print(report.summary())
    assert report.ok


def test_theorem4_dtr_safe():
    banner("Theorem 4 — dynamic tree policy: random access-set workloads")
    report = verify_policy(
        DtrPolicy(),
        partial(
            grid_factory("random_access"),
            num_entities=6, num_txns=5, accesses_per_txn=3,
        ),
        SEEDS,
    )
    print(report.summary())
    assert report.ok


def test_controls_flagged_unsafe():
    banner("Negative controls — broken variants must fail verification")

    def race(seed):
        items = [
            WorkloadItem("T1", [Access("a"), Access("b")]),
            WorkloadItem("T2", [Access("b"), Access("a")]),
        ]
        return items, StructuralState.of("a", "b"), {}

    def al_race(seed):
        items = [
            WorkloadItem("LONG", [Access("a"), Access("b"), Access("c")]),
            WorkloadItem("S", [Access("c"), Access("a")]),
        ]
        return items, StructuralState.of("a", "b", "c"), {}

    from repro.graphs import chain

    def ddag_race(seed):
        items = [
            WorkloadItem("T1", [Access(2), Unlock(2), Access(3)]),
            WorkloadItem("T2", [Access(3), Unlock(3), Access(2)]),
        ]
        return items, dag_structural_state(chain(3)), {"dag": chain(3)}

    controls = [
        ("FreeForAll", FreeForAllPolicy(), race),
        ("Altruistic-noAL2", BrokenAltruisticPolicy(), al_race),
        ("DDAG-noL5", BrokenDdagPolicy(auto_release=False), ddag_race),
    ]
    for name, policy, factory in controls:
        report = verify_policy(policy, factory, range(80))
        status = "UNSAFE (counterexample found)" if not report.ok else "not flagged!"
        has_witness = report.witness is not None and report.counterexample is not None
        print(f"  {name:<18} -> {status}; canonical witness: {has_witness}")
        assert not report.ok
        assert report.counterexample is not None


def test_ddag_verification_run_passes():
    """One DDAG verification run (simulate + validate, two seeds) is clean."""
    assert verify_policy(DdagPolicy(), _ddag_factory, range(2)).ok
