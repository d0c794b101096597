"""Tests for the policy verifier."""

from functools import partial

from repro.core import StructuralState
from repro.policies import (
    Access,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    FreeForAllPolicy,
    TwoPhasePolicy,
    check_altruistic_schedule,
)
from repro.sim import WorkloadItem, grid_factory
from repro.verify import verify_policy, verify_system

_long_factory = partial(
    grid_factory("long_transaction"), num_entities=6, num_short=2,
)


def _race_factory(seed):
    items = [
        WorkloadItem("T1", [Access("a"), Access("b")]),
        WorkloadItem("T2", [Access("b"), Access("a")]),
    ]
    return items, StructuralState.of("a", "b"), {}


class TestVerifyPolicy:
    def test_safe_policy_passes(self):
        report = verify_policy(TwoPhasePolicy(), _long_factory, seeds=range(5))
        assert report.ok
        assert report.runs == 5
        assert "SAFE" in report.summary()

    def test_altruistic_with_auditor(self):
        report = verify_policy(
            AltruisticPolicy(),
            _long_factory,
            seeds=range(5),
            auditors=[lambda r: check_altruistic_schedule(r.schedule)],
        )
        assert report.ok

    def test_unsafe_policy_fails_with_witness(self):
        report = verify_policy(
            FreeForAllPolicy(), _race_factory, seeds=range(40)
        )
        assert not report.ok
        assert report.counterexample is not None
        assert report.witness is not None
        assert report.witness.is_valid(StructuralState.of("a", "b"))
        assert "UNSAFE" in report.summary()

    def test_broken_altruistic_fails(self):
        def factory(seed):
            items = [
                WorkloadItem("LONG", [Access("a"), Access("b"), Access("c")]),
                WorkloadItem("S", [Access("c"), Access("a")]),
            ]
            return items, StructuralState.of("a", "b", "c"), {}

        report = verify_policy(BrokenAltruisticPolicy(), factory, seeds=range(60))
        assert not report.ok

    def test_continue_after_failure_counts_everything(self):
        report = verify_policy(
            FreeForAllPolicy(),
            _race_factory,
            seeds=range(25),
            stop_at_first_failure=False,
        )
        assert report.runs == 25


class TestVerifySystem:
    def test_exact_check(self, simple_locked_pair, nontwophase_pair):
        assert verify_system(simple_locked_pair).safe
        verdict = verify_system(nontwophase_pair, StructuralState.of("a", "b"))
        assert not verdict.safe and verdict.agree
