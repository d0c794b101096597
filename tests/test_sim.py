"""Tests for the concurrency simulator substrate."""

from functools import partial

import pytest

from repro.core import LockMode, StructuralState, is_serializable
from repro.exceptions import SimulationError
from repro.policies import Access, FreeForAllPolicy, TwoPhasePolicy
from repro.sim import (
    LockTable,
    Simulator,
    WorkloadItem,
    format_table,
    grid_factory,
    long_transaction_workload,
    run_cell,
)


class TestLockTable:
    def test_acquire_release(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        assert t.mode_held("T1", "a") is LockMode.EXCLUSIVE
        assert t.blockers("T2", "a", LockMode.EXCLUSIVE) == ["T1"]
        assert not t.grantable("T2", "a", LockMode.SHARED)
        t.release("T1", "a", LockMode.EXCLUSIVE)
        assert t.grantable("T2", "a", LockMode.EXCLUSIVE)

    def test_shared_sharing(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        assert t.grantable("T2", "a", LockMode.SHARED)
        t.acquire("T2", "a", LockMode.SHARED)
        assert not t.grantable("T3", "a", LockMode.EXCLUSIVE)

    def test_acquire_conflicting_raises(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        with pytest.raises(RuntimeError):
            t.acquire("T2", "a", LockMode.EXCLUSIVE)

    def test_release_all(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.acquire("T1", "b", LockMode.EXCLUSIVE)
        released = dict(t.release_all_wake("T1")[0])
        assert set(released) == {"a", "b"}
        assert t.held_by("T1") == {}

    def test_self_regrant_is_noop_conflictwise(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        assert t.grantable("T1", "a", LockMode.EXCLUSIVE)  # self upgrade ok


class TestSimulator:
    def test_deterministic_given_seed(self):
        items, init = long_transaction_workload(5, 2, seed=3)
        r1 = Simulator(TwoPhasePolicy(), seed=3).run(items, init)
        r2 = Simulator(TwoPhasePolicy(), seed=3).run(items, init)
        assert r1.schedule.events == r2.schedule.events

    def test_different_seeds_interleave_differently(self):
        items, init = long_transaction_workload(5, 2, seed=3)
        runs = {
            Simulator(TwoPhasePolicy(), seed=s).run(items, init).schedule.events
            for s in range(6)
        }
        assert len(runs) > 1

    def test_schedules_are_validated(self):
        items, init = long_transaction_workload(4, 2, seed=0)
        result = Simulator(TwoPhasePolicy(), seed=0).run(items, init)
        assert result.schedule.is_legal()
        assert result.schedule.is_proper(init)
        assert result.schedule.is_complete

    def test_metrics_basics(self):
        items, init = long_transaction_workload(5, 2, seed=1)
        result = Simulator(TwoPhasePolicy(), seed=1).run(items, init)
        m = result.metrics
        assert m.committed == 3
        assert m.events_executed == len(result.schedule)
        assert m.ticks >= m.events_executed
        assert 0 < m.mean_active <= 3
        assert m.throughput > 0
        for record in m.records.values():
            assert record.committed and record.latency is not None

    def test_max_ticks_guard(self):
        items, init = long_transaction_workload(6, 3, seed=1)
        with pytest.raises(SimulationError, match="ticks"):
            Simulator(TwoPhasePolicy(), seed=1, max_ticks=3).run(items, init)

    def test_single_transaction_run(self):
        items = [WorkloadItem("T1", [Access("a")])]
        result = Simulator(TwoPhasePolicy(), seed=0).run(
            items, StructuralState.of("a")
        )
        assert result.committed == ("T1",)
        assert len(result.schedule) == 4  # LX, R, W, UX


class TestRunner:
    def test_run_cell_aggregates(self):
        factory = partial(
            grid_factory("long_transaction"), num_entities=5, num_short=2,
        )
        cell = run_cell(TwoPhasePolicy(), "long", factory, seeds=range(4))
        assert cell.runs == 4 and cell.failures == 0
        assert cell.all_serializable
        assert cell.means["committed"] == 3.0
        row = cell.row()
        assert row["policy"] == "2PL" and row["workload"] == "long"

    def test_run_cell_detects_nonserializable_policies(self):
        def factory(seed):
            items = [
                WorkloadItem("T1", [Access("a"), Access("b")]),
                WorkloadItem("T2", [Access("b"), Access("a")]),
            ]
            return items, StructuralState.of("a", "b"), {}

        cell = run_cell(FreeForAllPolicy(), "race", factory, seeds=range(30))
        assert not cell.all_serializable

    def test_format_table(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}]
        text = format_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].split("|")[0].strip() == "a"
