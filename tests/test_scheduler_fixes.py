"""Regression tests for the scheduler/lock-table correctness sweep:

1. a policy that commits while holding locks no longer leaks them (later
   sessions used to livelock with a SimulationError);
2. restart accounting counts only actual restarts, not drops;
3. lock upgrades (SHARED then EXCLUSIVE) keep coherent release semantics;
4. ``run_cell`` cannot report an all-failed cell as serializable;
5. an arrival behind an idle gap admits at its requested ``start_tick``
   (the clock used to jump to the start tick and *then* increment);
6. ``find_cycle`` survives wait chains deeper than Python's recursion
   limit (it used to be a recursive DFS);
7. aborts erase a transaction's events through the per-transaction index
   (tombstones) rather than rebuilding the whole log;
8. the idle-gap jump respects ``max_ticks`` (a far-future ``start_tick``
   used to jump the clock past the cap and admit/execute anyway);
9. ``active_integral`` counts a transaction from its admission tick, so
   ``mean_active`` no longer undercounts staggered arrivals;
10. ``CellResult.row()`` surfaces the computed standard deviations and
    huge live populations are truncated in ``SimulationError`` messages;

plus direct unit coverage of the deadlock machinery
(``find_cycle`` / ``pick_victim``) and the livelock error path.
"""

from functools import partial

import pytest

from repro.core import LockMode, Operation, Step, StructuralState
from repro.core.schedules import Event
from repro.exceptions import PolicyViolation, SimulationError
from repro.kernel.lifecycle import MAX_RESTARTS
from repro.policies import Access, TwoPhasePolicy
from repro.policies.base import (
    Admission,
    AdmissionResult,
    LockingPolicy,
    PolicyContext,
    PolicySession,
    ScriptedSession,
    access_steps,
)
from repro.sim import (
    LockTable,
    Simulator,
    WorkloadItem,
    grid_factory,
    run_cell,
)
from repro.sim.deadlock import find_cycle, pick_victim
from repro.sim.event_log import EventLog
from repro.sim.live import LiveEntry
from repro.sim.metrics import TxnRecord
from repro.sim.scheduler import _Run, _assemble


ENGINES = ("event", "naive")


# ----------------------------------------------------------------------
# Test policies
# ----------------------------------------------------------------------


class _LeakyContext(PolicyContext):
    """Sessions lock and access but never unlock: they commit while holding
    their whole footprint."""

    def begin(self, name, intents):
        steps = []
        for intent in intents:
            assert isinstance(intent, Access)
            steps.append(Step(Operation.LOCK_EXCLUSIVE, intent.entity))
            steps.extend(access_steps(intent.entity))
        return ScriptedSession(name, steps)


class LeakyPolicy(LockingPolicy):
    name = "Leaky"

    def create_context(self, **kwargs):
        return _LeakyContext()


class _AbortingSession(PolicySession):
    """Admission always says ABORT; the pending step never executes."""

    dynamic = True

    def peek(self):
        return Step(Operation.LOCK_EXCLUSIVE, "a")

    def executed(self):
        raise AssertionError("an always-aborting session must never run")

    def admission(self):
        return AdmissionResult(Admission.ABORT, reason="always aborts")


class _LyingAbortingSession(_AbortingSession):
    """Claims to be static while overriding admission(): the scheduler must
    treat it as dynamic anyway (the flag only covers the default PROCEED)."""

    dynamic = False


class _AbortingContext(PolicyContext):
    def __init__(self, begins_allowed):
        self.begins_allowed = begins_allowed
        self.begins = 0

    def begin(self, name, intents):
        self.begins += 1
        if self.begins > self.begins_allowed:
            raise PolicyViolation("TEST", "no more begins")
        return self.session_cls(name)


class AbortingPolicy(LockingPolicy):
    name = "AlwaysAbort"
    session_cls = _AbortingSession

    def create_context(self, begins_allowed=10**9, **kwargs):
        ctx = _AbortingContext(begins_allowed)
        ctx.session_cls = self.session_cls
        return ctx


class LyingAbortingPolicy(AbortingPolicy):
    name = "AlwaysAbort-lying"
    session_cls = _LyingAbortingSession


class _WaitForeverSession(PolicySession):
    """Admission WAITs on a transaction that is not in the run: the
    waits-for graph stays acyclic and the scheduler must diagnose a
    livelock rather than spin."""

    dynamic = True

    def peek(self):
        return Step(Operation.LOCK_EXCLUSIVE, "a")

    def executed(self):
        raise AssertionError("never runs")

    def admission(self):
        return AdmissionResult(Admission.WAIT, waiting_on=("GHOST",))


class _WaitForeverContext(PolicyContext):
    def begin(self, name, intents):
        return _WaitForeverSession(name)


class WaitForeverPolicy(LockingPolicy):
    name = "WaitForever"

    def create_context(self, **kwargs):
        return _WaitForeverContext()


# ----------------------------------------------------------------------
# 1. Commit releases held locks
# ----------------------------------------------------------------------


class TestCommitReleasesLocks:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_later_session_runs_after_leaky_commit(self, engine):
        # T1 commits while holding "a"; T2 arrives afterwards and needs it.
        # Before the fix T1's lock leaked forever and T2 livelocked.
        items = [
            WorkloadItem("T1", [Access("a")]),
            WorkloadItem("T2", [Access("a")], start_tick=10),
        ]
        result = Simulator(LeakyPolicy(), seed=0, engine=engine).run(
            items, StructuralState.of("a"), validate=False
        )
        assert result.committed == ("T1", "T2")
        assert result.ok

    @pytest.mark.parametrize("engine", ENGINES)
    def test_concurrent_contenders_all_commit(self, engine):
        items = [WorkloadItem(f"T{i}", [Access("a"), Access("b")]) for i in range(4)]
        result = Simulator(LeakyPolicy(), seed=1, engine=engine).run(
            items, StructuralState.of("a", "b"), validate=False
        )
        assert result.metrics.committed == 4


# ----------------------------------------------------------------------
# 2. Restart accounting
# ----------------------------------------------------------------------


class TestRestartAccounting:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_drop_via_restart_none_counts_no_restart(self, engine):
        items = [
            WorkloadItem("T1", [Access("a")], restart=lambda n, a, c: None)
        ]
        result = Simulator(AbortingPolicy(), seed=0, engine=engine).run(
            items, StructuralState.of("a"), validate=False
        )
        assert result.aborted == ("T1",)
        m = result.metrics
        assert m.aborted == 1
        assert m.restarts == 0, "a drop is not a restart"
        assert m.records["T1"].restarts == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_drop_via_begin_refusal_counts_no_restart(self, engine):
        items = [WorkloadItem("T1", [Access("a")])]
        sim = Simulator(
            AbortingPolicy(),
            seed=0,
            engine=engine,
            context_kwargs={"begins_allowed": 1},
        )
        result = sim.run(items, StructuralState.of("a"), validate=False)
        assert result.aborted == ("T1",)
        assert result.metrics.restarts == 0
        assert result.metrics.records["T1"].restarts == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_exhausted_budget_counts_each_actual_restart(self, engine):
        items = [WorkloadItem("T1", [Access("a")])]
        sim = Simulator(AbortingPolicy(), seed=0, engine=engine)
        result = sim.run(items, StructuralState.of("a"), validate=False)
        assert result.aborted == ("T1",)
        m = result.metrics
        # Attempts 1..MAX_RESTARTS+1 abort; all but the first were actual
        # restarts.
        assert m.aborted == MAX_RESTARTS + 1
        assert m.restarts == MAX_RESTARTS
        assert m.records["T1"].restarts == MAX_RESTARTS


    @pytest.mark.parametrize("engine", ENGINES)
    def test_overridden_admission_enforced_despite_static_flag(self, engine):
        # dynamic=False only covers the default always-PROCEED admission; a
        # session that overrides admission() must still be re-checked, so
        # the ABORT verdict fires under both engines.
        items = [
            WorkloadItem("T1", [Access("a")], restart=lambda n, a, c: None)
        ]
        result = Simulator(LyingAbortingPolicy(), seed=0, engine=engine).run(
            items, StructuralState.of("a"), validate=False
        )
        assert result.aborted == ("T1",)


# ----------------------------------------------------------------------
# 3. Lock upgrades
# ----------------------------------------------------------------------


class TestLockUpgrade:
    def test_release_shared_after_upgrade_keeps_exclusive(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T1", "a", LockMode.EXCLUSIVE)  # self-upgrade
        assert t.modes_held("T1", "a") == {LockMode.SHARED, LockMode.EXCLUSIVE}
        assert t.release("T1", "a", LockMode.SHARED) is None
        # The exclusive grant must survive the shared release...
        assert t.mode_held("T1", "a") is LockMode.EXCLUSIVE
        assert t.blockers("T2", "a", LockMode.SHARED) == ["T1"]
        # ...and releasing it actually frees the entity (the old overwrite
        # semantics made the SHARED release a silent no-op and leaked the
        # exclusive lock until abort).
        t.release("T1", "a", LockMode.EXCLUSIVE)
        assert t.mode_held("T1", "a") is None
        assert t.grantable("T2", "a", LockMode.EXCLUSIVE)

    def test_release_exclusive_after_upgrade_downgrades(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.release("T1", "a", LockMode.EXCLUSIVE)
        assert t.mode_held("T1", "a") is LockMode.SHARED
        assert t.grantable("T2", "a", LockMode.SHARED)
        assert not t.grantable("T2", "a", LockMode.EXCLUSIVE)

    def test_held_by_and_release_all_report_strongest_mode(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        assert t.held_by("T1") == {"a": LockMode.EXCLUSIVE}
        assert t.release_all_wake("T1")[0] == [("a", LockMode.EXCLUSIVE)]
        assert t.locked_entities() == frozenset()


# ----------------------------------------------------------------------
# 4. run_cell zero-run reporting
# ----------------------------------------------------------------------


class TestRunCellZeroRuns:
    def test_all_failed_cell_is_not_green(self):
        def factory(seed):
            items = [
                WorkloadItem("T1", [Access("a"), Access("b")]),
                WorkloadItem("T2", [Access("b"), Access("a")]),
            ]
            return items, StructuralState.of("a", "b"), {}

        cell = run_cell(
            TwoPhasePolicy(), "doomed", factory, seeds=range(3), max_ticks=2
        )
        assert cell.runs == 0
        assert cell.failures == 3
        assert cell.means == {}
        assert cell.all_serializable is False, (
            "a cell whose every seed failed must not report serializable"
        )
        assert cell.row()["serializable"] is False


class TestRowSurfacesStdevs:
    def test_row_includes_sd_columns(self):
        factory = partial(
            grid_factory("long_transaction"), num_entities=5, num_short=2,
        )
        cell = run_cell(TwoPhasePolicy(), "long", factory, seeds=range(4))
        row = cell.row()
        for k, v in cell.stdevs.items():
            assert row[f"{k}_sd"] == round(v, 4), (
                "row() must surface the computed standard deviations"
            )
        assert any(v > 0 for v in cell.stdevs.values()), (
            "different seeds should produce some spread"
        )


# ----------------------------------------------------------------------
# Deadlock machinery units
# ----------------------------------------------------------------------


def _live_entry(name, steps_executed=0, structural=False):
    steps = [Step(Operation.INSERT if structural else Operation.READ, "x")]
    session = ScriptedSession(name, steps)
    if structural:
        session.executed()  # records the structural effect
    entry = LiveEntry(
        item=WorkloadItem(name, []),
        session=session,
        record=TxnRecord(name, start_tick=0),
    )
    entry.step_count = steps_executed
    return entry


class _RecordingLeakyContext(_LeakyContext):
    """Leaky sessions plus a record of every begin() call."""

    def __init__(self):
        self.begun = []

    def begin(self, name, intents):
        self.begun.append(name)
        return super().begin(name, intents)


class RecordingLeakyPolicy(LockingPolicy):
    name = "RecordingLeaky"

    def __init__(self):
        self.contexts = []

    def create_context(self, **kwargs):
        ctx = _RecordingLeakyContext()
        self.contexts.append(ctx)
        return ctx


class TestIdleGapRespectsMaxTicks:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_far_future_arrival_raises_before_admission(self, engine):
        # The idle-gap jump happened *after* the max_ticks guard, so a
        # far-future start_tick jumped the clock past the cap and the run
        # admitted and executed the arrival before the guard caught up.
        items = [
            WorkloadItem("T1", [Access("a")]),
            WorkloadItem("T2", [Access("a")], start_tick=10_000),
        ]
        policy = RecordingLeakyPolicy()
        sim = Simulator(policy, seed=0, engine=engine, max_ticks=100)
        with pytest.raises(SimulationError, match="exceeded 100 ticks"):
            sim.run(items, StructuralState.of("a"), validate=False)
        assert policy.contexts[0].begun == ["T1"], (
            "the guard must fire before the far-future arrival is admitted"
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_error_counts_the_items_not_yet_admitted(self, engine):
        # Two batches (three items) arrive past the cap; the two items
        # admitted before it do not count as pending.
        items = [
            WorkloadItem("T1", [Access("a")]),
            WorkloadItem("T2", [Access("a")], start_tick=2),
            WorkloadItem("T3", [Access("a")], start_tick=500),
            WorkloadItem("T4", [Access("a")], start_tick=500),
            WorkloadItem("T5", [Access("a")], start_tick=900),
        ]
        sim = Simulator(TwoPhasePolicy(), seed=0, engine=engine, max_ticks=100)
        with pytest.raises(SimulationError) as exc:
            sim.run(items, StructuralState.of("a"), validate=False)
        assert str(exc.value).endswith("still active and 3 pending")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrival_exactly_at_cap_still_runs(self, engine):
        items = [WorkloadItem("T1", [Access("a")], start_tick=95)]
        result = Simulator(
            TwoPhasePolicy(), seed=0, engine=engine, max_ticks=100
        ).run(items, StructuralState.of("a"), validate=False)
        assert result.committed == ("T1",)
        assert result.metrics.records["T1"].start_tick == 95


class TestActiveIntegralCountsAdmissionTick:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrival_counts_from_its_first_tick(self, engine):
        # T1 idles until tick 5, then is live for every remaining tick of
        # the run: the integral is exactly (ticks - 4), admission tick
        # included (it used to be invisible until tick 6).
        items = [WorkloadItem("T1", [Access("a")], start_tick=5)]
        result = Simulator(TwoPhasePolicy(), seed=0, engine=engine).run(
            items, StructuralState.of("a"), validate=False
        )
        m = result.metrics
        assert m.records["T1"].start_tick == 5
        assert m.active_integral == m.ticks - 4

    def test_engines_agree_on_mean_active_under_staggering(self):
        items = [
            WorkloadItem(f"T{i}", [Access(f"e{i % 3}")], start_tick=3 * i)
            for i in range(6)
        ]
        initial = StructuralState.of("e0", "e1", "e2")
        summaries = {
            engine: Simulator(TwoPhasePolicy(), seed=0, engine=engine)
            .run(items, initial, validate=False)
            .metrics.summary()
            for engine in ENGINES
        }
        assert summaries["event"] == summaries["naive"]
        assert summaries["event"]["mean_active"] > 0


class TestErrorMessageTruncation:
    def test_small_population_is_listed_in_full(self):
        from repro.sim.scheduler import _truncated

        assert _truncated(["T1", "T2"]) == "['T1', 'T2']"

    def test_large_population_is_truncated(self):
        from repro.sim.scheduler import _truncated

        names = [f"T{i:05d}" for i in range(5000)]
        text = _truncated(names)
        assert "+4988 more" in text
        assert len(text) < 300

    def test_max_ticks_error_mentions_counts_not_every_name(self):
        items = [
            WorkloadItem(f"T{i:04d}", [Access("a"), Access("b")])
            for i in range(200)
        ]
        with pytest.raises(SimulationError) as exc:
            Simulator(TwoPhasePolicy(), seed=0, max_ticks=3).run(
                items, StructuralState.of("a", "b"), validate=False
            )
        assert "more]" in str(exc.value)
        assert len(str(exc.value)) < 400


class TestIdleGapArrival:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_arrival_behind_idle_gap_admits_at_start_tick(self, engine):
        # T1 finishes long before T2 arrives; the clock idles, jumps, and
        # used to admit T2 at start_tick + 1.
        items = [
            WorkloadItem("T1", [Access("a")]),
            WorkloadItem("T2", [Access("a")], start_tick=50),
        ]
        result = Simulator(TwoPhasePolicy(), seed=0, engine=engine).run(
            items, StructuralState.of("a"), validate=False
        )
        assert result.committed == ("T1", "T2")
        assert result.metrics.records["T2"].start_tick == 50

    @pytest.mark.parametrize("engine", ENGINES)
    def test_idle_from_tick_zero(self, engine):
        items = [WorkloadItem("T1", [Access("a")], start_tick=10)]
        result = Simulator(TwoPhasePolicy(), seed=0, engine=engine).run(
            items, StructuralState.of("a"), validate=False
        )
        assert result.metrics.records["T1"].start_tick == 10

    @pytest.mark.parametrize("engine", ENGINES)
    def test_staggered_chain_of_idle_gaps(self, engine):
        starts = [0, 20, 45, 90]
        items = [
            WorkloadItem(f"T{i}", [Access("a")], start_tick=s)
            for i, s in enumerate(starts)
        ]
        result = Simulator(TwoPhasePolicy(), seed=1, engine=engine).run(
            items, StructuralState.of("a"), validate=False
        )
        for i, s in enumerate(starts):
            assert result.metrics.records[f"T{i}"].start_tick == s


class TestEraseIndex:
    def _run(self):
        return _Run(Simulator(TwoPhasePolicy(), seed=0), [])

    def test_erase_tombstones_only_own_events(self):
        run = self._run()
        e = [
            Event("T1", 0, Step(Operation.READ, "a")),
            Event("T2", 0, Step(Operation.READ, "b")),
            Event("T1", 1, Step(Operation.WRITE, "a")),
            Event("T2", 1, Step(Operation.WRITE, "b")),
        ]
        for ev in e:
            run.log.record(ev.txn, ev)
        run.log.erase("T1")
        assert run.events == [None, e[1], None, e[3]]
        assert "T1" not in run.log.by_txn
        assert run.log.by_txn["T2"] == [1, 3]

    def test_erase_unknown_and_repeat_are_noops(self):
        run = self._run()
        ev = Event("T1", 0, Step(Operation.READ, "a"))
        run.log.record("T1", ev)
        run.log.erase("GHOST")
        run.log.erase("T1")
        run.log.erase("T1")
        assert run.events == [None]

    def test_assemble_skips_tombstones_and_reindexes(self):
        run = self._run()
        for ev in (
            Event("T1", 0, Step(Operation.READ, "a")),
            Event("T2", 0, Step(Operation.READ, "b")),
            Event("T1", 1, Step(Operation.WRITE, "a")),
        ):
            run.log.record(ev.txn, ev)
        run.log.erase("T1")
        # A restarted T1 records fresh events after the erasure.
        run.log.record("T1", Event("T1", 0, Step(Operation.READ, "c")))
        schedule = _assemble(run.events)
        assert [(ev.txn, ev.index, ev.step) for ev in schedule.events] == [
            ("T2", 0, Step(Operation.READ, "b")),
            ("T1", 0, Step(Operation.READ, "c")),
        ]

    def test_assemble_reuses_right_indices_and_repairs_wrong_ones(self):
        def always_reallocate(events):
            counts, out = {}, []
            for ev in events:
                if ev is not None:
                    k = counts.get(ev.txn, 0)
                    out.append(Event(ev.txn, k, ev.step))
                    counts[ev.txn] = k + 1
            return out

        log = EventLog()
        first_attempt = [
            Event("T1", 0, Step(Operation.LOCK_EXCLUSIVE, "a")),
            Event("T2", 0, Step(Operation.LOCK_SHARED, "b")),
            Event("T1", 1, Step(Operation.WRITE, "a")),
            Event("T2", 1, Step(Operation.READ, "b")),
        ]
        for ev in first_attempt:
            log.record(ev.txn, ev)
        log.erase("T1")
        second_attempt = [
            Event("T1", 0, Step(Operation.LOCK_EXCLUSIVE, "c")),
            Event("T2", 2, Step(Operation.UNLOCK_SHARED, "b")),
            Event("T1", 1, Step(Operation.WRITE, "c")),
        ]
        for ev in second_attempt:
            log.record(ev.txn, ev)
        # A log whose surviving indices have a gap (T3 lost its step 0).
        raw = log.events + [Event("T3", 1, Step(Operation.READ, "d"))]

        schedule = _assemble(raw)  # Schedule.__init__ validates the indices
        assert list(schedule.events) == always_reallocate(raw)
        for name, txn in schedule.transactions.items():
            own = [ev for ev in schedule.events if ev.txn == name]
            assert [ev.index for ev in own] == list(range(len(txn.steps)))
        survivors = [ev for ev in raw[:-1] if ev is not None]
        assert all(a is b for a, b in zip(schedule.events, survivors))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_aborted_attempts_leave_no_events(self, engine):
        # Deadlock-prone pair: whoever aborts must leave only its final
        # (restarted) attempt in the schedule.
        items = [
            WorkloadItem("T1", [Access("a"), Access("b")]),
            WorkloadItem("T2", [Access("b"), Access("a")]),
        ]
        for seed in range(8):
            result = Simulator(TwoPhasePolicy(), seed=seed, engine=engine).run(
                items, StructuralState.of("a", "b")
            )
            assert result.metrics.committed == 2
            for txn in ("T1", "T2"):
                steps = result.schedule.transactions[txn].steps
                # One full clean pass: 2 locks + 2 reads + 2 writes + 2 unlocks.
                assert len(steps) == 8


class TestFindCycle:
    def test_no_cycle_returns_none(self):
        assert find_cycle({"A": {"B"}, "B": {"C"}, "C": set()}) is None

    def test_self_loop(self):
        assert find_cycle({"A": {"A"}}) == ["A"]

    def test_cycle_members_only(self):
        graph = {"A": {"B"}, "B": {"C"}, "C": {"B"}}
        cycle = find_cycle(graph)
        assert cycle is not None
        assert set(cycle) == {"B", "C"}

    def test_finds_cycle_beyond_first_component(self):
        graph = {"A": set(), "B": {"C"}, "C": {"B"}}
        assert set(find_cycle(graph)) == {"B", "C"}

    def test_deep_chain_without_cycle(self):
        # Far past the default recursion limit: the old recursive DFS blew
        # RecursionError on wait chains ≳1,000 deep.
        n = 5000
        graph = {f"T{i:05d}": {f"T{i + 1:05d}"} for i in range(n)}
        graph[f"T{n:05d}"] = set()
        assert find_cycle(graph) is None

    def test_deep_chain_ending_in_cycle(self):
        n = 5000
        graph = {f"T{i:05d}": {f"T{i + 1:05d}"} for i in range(n)}
        graph[f"T{n:05d}"] = {f"T{n - 1:05d}"}
        cycle = find_cycle(graph)
        assert cycle is not None
        assert set(cycle) == {f"T{n - 1:05d}", f"T{n:05d}"}

    def test_deep_chain_deadlock_victim_comes_from_cycle(self):
        # The full deadlock path over a deep chain: detector plus victim
        # selection must work at depths the recursive DFS could not reach.
        n = 3000
        graph = {f"T{i:05d}": {f"T{i + 1:05d}"} for i in range(n)}
        graph[f"T{n:05d}"] = {f"T{n - 1:05d}"}
        live = {
            name: _live_entry(name, steps_executed=i)
            for i, name in enumerate(graph)
        }
        live[f"T{n:05d}"] = _live_entry(f"T{n:05d}", steps_executed=0)
        assert pick_victim(find_cycle(graph), live) == f"T{n:05d}"


class TestPickDeadlockVictim:
    def test_no_cycle_is_livelock(self):
        assert find_cycle({"A": {"B"}}) is None

    def test_prefers_fewest_steps(self):
        live = {
            "A": _live_entry("A", steps_executed=5),
            "B": _live_entry("B", steps_executed=2),
        }
        graph = {"A": {"B"}, "B": {"A"}}
        assert pick_victim(find_cycle(graph), live) == "B"

    def test_prefers_no_structural_effects_over_fewer_steps(self):
        live = {
            "A": _live_entry("A", steps_executed=1, structural=True),
            "B": _live_entry("B", steps_executed=9),
        }
        graph = {"A": {"B"}, "B": {"A"}}
        assert pick_victim(find_cycle(graph), live) == "B"

    def test_name_breaks_ties(self):
        live = {n: _live_entry(n, steps_executed=3) for n in "BA"}
        graph = {"A": {"B"}, "B": {"A"}}
        assert pick_victim(find_cycle(graph), live) == "A"

    def test_victim_outside_cycle_never_picked(self):
        # D waits into the cycle but is not on it; the victim must come
        # from the cycle itself.
        live = {n: _live_entry(n) for n in "ABD"}
        live["D"].step_count = 0
        graph = {"A": {"B"}, "B": {"A"}, "D": {"A"}}
        assert pick_victim(find_cycle(graph), live) in {"A", "B"}


class TestLivelockDiagnosis:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_acyclic_wait_reports_livelock(self, engine):
        items = [WorkloadItem("T1", [Access("a")])]
        with pytest.raises(SimulationError, match="livelock"):
            Simulator(WaitForeverPolicy(), seed=0, engine=engine).run(
                items, StructuralState.of("a"), validate=False
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadlock_is_resolved_not_livelock(self, engine):
        # Two 2PL transactions locking in opposite orders will eventually
        # deadlock on some seed; the detector must abort a victim and finish.
        items = [
            WorkloadItem("T1", [Access("a"), Access("b")]),
            WorkloadItem("T2", [Access("b"), Access("a")]),
        ]
        saw_deadlock = False
        for seed in range(12):
            result = Simulator(TwoPhasePolicy(), seed=seed, engine=engine).run(
                items, StructuralState.of("a", "b")
            )
            assert result.metrics.committed == 2
            saw_deadlock |= result.metrics.deadlocks > 0
        assert saw_deadlock, "expected at least one seed to deadlock"
