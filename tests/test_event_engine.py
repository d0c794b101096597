"""Equivalence of the event-driven scheduler against the naive reference.

The naive engine (re-classify every live session every tick) is the
executable specification; the event-driven engine must reproduce its
behaviour *exactly* on the same seed — identical schedules, identical
commit/abort outcomes, identical metric summaries and per-transaction
records — while performing strictly less classification work on
blocking-heavy workloads.
"""

import pytest

from repro.core import LockMode, StructuralState
from repro.exceptions import SimulationError
from repro.graphs import random_rooted_dag
from repro.policies import (
    Access,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    DdagPolicy,
    DtrPolicy,
    FreeForAllPolicy,
    TwoPhasePolicy,
)
from repro.sim import (
    LockTable,
    Simulator,
    WorkloadItem,
    deadlock_storm_workload,
    dynamic_traversal_workload,
    fig3_dag,
    fig3_workload,
    long_transaction_workload,
    random_access_workload,
    stress_workload,
    traversal_workload,
)

SEEDS = range(4)


def both_engines(policy_factory, items, initial, seed, context_kwargs=None):
    """Run the same workload under both engines; each gets a fresh policy
    object and RNG so the seed streams are independent and identical."""
    out = {}
    for engine in ("naive", "event"):
        sim = Simulator(
            policy_factory(),
            seed=seed,
            engine=engine,
            context_kwargs=dict(context_kwargs or {}),
        )
        try:
            out[engine] = ("ok", sim.run(items, initial, validate=False))
        except SimulationError as exc:
            out[engine] = ("error", str(exc))
    return out["naive"], out["event"]


def assert_equivalent(policy_factory, workload_factory, context_kwargs_factory=None,
                      seeds=SEEDS):
    for seed in seeds:
        items, initial = workload_factory(seed)
        kwargs = context_kwargs_factory(seed) if context_kwargs_factory else {}
        (nk, naive), (ek, event) = both_engines(
            policy_factory, items, initial, seed, kwargs
        )
        assert nk == ek, f"seed {seed}: outcomes diverge ({nk} vs {ek})"
        if nk == "error":
            assert naive == event, f"seed {seed}: error messages diverge"
            continue
        assert naive.schedule.events == event.schedule.events, (
            f"seed {seed}: schedules diverge"
        )
        assert naive.committed == event.committed
        assert naive.aborted == event.aborted
        assert naive.metrics.summary() == event.metrics.summary(), (
            f"seed {seed}: metric summaries diverge"
        )
        assert naive.metrics.deadlock_victims == event.metrics.deadlock_victims, (
            f"seed {seed}: deadlock victim sequences diverge"
        )
        for name, rn in naive.metrics.records.items():
            re_ = event.metrics.records[name]
            assert (
                rn.start_tick, rn.end_tick, rn.committed, rn.restarts,
                rn.steps_executed, rn.blocked_ticks,
            ) == (
                re_.start_tick, re_.end_tick, re_.committed, re_.restarts,
                re_.steps_executed, re_.blocked_ticks,
            ), f"seed {seed}: record for {name} diverges"


class TestEquivalence:
    def test_two_phase_long_transactions(self):
        assert_equivalent(
            TwoPhasePolicy,
            lambda s: long_transaction_workload(8, 4, seed=s, short_start=10),
        )

    def test_two_phase_shared_locks(self):
        assert_equivalent(
            lambda: TwoPhasePolicy(use_shared_locks=True),
            lambda s: random_access_workload(6, 5, seed=s),
        )

    def test_two_phase_conservative(self):
        assert_equivalent(
            lambda: TwoPhasePolicy(conservative=True),
            lambda s: random_access_workload(5, 5, seed=s),
        )

    def test_two_phase_deadlock_heavy(self):
        # Unordered access sets on a tiny hot entity space: deadlock cycles
        # and victim aborts every few ticks, exercising the full-revalidation
        # path and restart bookkeeping.
        assert_equivalent(
            TwoPhasePolicy,
            lambda s: random_access_workload(4, 6, accesses_per_txn=3, seed=s),
            seeds=range(8),
        )

    def test_altruistic_long_transactions(self):
        assert_equivalent(
            AltruisticPolicy,
            lambda s: long_transaction_workload(
                10, 4, seed=s, region="leading", short_start=12
            ),
        )

    def test_broken_altruistic(self):
        assert_equivalent(
            BrokenAltruisticPolicy,
            lambda s: long_transaction_workload(8, 4, seed=s),
        )

    def test_dtr_random_access(self):
        assert_equivalent(
            DtrPolicy, lambda s: random_access_workload(8, 5, seed=s)
        )

    def test_free_for_all(self):
        assert_equivalent(
            FreeForAllPolicy, lambda s: random_access_workload(4, 5, seed=s)
        )

    def test_ddag_traversals(self):
        assert_equivalent(
            DdagPolicy,
            lambda s: traversal_workload(
                random_rooted_dag(8, 0.3, seed=s), 5, 4, seed=s
            ),
            lambda s: {"dag": random_rooted_dag(8, 0.3, seed=s).snapshot()},
        )

    def test_ddag_dynamic_traversals(self):
        # Structural churn: L5 aborts, replans, tombstones.
        assert_equivalent(
            DdagPolicy,
            lambda s: dynamic_traversal_workload(
                random_rooted_dag(8, 0.3, seed=s), 5, 4, seed=s
            ),
            lambda s: {"dag": random_rooted_dag(8, 0.3, seed=s).snapshot()},
        )

    def test_ddag_staggered_dynamic_traversals(self):
        # Open-system arrivals over a contended graph: blocked traversals
        # pile up with cached (dependency-declared) classifications while
        # concurrent inserts mutate the graph under them.
        assert_equivalent(
            DdagPolicy,
            lambda s: dynamic_traversal_workload(
                random_rooted_dag(15, 0.15, seed=s), 40, 3,
                insert_prob=0.4, seed=s, arrival_rate=0.4,
            ),
            lambda s: {"dag": random_rooted_dag(15, 0.15, seed=s).snapshot()},
            seeds=range(3),
        )

    def test_altruistic_contended_stress(self):
        # Overloaded arrivals on a small entity space: wake constraints,
        # policy-wait/lock-wait flips, deadlock victims, restarts — the
        # invalidation protocol's gnarliest paths.
        assert_equivalent(
            AltruisticPolicy,
            lambda s: stress_workload(
                25, 50, arrival_rate=0.3, hot_fraction=0.1, seed=s
            ),
            seeds=range(3),
        )

    def test_ddag_fig3(self):
        assert_equivalent(
            DdagPolicy,
            lambda s: fig3_workload(),
            lambda s: {"dag": fig3_dag()},
        )

    def test_stress_workload_small(self):
        assert_equivalent(
            TwoPhasePolicy,
            lambda s: stress_workload(30, 60, seed=s),
            seeds=range(2),
        )


class TestDeadlockStormEquivalence:
    """Deadlock-heavy seeded runs: most ticks go down the no-runnable path,
    so cycle detection runs on the maintained waits-for graph every few
    ticks — schedules, summaries, per-transaction records, deadlock counts
    (inside the summaries), and victim sequences must match the naive
    engine's fresh-rebuild-per-tick reference exactly."""

    def test_two_phase_storm(self):
        assert_equivalent(
            TwoPhasePolicy,
            lambda s: deadlock_storm_workload(
                40, 60, accesses_per_txn=3, arrival_rate=0.6,
                hot_set_size=5, hot_traffic=0.8, seed=s,
            ),
            seeds=range(5),
        )

    def test_two_phase_storm_shared_locks(self):
        # Shared modes are where the grantability-filtered wake-ups bite:
        # a release can weaken an entity's holder set without unblocking
        # its EXCLUSIVE waiters, whose waits-for edges must be refreshed
        # in place rather than via a (now absent) wake-up.
        assert_equivalent(
            lambda: TwoPhasePolicy(use_shared_locks=True),
            lambda s: deadlock_storm_workload(
                20, 40, accesses_per_txn=3, arrival_rate=0.8,
                hot_set_size=4, hot_traffic=0.8, seed=s,
            ),
            seeds=range(5),
        )

    def test_altruistic_storm(self):
        # Policy-wait and lock-wait edges mix in the detected cycles.
        assert_equivalent(
            AltruisticPolicy,
            lambda s: deadlock_storm_workload(
                30, 40, accesses_per_txn=2, arrival_rate=0.4,
                hot_set_size=5, hot_traffic=0.6, seed=s,
            ),
            seeds=range(4),
        )

    def test_storms_actually_storm(self):
        # The family must breed cycles, or the equivalence above is hollow.
        items, initial = deadlock_storm_workload(
            40, 60, accesses_per_txn=3, arrival_rate=0.6,
            hot_set_size=5, hot_traffic=0.8, seed=0,
        )
        result = Simulator(TwoPhasePolicy(), seed=0).run(
            items, initial, validate=False
        )
        m = result.metrics
        assert m.deadlocks > 0
        assert len(m.deadlock_victims) == m.deadlocks
        assert all(v.startswith("T") for v in m.deadlock_victims)

    def test_all_hot_traffic_with_tiny_hot_set_terminates(self):
        # hot_traffic=1.0 with fewer hot entities than accesses_per_txn
        # used to spin the distinct-pick loop forever; the target is now
        # bounded by the reachable pool.
        items, _ = deadlock_storm_workload(
            50, 5, accesses_per_txn=3, hot_set_size=2, hot_traffic=1.0,
            seed=0,
        )
        assert all(len(item.intents) == 2 for item in items)

    def test_unordered_and_hot_set_shape(self):
        items, _ = deadlock_storm_workload(
            50, 200, accesses_per_txn=3, hot_set_size=5, hot_traffic=1.0,
            arrival_rate=2.0, seed=3,
        )
        assert len(items) == 200
        assert items[-1].start_tick == int(199 / 2.0)
        # hot_traffic=1.0 confines every access to the hot set...
        hot = {f"e{i}" for i in range(5)}
        assert all(i.entity in hot for item in items for i in item.intents)
        # ...and access sets stay in draw order, not global entity order.
        assert any(
            [int(i.entity[1:]) for i in item.intents]
            != sorted(int(i.entity[1:]) for i in item.intents)
            for item in items
        )


class TestEventEngineWins:
    def test_fewer_classifications_on_blocking_workload(self):
        """The event engine must do strictly less classification work than
        the naive rescan whenever sessions sit blocked."""
        items, initial = stress_workload(60, 120, seed=1)
        results = {}
        for engine in ("naive", "event"):
            results[engine] = Simulator(
                TwoPhasePolicy(), seed=1, engine=engine
            ).run(items, initial)
        naive_m, event_m = results["naive"].metrics, results["event"].metrics
        assert results["naive"].schedule.events == results["event"].schedule.events
        assert event_m.classify_checks < naive_m.classify_checks / 5, (
            f"expected a big classification saving, got "
            f"{event_m.classify_checks} vs {naive_m.classify_checks}"
        )
        assert event_m.blocker_queries < naive_m.blocker_queries
        assert event_m.wakeups > 0

    def test_dynamic_policy_fewer_checks_via_invalidation(self):
        """Dynamic (dependency-declaring) sessions must no longer force the
        per-tick rescan: on a blocking-heavy altruistic workload the event
        engine performs a fraction of the naive engine's classification and
        admission work while reproducing it exactly."""
        items, initial = stress_workload(
            300, 120, arrival_rate=0.085, hot_fraction=0.0, seed=2
        )
        results = {}
        for engine in ("naive", "event"):
            results[engine] = Simulator(
                AltruisticPolicy(), seed=2, engine=engine
            ).run(items, initial, validate=False)
        naive_m = results["naive"].metrics
        event_m = results["event"].metrics
        assert results["naive"].schedule.events == results["event"].schedule.events
        naive_work = naive_m.classify_checks + naive_m.admission_checks
        event_work = event_m.classify_checks + event_m.admission_checks
        assert event_work * 3 < naive_work, (
            f"expected a big dynamic-policy saving, got "
            f"{event_work} vs {naive_work}"
        )

    def test_no_runnable_ticks_do_not_rescan_live(self):
        """Deadlock storms: most ticks hit the no-runnable path, which used
        to re-classify every live session as a safety net.  Searching the
        table-backed detection view, the event engine's classification work
        must stay a small fraction of the naive rescan even here."""
        items, initial = deadlock_storm_workload(
            100, 200, accesses_per_txn=2, arrival_rate=0.5,
            hot_set_size=6, hot_traffic=0.7, seed=1,
        )
        results = {}
        for engine in ("naive", "event"):
            results[engine] = Simulator(
                TwoPhasePolicy(), seed=1, engine=engine, max_ticks=500_000
            ).run(items, initial, validate=False)
        naive_m = results["naive"].metrics
        event_m = results["event"].metrics
        assert results["naive"].schedule.events == results["event"].schedule.events
        assert naive_m.deadlocks > 0, "the storm must actually deadlock"
        assert event_m.classify_checks * 5 < naive_m.classify_checks, (
            f"expected >=5x fewer classifications on a deadlock-heavy run, "
            f"got {event_m.classify_checks} vs {naive_m.classify_checks}"
        )

    def test_waits_for_indexes_drain(self):
        """After a deadlock-heavy run completes, both sides of the stored
        waits-for graph (forward edges and the reverse blocker index) must
        be empty — every block/wake/commit/abort kept them in sync."""
        from repro.sim.scheduler import _Run

        items, initial = deadlock_storm_workload(
            30, 40, accesses_per_txn=2, arrival_rate=0.5,
            hot_set_size=4, hot_traffic=0.8, seed=2,
        )
        run = _Run(Simulator(TwoPhasePolicy(), seed=2), items)
        run.execute()
        assert run.metrics.deadlocks > 0
        assert run.graph.waits_for == {}
        assert run.graph.blocked_by == {}
        # Nothing is left queued on the lock table either.
        assert all(run.table.waiting_entity(i.name) is None for i in items)

    def test_policy_wait_edges_drain(self, monkeypatch):
        """A 2PL run stores no edge (its waits are lock waits, read from
        the table at a search); an altruistic storm stores policy-wait
        edges, and every departure and re-derivation removes them."""
        from repro.sim.scheduler import _Run
        from repro.sim.waits_for import WaitsForGraph

        stored = []
        set_edges = WaitsForGraph.set_edges

        def counted(self, name, blockers):
            stored.append(name)
            return set_edges(self, name, blockers)

        monkeypatch.setattr(WaitsForGraph, "set_edges", counted)
        items, initial = deadlock_storm_workload(
            60, 60, accesses_per_txn=2, arrival_rate=0.15,
            hot_set_size=8, hot_traffic=0.45, seed=0,
        )
        run = _Run(Simulator(AltruisticPolicy(), seed=0), items)
        run.execute()
        assert run.metrics.deadlocks > 0 and stored
        assert run.graph.waits_for == {}
        assert run.graph.blocked_by == {}

    def test_arrivals_admitted_only_on_arrival_ticks(self, monkeypatch):
        """The tick loop enters admission only on a tick an arrival is
        due: busy ticks between arrivals and idle gaps make no call, and
        arrivals sharing a start tick are admitted in one call."""
        from repro.sim.scheduler import _Run

        starts = (0, 0, 3, 3, 3, 60, 61, 150)
        items = [
            WorkloadItem(f"T{i}", [Access(e) for e in "ab"[: 1 + i % 2]],
                         start_tick=t)
            for i, t in enumerate(starts)
        ]
        initial = StructuralState.of("a", "b")
        ticks = Simulator(TwoPhasePolicy(), seed=0).run(items, initial).metrics.ticks
        assert ticks > 2 * len(set(starts)), "the run must outlast its arrivals"

        calls = {True: 0, False: 0}
        admit = _Run.admit_arrivals

        def counted(run):
            calls[run.event_engine] += 1
            admit(run)

        monkeypatch.setattr(_Run, "admit_arrivals", counted)
        assert_equivalent(TwoPhasePolicy, lambda s: (items, initial), seeds=[0])
        for engine, n in calls.items():
            assert n <= len(set(starts)) + 1, (
                f"event_engine={engine}: {n} admission calls for "
                f"{len(set(starts))} arrival ticks"
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Simulator(TwoPhasePolicy(), engine="psychic")


class TestWaitQueues:
    def test_release_returns_wake_set(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T2", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T3", "a", LockMode.SHARED)
        assert list(t.queue("a")) == ["T2", "T3"]
        woken = t.release("T1", "a", LockMode.EXCLUSIVE)
        assert woken == ["T2", "T3"]

    def test_release_of_unheld_mode_wakes_nobody(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T2", "a", LockMode.EXCLUSIVE)
        assert t.release("T1", "a", LockMode.SHARED) is None

    def test_partial_upgrade_release_wakes_nobody(self):
        # Dropping the SHARED half of an upgrade leaves the EXCLUSIVE grant
        # in place: nothing a waiter could be granted on changed, so no
        # spurious wake-up (and no wasted re-classification downstream).
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T2", "a", LockMode.SHARED)
        assert t.release("T1", "a", LockMode.SHARED) is None
        # Downgrading EXCLUSIVE -> SHARED is a real weakening: wake.
        t.acquire("T1", "a", LockMode.SHARED)
        assert t.release("T1", "a", LockMode.EXCLUSIVE) == ["T2"]

    def test_still_conflicting_waiter_not_woken(self):
        # T1's departure weakens the holder set, but the EXCLUSIVE waiter
        # still conflicts with T2's SHARED hold: waking it was a pure
        # wasted re-classification.
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T2", "a", LockMode.SHARED)
        t.add_waiter("T3", "a", LockMode.EXCLUSIVE)
        assert t.release("T1", "a", LockMode.SHARED) == []
        assert t.release("T2", "a", LockMode.SHARED) == ["T3"]

    def test_downgrade_wakes_only_compatible_waiters(self):
        # EXCLUSIVE→SHARED downgrade: the SHARED waiter becomes grantable,
        # the EXCLUSIVE waiter still conflicts and stays asleep.
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T2", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T3", "a", LockMode.SHARED)
        assert t.release("T1", "a", LockMode.EXCLUSIVE) == ["T3"]

    def test_release_all_wake_filters_by_grantability(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.SHARED)
        t.acquire("T2", "a", LockMode.SHARED)
        t.acquire("T1", "b", LockMode.EXCLUSIVE)
        t.add_waiter("T3", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T4", "b", LockMode.EXCLUSIVE)
        _, woken = t.release_all_wake("T1")
        # T3 still conflicts with T2 on "a"; only T4 can actually go.
        assert woken == ["T4"]

    @pytest.mark.parametrize("held, released, weakens", [
        ((), LockMode.SHARED, False),  # nothing held
        ((LockMode.SHARED, LockMode.EXCLUSIVE), LockMode.SHARED, False),
        ((LockMode.SHARED, LockMode.EXCLUSIVE), LockMode.EXCLUSIVE, True),
        ((LockMode.SHARED,), LockMode.SHARED, True),
        ((LockMode.SHARED,), LockMode.EXCLUSIVE, False),  # not held
    ])
    def test_release_says_whether_the_hold_weakened(
        self, held, released, weakens
    ):
        # None when the hold did not weaken (the SHARED half of an
        # upgrade, or a mode not held): the caller then skips the
        # waiters' edge maintenance.  Otherwise the wake-up set, here
        # empty: nobody is queued.
        t = LockTable()
        for mode in held:
            t.acquire("T1", "a", mode)
        woken = t.release("T1", "a", released)
        assert woken == ([] if weakens else None)

    def test_waiter_modes_reports_requests(self):
        t = LockTable()
        t.add_waiter("T2", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T3", "a", LockMode.SHARED)
        assert list(t.queue("a").items()) == [
            ("T2", LockMode.EXCLUSIVE),
            ("T3", LockMode.SHARED),
        ]
        assert list(t.queue("b").items()) == []

    def test_release_all_wake_combines_entities(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.acquire("T1", "b", LockMode.EXCLUSIVE)
        t.add_waiter("T2", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T3", "b", LockMode.EXCLUSIVE)
        released, woken = t.release_all_wake("T1")
        assert {e for e, _ in released} == {"a", "b"}
        assert set(woken) == {"T2", "T3"}
        assert t.held_by("T1") == {}

    def test_release_all_clears_own_waiter_registration(self):
        t = LockTable()
        t.acquire("T1", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T1", "b", LockMode.EXCLUSIVE)
        t.release_all_wake("T1")
        assert list(t.queue("b")) == []
        assert t.waiting_entity("T1") is None

    def test_waiter_moves_between_entities(self):
        t = LockTable()
        t.add_waiter("T2", "a", LockMode.EXCLUSIVE)
        t.add_waiter("T2", "b", LockMode.EXCLUSIVE)
        assert list(t.queue("a")) == []
        assert list(t.queue("b")) == ["T2"]
        assert t.waiting_entity("T2") == "b"
        t.remove_waiter("T2")
        assert list(t.queue("b")) == []
        assert t.waiting_entity("T2") is None


class TestStressWorkload:
    def test_ordered_and_arrivals(self):
        items, initial = stress_workload(50, 40, arrival_rate=2.0, seed=3)
        assert len(items) == 40
        # Arrivals are staggered at roughly the requested rate.
        assert items[-1].start_tick == int(39 / 2.0)
        # Ordered access sets: each transaction locks in global entity order.
        for item in items:
            ids = [int(i.entity[1:]) for i in item.intents]
            assert ids == sorted(ids)

    def test_unordered_variant(self):
        items, _ = stress_workload(50, 200, ordered=False, seed=3)
        assert any(
            [int(i.entity[1:]) for i in item.intents]
            != sorted(int(i.entity[1:]) for i in item.intents)
            for item in items
        )

    def test_completes_under_event_engine(self):
        items, initial = stress_workload(80, 150, seed=0)
        result = Simulator(TwoPhasePolicy(), seed=0).run(items, initial)
        assert result.metrics.committed == 150
        assert result.ok
