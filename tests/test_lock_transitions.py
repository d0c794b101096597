"""Lock events that carry their verdict.

A release's wake-up set and an acquire's conflicting watchers are
classified by the lock event itself (``Classifier.wake`` /
``Classifier.acquired``) instead of being marked dirty and re-derived on
the next tick.  Three contracts:

1. **Coherence oracle.**  At every event-engine tick, right before the
   phase-3 draw or the deadlock phase, every live session that is neither
   dirty nor dynamic (nor a drained script waiting to commit) has a cached
   state a fresh ``derive`` agrees with: same kind, same entity, same
   waits-for edges, same queue entry, same watch — for every registered
   grid factory under every policy that accepts it, with the run itself
   byte-identical to the naive engine's (schedule, summary, victims,
   per-transaction records).
2. **Accrual.**  A woken waiter is credited blocked ticks through the last
   tick the naive engine observed it: ``t - 1`` for a wake in phase 1 (a
   commit), ``t`` for a wake in phase 3 (a release); a watcher blocked in
   phase 3 starts accruing at ``t + 1``.
3. **Block transition.**  An acquire blocks exactly the watchers whose
   wanted mode conflicts with the holder's new effective mode — an S
   acquire leaves an S watcher alone, an X acquire or an S→X upgrade
   blocks it — and queues them in sorted name order, the order the dirty
   route's sorted classify walk queued them in.
"""

import pytest

from repro.core import LockMode, Operation, Step
from repro.exceptions import PolicyViolation, SimulationError
from repro.policies import (
    AltruisticPolicy,
    DdagPolicy,
    DtrPolicy,
    TwoPhasePolicy,
)
from repro.policies.base import LockingPolicy, PolicyContext, ScriptedSession
from repro.sim import Simulator, grid_factory
from repro.sim.admission import LOCK_WAIT, RUNNABLE
from repro.sim.scheduler import WorkloadItem, _Run
from test_runnable_index import FACTORY_CELLS

POLICIES = (TwoPhasePolicy, DdagPolicy, DtrPolicy, AltruisticPolicy)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


def assert_coherent(run) -> int:
    """Fresh ``derive`` == cached state for every live session that is
    neither dirty, dynamic nor complete; returns how many were checked."""
    cache, table = run.cache, run.table
    checked = 0
    for name, entry in run.live.items():
        if name in cache.dirty or name in cache.dynamic or name in cache.complete:
            continue
        d = run.classifier.derive(entry)
        where = f"tick {run.metrics.ticks}, {name}"
        assert entry.state == d.kind, f"{where}: cached {entry.state}, derived {d.kind}"
        assert run.graph.waits_for.get(name, set()) == (d.edges or set()), (
            f"{where}: edges {run.graph.waits_for.get(name)} != {d.edges}"
        )
        queued = table.waiting_entity(name)
        if d.kind == LOCK_WAIT:
            assert queued == d.entity, f"{where}: queued on {queued!r}"
            assert dict(table.waiter_modes(queued))[name] == d.mode, where
        else:
            assert queued is None, f"{where}: still queued on {queued!r}"
        assert entry.watch_entity == (d.entity if d.watch else None), (
            f"{where}: watching {entry.watch_entity!r}"
        )
        if d.watch:
            assert name in cache.watchers.get(d.entity, ()), where
        assert (name in cache.runnable) == (d.kind == RUNNABLE), where
        checked += 1
    return checked


@pytest.fixture
def coherence_checked(monkeypatch):
    """Run :func:`assert_coherent` before every phase-3 draw and every
    deadlock phase; returns the number of sessions checked."""
    count = {"sessions": 0}
    execute, deadlock = _Run._phase_execute, _Run._phase_deadlock

    def checked_execute(run):
        count["sessions"] += assert_coherent(run)
        execute(run)

    def checked_deadlock(run):
        count["sessions"] += assert_coherent(run)
        deadlock(run)

    monkeypatch.setattr(_Run, "_phase_execute", checked_execute)
    monkeypatch.setattr(_Run, "_phase_deadlock", checked_deadlock)
    return count


def _record(r):
    return (r.start_tick, r.end_tick, r.committed, r.restarts,
            r.steps_executed, r.blocked_ticks)


def assert_engines_agree(naive, event):
    assert naive.schedule.events == event.schedule.events
    assert naive.metrics.summary() == event.metrics.summary()
    assert naive.metrics.deadlock_victims == event.metrics.deadlock_victims
    assert {t: _record(r) for t, r in naive.metrics.records.items()} == {
        t: _record(r) for t, r in event.metrics.records.items()
    }


class TestCoherenceOracle:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("factory", sorted(FACTORY_CELLS))
    def test_cached_state_matches_a_fresh_derivation(
        self, factory, policy, coherence_checked
    ):
        moved = 0
        for seed in range(3):
            results = {}
            for engine in ("naive", "event"):
                items, initial, context_kwargs = grid_factory(factory)(
                    seed, **FACTORY_CELLS[factory][1]
                )
                if policy is DdagPolicy and "dag" not in context_kwargs:
                    pytest.skip("DDAG runs only workloads that carry a DAG")
                sim = Simulator(
                    policy(), seed=seed, engine=engine,
                    context_kwargs=context_kwargs,
                )
                try:
                    results[engine] = sim.run(items, initial, validate=False)
                except SimulationError:
                    results[engine] = None  # coherent on every tick up to it
                except PolicyViolation as exc:
                    pytest.skip(f"the policy refuses this workload's intents: {exc}")
            if results["event"] is None or results["naive"] is None:
                assert results["event"] is results["naive"], (
                    "only one engine raised SimulationError"
                )
                continue
            assert_engines_agree(results["naive"], results["event"])
            moved += results["event"].metrics.lock_transitions
        assert coherence_checked["sessions"] > 0
        if policy is TwoPhasePolicy and factory in ("deadlock_storm", "stress"):
            assert moved > 0, "the contended 2PL cells must move sessions in place"


# ----------------------------------------------------------------------
# Directed cases over hand-written scripts
# ----------------------------------------------------------------------


def lx(e):
    return Step(Operation.LOCK_EXCLUSIVE, e)


def ls(e):
    return Step(Operation.LOCK_SHARED, e)


def ux(e):
    return Step(Operation.UNLOCK_EXCLUSIVE, e)


def r(e):
    return Step(Operation.READ, e)


def w(e):
    return Step(Operation.WRITE, e)


class _ScriptContext(PolicyContext):
    """Each transaction's intents are its steps, played as written (commit
    releases whatever is still held)."""

    def begin(self, name, intents):
        return ScriptedSession(name, intents)


class ScriptPolicy(LockingPolicy):
    name = "scripted"
    modes = (LockMode.EXCLUSIVE, LockMode.SHARED)

    def create_context(self, **kwargs):
        return _ScriptContext()


def items_of(scripts):
    """``{name: (start_tick, steps)}`` -> workload items."""
    return [
        WorkloadItem(name, steps, start_tick=start)
        for name, (start, steps) in scripts.items()
    ]


def run_both(scripts):
    """Run a forced schedule (one runnable session per tick) on both
    engines; returns the event engine's result after checking they agree."""
    naive = Simulator(ScriptPolicy(), engine="naive").run(
        items_of(scripts), validate=False
    )
    event = Simulator(ScriptPolicy()).run(items_of(scripts), validate=False)
    assert_engines_agree(naive, event)
    return event


def manual_run(scripts):
    """A run admitted at tick 0 whose ticks :func:`tick` drives by hand."""
    run = _Run(Simulator(ScriptPolicy()), items_of(
        {name: (0, steps) for name, steps in scripts.items()}
    ))
    run.admit_arrivals()
    return run


def tick(run, execute):
    """One event-engine tick in which ``execute`` takes the phase-3 step
    (in place of the seeded draw); checks coherence before and after."""
    run.metrics.ticks += 1
    run.admit_arrivals()
    assert run._phase_commit()
    assert not run._phase_classify()
    assert execute in run.cache.runnable
    assert_coherent(run)
    run._execute_step(run.live[execute])
    # The executor itself is dirty now; everyone else must be coherent.
    assert_coherent(run)


class TestWakeAccrual:
    def test_phase1_commit_wake_accrues_through_the_previous_tick(self):
        # t1: H locks a.  t2: P arrives and blocks (observed blocked at t2);
        # H writes a and drains.  t3: H commits in phase 1 and wakes P,
        # which the naive engine sees runnable at t3's classification.
        result = run_both({
            "H": (1, [lx("a"), w("a")]),
            "P": (2, [lx("a"), w("a")]),
        })
        m = result.metrics
        assert m.records["P"].blocked_ticks == 1
        assert m.wakeups == 1 and m.lock_transitions == 1

    def test_phase3_release_wake_accrues_through_the_current_tick(self):
        # t1: H locks a.  t2: P arrives and blocks; H writes a.  t3: P is
        # still blocked at classification; H unlocks a and wakes P.
        result = run_both({
            "H": (1, [lx("a"), w("a"), ux("a")]),
            "P": (2, [lx("a"), w("a")]),
        })
        m = result.metrics
        assert m.records["P"].blocked_ticks == 2
        assert m.wakeups == 1 and m.lock_transitions == 1

    def test_a_watcher_blocked_in_phase3_accrues_from_the_next_tick(self):
        # t1: both runnable; H locks a and blocks W in place.  t2: W is
        # blocked at classification; H writes a.  t3: H commits, waking W.
        run = manual_run({"H": [lx("a"), w("a")], "W": [lx("a"), w("a")]})
        tick(run, "H")
        entry = run.live["W"]
        assert entry.state == LOCK_WAIT and entry.accrued_to == 1
        assert entry.record.blocked_ticks == 0
        tick(run, "H")
        tick(run, "W")  # H committed in phase 1; W woke through tick 2
        assert entry.record.blocked_ticks == 1
        assert run.metrics.lock_transitions == 2


class TestBlockTransition:
    def test_s_acquire_leaves_an_s_watcher_alone(self):
        run = manual_run({"H": [ls("a"), r("a")], "S": [ls("a"), r("a")]})
        tick(run, "H")
        entry = run.live["S"]
        assert entry.state == RUNNABLE and entry.watch_entity == "a"
        assert "S" in run.cache.runnable and "S" not in run.cache.dirty
        assert run.table.waiting_entity("S") is None
        assert run.metrics.lock_transitions == 0

    def test_x_acquire_blocks_an_s_watcher_in_place(self):
        run = manual_run({"H": [lx("a"), w("a")], "S": [ls("a"), r("a")]})
        checks, queries = run.metrics.classify_checks, run.metrics.blocker_queries
        tick(run, "H")
        entry = run.live["S"]
        assert entry.state == LOCK_WAIT and entry.watch_entity is None
        assert "S" not in run.cache.runnable and "S" not in run.cache.dirty
        assert run.graph.waits_for["S"] == {"H"}
        assert run.table.waiter_modes("a") == [("S", LockMode.SHARED)]
        assert run.metrics.lock_transitions == 1
        # Tick 1 classified H and S; the block query is counted too.
        assert run.metrics.classify_checks == checks + 2
        assert run.metrics.blocker_queries == queries + 3

    def test_s_to_x_upgrade_blocks_an_s_watcher(self):
        run = manual_run({
            "H": [ls("a"), r("a"), lx("a"), w("a")],
            "S": [ls("a"), r("a")],
        })
        tick(run, "H")  # S acquire: S keeps watching
        tick(run, "H")
        assert run.live["S"].state == RUNNABLE
        tick(run, "H")  # the upgrade: H's effective mode is X now
        entry = run.live["S"]
        assert entry.state == LOCK_WAIT
        assert run.graph.waits_for["S"] == {"H"}
        assert run.metrics.lock_transitions == 1

    def test_blocked_watchers_queue_in_sorted_name_order(self):
        names = [f"T{i:02d}" for i in range(12)]
        scripts = {"H": [lx("a"), w("a")]}
        for i, name in enumerate(names):
            scripts[name] = [ls("a"), r("a")] if i % 2 else [lx("a"), w("a")]
        run = manual_run(scripts)
        tick(run, "H")
        assert run.table.waiters_of("a") == names
        assert run.metrics.lock_transitions == len(names)


class TestWakeRouting:
    def test_wake_routes_by_scope_and_counts_each_waiter_once(self):
        run = manual_run({
            "H": [lx("a"), w("a")],
            "P": [lx("a"), w("a")],
            "Q": [lx("a"), w("a")],
        })
        tick(run, "H")  # P and Q block in place
        # Stand-in for a session whose verdict needs the policy: it must
        # take the dirty route rather than move in place.
        run.live["Q"].needs_admission = True
        m = run.metrics
        moved = m.lock_transitions
        run.classifier.wake(["P", "Q", "GONE"])
        assert m.wakeups == 2
        assert m.lock_transitions == moved + 1
        assert run.live["P"].state == RUNNABLE and "P" not in run.cache.dirty
        assert run.live["P"].watch_entity == "a"
        assert run.table.waiting_entity("P") is None and "P" not in run.graph.waits_for
        assert "Q" in run.cache.dirty
        run.classifier.wake(["Q"])  # already dirty: not counted again
        assert m.wakeups == 2
