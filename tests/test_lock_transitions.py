"""Events that carry their verdict.

A session whose verdict needs no policy is classified by the event that
decides it — its own step, admission or restart (``Classifier.settle``),
a release's wake-up set (``Classifier.wake``), an acquire's conflicting
watchers (``Classifier.acquired``) — instead of being marked dirty and
re-derived on the next tick.  Four contracts:

1. **Coherence oracle.**  At every event-engine tick, right before the
   phase-3 draw or the deadlock phase, every live session that is neither
   dirty nor dynamic (nor a drained script waiting to commit) has a cached
   state a fresh ``derive`` agrees with: same kind, same entity, the same
   waits-for edges in the detection view (``Classifier.view``), same
   queue entry, same watch — for every registered
   grid factory under every policy that accepts it, with the run itself
   byte-identical to the naive engine's (schedule, summary, victims,
   per-transaction records).  The hand-driven :func:`tick` checks the
   executor right after its step too.
2. **Accrual.**  A woken waiter is credited blocked ticks through the last
   tick the naive engine observed it: ``t - 1`` for a wake in phase 1 (a
   commit), ``t`` for a wake in phase 3 (a release).  A session entering
   LOCK_WAIT starts accruing right after that tick: an arrival blocked at
   admission counts its arrival tick ``t``; a watcher blocked in phase 3,
   an executor blocked by its own next step and a victim blocked at its
   re-begin start at ``t + 1``.
3. **Block transition.**  An acquire blocks exactly the runnable
   sessions queued on its entity (its watchers) whose wanted mode
   conflicts with the holder's new effective mode — an S acquire leaves
   an S watcher alone, an X acquire or an S→X upgrade blocks it — and a
   blocked watcher keeps the queue place it registered at classification:
   a pending lock is queued once, blocked or runnable, until the session
   is cleared.
4. **Herd moves.**  The runnable index is strictly sorted and holds
   exactly the RUNNABLE sessions, the stored waits-for graph holds edges
   for exactly the POLICY_WAIT sessions (a LOCK_WAIT session's are read
   from the lock table at a cycle search), and its reverse index mirrors
   its edges — before every draw and deadlock phase of the oracle's
   runs, and after every tick of contended 2PL runs.  A wake or a grant
   moves its whole herd with one runnable-index call, no per-member
   call, and no waits-for graph call at all.
5. **Post-step route.**  A DDAG or altruistic session is classified
   where it is admitted or restarted and where its own step executes: a
   step whose verdict declares no channel and proceeds is settled in
   place (RUNNABLE, indexed, unsubscribed), any other verdict is left
   dirty, and a drained or refused script waits in ``complete`` — the
   only such sessions phase 1 visits.  A refused peek is aborted in the
   next tick's phase 1, as the naive engine does, and an in-place
   verdict is the one a re-evaluation before the session's next step
   returns.  Every routing set and every subscriber is live.
"""

import pytest

from repro.core import LockMode, Operation, Step
from repro.exceptions import PolicyViolation, SimulationError
from repro.graphs import chain
from repro.kernel.lifecycle import KernelRun
from repro.policies import (
    Access,
    Admission,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    BrokenDdagPolicy,
    DdagPolicy,
    DeleteEdge,
    DtrPolicy,
    InsertEdge,
    TwoPhasePolicy,
    Unlock,
)
from repro.policies.base import LockingPolicy, PolicyContext, ScriptedSession
from repro.sim import LockTable, Simulator, grid_factory
from repro.sim.admission import (
    LOCK_WAIT,
    NEW,
    POLICY_WAIT,
    RUNNABLE,
    AdmissionCache,
    Classifier,
    OrderedNames,
)
from repro.sim.scheduler import WorkloadItem, _Run
from repro.sim.waits_for import WaitsForGraph
from test_pinned_schedules import CELLS
from test_runnable_index import FACTORY_CELLS

POLICIES = (TwoPhasePolicy, DdagPolicy, DtrPolicy, AltruisticPolicy)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


def assert_herd_invariants(run) -> None:
    """The state a batched herd move relies on and must leave behind."""
    names = run.cache.runnable.names
    where = f"tick {run.metrics.ticks}"
    assert all(a < b for a, b in zip(names, names[1:])), (
        f"{where}: runnable index not strictly sorted: {names}"
    )
    assert set(names) == {
        n for n, e in run.live.items() if e.state == RUNNABLE
    }, f"{where}: runnable index != the RUNNABLE sessions"
    stored = set(run.graph.waits_for)
    policy_waits = {n for n, e in run.live.items() if e.state == POLICY_WAIT}
    assert stored == policy_waits, (
        f"{where}: stored edges for {sorted(stored)}, "
        f"POLICY_WAIT sessions {sorted(policy_waits)}"
    )
    run.graph.check_consistency()


def assert_routes_live(run) -> None:
    """Every routing set and every subscriber is live (a departure's
    ``AdmissionCache.forget`` drops the name from each), and no session
    is both drained and dynamic."""
    cache, live = run.cache, run.live.keys()
    where = f"tick {run.metrics.ticks}"
    for route in ("dirty", "dynamic", "complete"):
        gone = getattr(cache, route) - live
        assert not gone, f"{where}: departed {sorted(gone)} in {route}"
    subscribers = set(cache.session_subs).union(*cache.channel_subs.values())
    assert subscribers <= live, (
        f"{where}: departed subscribers {sorted(subscribers - live)}"
    )
    assert not cache.complete & cache.dynamic, where


def assert_coherent(run) -> int:
    """Fresh ``derive`` == cached state for every live session that is
    neither dirty, dynamic nor complete; returns how many were checked."""
    assert_herd_invariants(run)
    assert_routes_live(run)
    cache, table = run.cache, run.table
    checked = 0
    for name, entry in run.live.items():
        if name in cache.dirty or name in cache.dynamic or name in cache.complete:
            continue
        d = run.classifier.derive(entry)
        where = f"tick {run.metrics.ticks}, {name}"
        assert entry.state == d.kind, f"{where}: cached {entry.state}, derived {d.kind}"
        edges = run.classifier.view.get(name)
        assert (edges or set()) == (d.edges or set()), (
            f"{where}: edges {edges} != {d.edges}"
        )
        queued = table.waiting_entity(name)
        if d.entity is not None:  # LOCK_WAIT, or RUNNABLE with a pending lock
            assert queued == d.entity, f"{where}: queued on {queued!r}"
            assert table.queue(queued)[name] == d.mode, where
        else:
            assert queued is None, f"{where}: still queued on {queued!r}"
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


class TestHerdInvariants:
    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("factory", ["deadlock_storm", "stress"])
    def test_hold_after_every_tick(self, factory, seed, monkeypatch):
        ticks = []
        event_tick = _Run._event_tick

        def checked_tick(run):
            event_tick(run)
            assert_herd_invariants(run)
            ticks.append(run.metrics.ticks)

        monkeypatch.setattr(_Run, "_event_tick", checked_tick)
        policy, kwargs = FACTORY_CELLS[factory]
        items, initial, context_kwargs = grid_factory(factory)(seed, **kwargs)
        result = Simulator(
            policy(), seed=seed, context_kwargs=context_kwargs
        ).run(items, initial, validate=False)
        assert ticks and result.metrics.lock_transitions > 0


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


def items_of(scripts, restarts=None):
    """``{name: (start_tick, steps)}`` -> workload items; ``restarts``
    maps a name to the script its restart plays."""
    restarts = restarts or {}
    return [
        WorkloadItem(
            name, steps, start_tick=start,
            restart=(
                (lambda n, attempt, ctx, s=restarts[name]: s)
                if name in restarts else None
            ),
        )
        for name, (start, steps) in scripts.items()
    ]


def run_both(scripts, seed=0, restarts=None):
    """Run a schedule on both engines with the same seed (one runnable
    session per tick unless a case says which draw it relies on); returns
    the event engine's result after checking they agree."""
    naive = Simulator(ScriptPolicy(), seed=seed, engine="naive").run(
        items_of(scripts, restarts), validate=False
    )
    event = Simulator(ScriptPolicy(), seed=seed).run(
        items_of(scripts, restarts), validate=False
    )
    assert_engines_agree(naive, event)
    return event


def order(result):
    return [str(e) for e in result.schedule.events]


def manual_run(scripts):
    """A run admitted at tick 0 whose ticks :func:`tick` drives by hand."""
    run = _Run(Simulator(ScriptPolicy()), items_of(
        {name: (0, steps) for name, steps in scripts.items()}
    ))
    run.admit_arrivals()
    return run


def tick(run, execute):
    """One event-engine tick in which ``execute`` takes the phase-3 step
    (in place of the seeded draw); checks coherence before and after —
    the executor included when its verdict needs no policy, since its own
    step classified it."""
    run.metrics.ticks += 1
    run.classifier.observed = run.metrics.ticks - 1
    run.admit_arrivals()
    assert run._phase_commit()
    run.classifier.observed = run.metrics.ticks  # as the tick does
    assert not run._phase_classify()
    assert execute in run.cache.runnable
    assert_coherent(run)
    entry = run.live[execute]
    run._execute_step(entry)
    if not entry.needs_admission:
        assert execute not in run.cache.dirty, "the executor was left dirty"
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


class TestSettleRouting:
    def test_admission_settles_a_plain_session_in_place(self):
        run = manual_run({"H": [lx("a"), w("a")], "R": [r("b")]})
        cache = run.cache
        assert not cache.dirty and not cache.dynamic and not cache.complete
        assert list(cache.runnable) == ["H", "R"]
        assert list(run.table.queue("a").items()) == [("H", LockMode.EXCLUSIVE)]
        assert run.table.waiting_entity("R") is None  # nothing to lock
        assert run.metrics.classify_checks == 2
        assert run.metrics.blocker_queries == 1

    def test_a_drained_script_goes_complete_at_admission(self):
        run = manual_run({"E": []})
        assert run.cache.complete == {"E"}
        assert not run.cache.dirty and not run.cache.runnable
        assert run.metrics.classify_checks == 0

    def test_edges_are_filtered_to_live_holders(self):
        # A holder the live table does not know still blocks, but is no
        # waits-for edge — exactly what the naive engine's rebuild keeps.
        run = _Run(Simulator(ScriptPolicy()), items_of(
            {"P": (0, [lx("a"), w("a")])}
        ))
        run.table.acquire("GONE", "a", LockMode.EXCLUSIVE)
        run.admit_arrivals()
        entry = run.live["P"]
        assert entry.state == LOCK_WAIT
        assert run.table.waiting_entity("P") == "a"
        assert run.classifier.view["P"] == set()
        assert_coherent(run)

    def test_a_policy_verdict_takes_the_dirty_route(self, monkeypatch):
        # A dynamic session's peek may read shared state: it is never
        # settled, but re-examined every tick.
        monkeypatch.setattr(ScriptedSession, "dynamic", True)
        run = manual_run({"P": [lx("a"), w("a")]})
        assert run.live["P"].needs_admission
        assert run.cache.dynamic == {"P"} and not run.cache.runnable
        assert run.metrics.classify_checks == 0


class TestSettleAccrual:
    """Where a session is classified by its own step, admission or
    restart, and from which tick its blocked ticks count."""

    def test_an_arrival_blocked_at_admission_counts_its_arrival_tick(self):
        # t1: H locks a.  t2: H writes.  t3: P arrives blocked (the naive
        # engine observes it blocked at t3); H writes.  t4: P blocked
        # again; H unlocks a and wakes P through t4.
        result = run_both({
            "H": (1, [lx("a"), w("a"), w("a"), ux("a")]),
            "P": (3, [lx("a"), w("a")]),
        })
        m = result.metrics
        assert m.records["P"].blocked_ticks == 2
        assert m.wakeups == 1 and m.lock_transitions == 1
        # Two admissions plus the four steps that have a next step: every
        # derivation happened in place, none in a classify phase.
        assert m.classify_checks == 6

    def test_an_executor_blocked_by_its_own_next_step_accrues_from_the_next_tick(self):
        # t1: H locks a.  t2 (seed 1 draws E): E locks z, and its next
        # step is blocked by H.  t3, t4: H writes.  t5: H unlocks a and
        # wakes E through t5 — blocked at t3, t4 and t5, not at t2.
        result = run_both({
            "H": (1, [lx("a"), w("a"), w("a"), ux("a")]),
            "E": (2, [lx("z"), lx("a"), w("a")]),
        }, seed=1)
        assert order(result)[:3] == ["H:(LX a)", "E:(LX z)", "H:(W a)"]
        m = result.metrics
        assert m.records["E"].blocked_ticks == 3
        assert m.wakeups == 1 and m.lock_transitions == 1

    def test_a_victim_blocked_at_its_re_begin_accrues_from_the_next_tick(self):
        # t1: A locks a.  t2 (seed 0 draws B): B locks b, then blocks on a.
        # t3: A writes a, then blocks on b.  t4: deadlock — B (fewer steps)
        # is the victim, having been blocked at t3 and t4; its restart
        # script blocks on a at once.  t5, t6: A locks and writes b.  t7:
        # A commits and wakes B through t6 — blocked at t5 and t6, not t4.
        result = run_both(
            {
                "A": (1, [lx("a"), w("a"), lx("b"), w("b")]),
                "B": (2, [lx("b"), lx("a"), w("a")]),
            },
            seed=0,
            restarts={"B": [lx("a"), w("a")]},
        )
        assert order(result) == [
            "A:(LX a)", "A:(W a)", "A:(LX b)", "A:(W b)", "B:(LX a)", "B:(W a)",
        ]
        m = result.metrics
        assert m.deadlock_victims == ["B"] and m.restarts == 1
        assert m.records["B"].blocked_ticks == 4
        assert m.records["A"].blocked_ticks == 1


class TestBlockTransition:
    def test_s_acquire_leaves_an_s_watcher_alone(self):
        run = manual_run({"H": [ls("a"), r("a")], "S": [ls("a"), r("a")]})
        tick(run, "H")
        entry = run.live["S"]
        assert entry.state == RUNNABLE and "S" not in run.classifier.view
        assert "S" in run.cache.runnable and "S" not in run.cache.dirty
        assert list(run.table.queue("a").items()) == [("S", LockMode.SHARED)]
        assert run.metrics.lock_transitions == 0

    def test_x_acquire_blocks_an_s_watcher_in_place(self):
        run = manual_run({"H": [lx("a"), w("a")], "S": [ls("a"), r("a")]})
        # Both were classified at admission, each querying its lock.
        assert run.metrics.classify_checks == 2
        assert run.metrics.blocker_queries == 2
        tick(run, "H")
        entry = run.live["S"]
        assert entry.state == LOCK_WAIT
        assert "S" not in run.cache.runnable and "S" not in run.cache.dirty
        assert run.classifier.view["S"] == {"H"}
        assert list(run.table.queue("a").items()) == [("S", LockMode.SHARED)]
        assert run.metrics.lock_transitions == 1
        # Tick 1 classified only H's next step (a write: no query), in
        # place; the block query is counted.
        assert run.metrics.classify_checks == 3
        assert run.metrics.blocker_queries == 3

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
        assert run.classifier.view["S"] == {"H"}
        assert run.metrics.lock_transitions == 1

    def test_a_blocked_watcher_keeps_its_registration_place(self):
        # The watchers arrive one tick apart in reverse name order, so
        # they register in an order that is not the sorted one, while H
        # works on b; H's own pending lock on a registers last.
        names = [f"T{i:02d}" for i in range(6)]
        arrivals = names[::-1]
        scripts = {"H": (0, [lx("b")] + [w("b")] * len(names) + [lx("a"), w("a")])}
        for t, name in enumerate(arrivals):
            scripts[name] = (t, [ls("a"), r("a")] if t % 2 else [lx("a"), w("a")])
        run = _Run(Simulator(ScriptPolicy()), items_of(scripts))
        run.admit_arrivals()
        for _ in range(len(names) + 1):
            tick(run, "H")
        assert list(run.table.queue("a")) == arrivals + ["H"]
        assert all(run.live[n].state == RUNNABLE for n in names)
        tick(run, "H")  # H's X acquire blocks every watcher in place
        assert list(run.table.queue("a")) == arrivals
        assert all(run.live[n].state == LOCK_WAIT for n in names)
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
        assert "P" not in run.classifier.view
        # A woken waiter stays queued on its entity, in its place.
        assert list(run.table.queue("a").items()) == [
            ("P", LockMode.EXCLUSIVE), ("Q", LockMode.EXCLUSIVE)
        ]
        assert "Q" in run.cache.dirty
        run.classifier.wake(["Q"])  # already dirty: not counted again
        run.classifier.wake(["P"])  # runnable now: not a wake-up
        assert m.wakeups == 2
        assert m.lock_transitions == moved + 1


def blocker_calls_inside(monkeypatch, owner, method):
    """The ``LockTable.blockers`` calls made inside each call of
    ``owner.method``, one ``[(txn, entity, mode), ...]`` list per call
    (the coherence oracle's own derivations are not counted)."""
    calls, per_call = [], []
    blockers, wrapped = LockTable.blockers, getattr(owner, method)

    def counted_blockers(self, txn, entity, mode):
        calls.append((txn, entity, mode))
        return blockers(self, txn, entity, mode)

    def counted(self, *args):
        start = len(calls)
        result = wrapped(self, *args)
        per_call.append(calls[start:])
        return result

    monkeypatch.setattr(LockTable, "blockers", counted_blockers)
    monkeypatch.setattr(owner, method, counted)
    return per_call


@pytest.fixture
def acquire_queries(monkeypatch):
    return blocker_calls_inside(monkeypatch, Classifier, "acquired")


#: The runnable-index updates a herd move may make, per member or as one
#: batch, and every public waits-for-graph method (a herd move calls none).
HERD_UPDATES = (
    (OrderedNames, ("add", "discard", "add_many", "discard_many")),
    (WaitsForGraph, tuple(
        name for name, member in vars(WaitsForGraph).items()
        if callable(member) and not name.startswith("_")
    )),
)


@pytest.fixture
def herd_updates(monkeypatch):
    """The index and graph updates made inside each ``Classifier.wake`` /
    ``acquired`` call: ``{method: [{"Class.update": calls}, ...]}``."""
    open_calls, per_call = [], {"wake": [], "acquired": []}
    for cls, updates in HERD_UPDATES:
        for update in updates:
            def spy(self, *args, _update=getattr(cls, update),
                    _key=f"{cls.__name__}.{update}"):
                if open_calls:
                    open_calls[-1][_key] = open_calls[-1].get(_key, 0) + 1
                return _update(self, *args)

            monkeypatch.setattr(cls, update, spy)
    for method in per_call:
        def counted(self, *args, _method=getattr(Classifier, method),
                    _calls=per_call[method]):
            open_calls.append({})
            try:
                return _method(self, *args)
            finally:
                _calls.append(open_calls.pop())

        monkeypatch.setattr(Classifier, method, counted)
    return per_call


class TestHerd:
    """A hot entity with N X-waiters and some S watchers.  A release that
    frees it wakes the whole herd in one pass, and the next grant
    re-blocks whoever now conflicts without a blocker query, everyone
    keeping their queue place; the detection view reads each blocked
    member's edges from the table."""

    XS = [f"X{i}" for i in range(5)]
    SS = ["S0", "S1", "S2"]

    def herd(self):
        """H's X grant has blocked the herd in place; H's next step is
        the unlock."""
        scripts = {"H": [lx("a"), w("a"), ux("a")]}
        scripts.update({n: [lx("a"), w("a")] for n in self.XS})
        scripts.update({n: [ls("a"), r("a")] for n in self.SS})
        run = manual_run(scripts)
        tick(run, "H")
        tick(run, "H")
        assert all(run.live[n].state == LOCK_WAIT for n in self.XS + self.SS)
        return run

    def woken_herd(self):
        run = self.herd()
        tick(run, "H")
        return run

    def test_a_release_wakes_the_whole_herd(self, monkeypatch):
        run = self.herd()
        herd = self.XS + self.SS
        m = run.metrics
        wakeups, moved = m.wakeups, m.lock_transitions
        release_queries = blocker_calls_inside(monkeypatch, LockTable, "release")
        tick(run, "H")  # H unlocks a: nobody holds it any more
        assert m.wakeups == wakeups + len(herd)
        assert m.lock_transitions == moved + len(herd)
        assert all(run.live[n].state == RUNNABLE for n in herd)
        assert not list(run.classifier.view)
        # Every woken waiter is still queued, in its registration place,
        # and the wake-up set was read without a conflict query.
        assert list(run.table.queue("a")) == sorted(herd)
        assert release_queries == [[]]

    def test_the_next_x_grant_reblocks_the_rest(self, acquire_queries):
        run = self.woken_herd()
        m = run.metrics
        queries, moved = m.blocker_queries, m.lock_transitions
        tick(run, "X0")
        rest = [n for n in self.XS + self.SS if n != "X0"]
        for n in rest:
            assert run.live[n].state == LOCK_WAIT, n
            assert run.classifier.view[n] == {"X0"}, n
        assert list(run.table.queue("a")) == sorted(rest)
        assert m.lock_transitions == moved + len(rest)
        # Each re-block counts as a blocker derivation, made without a
        # table query: the view answers the edges when a cycle is searched.
        assert m.blocker_queries == queries + len(rest)
        assert acquire_queries[-1] == []

    def test_a_herd_moves_as_one_batch(self, herd_updates):
        # Eight watchers: the release wakes them all, X0's grant re-blocks
        # the other seven; each move is one index call and no graph call.
        run = self.herd()
        tick(run, "H")  # H unlocks a
        assert herd_updates["wake"][-1] == {"OrderedNames.add_many": 1}
        tick(run, "X0")
        assert herd_updates["acquired"][-1] == {
            "OrderedNames.discard_many": 1,
        }
        rest = [n for n in self.XS + self.SS if n != "X0"]
        assert all(run.live[n].state == LOCK_WAIT for n in rest)
        # A grant on an entity whose herd is already blocked makes no
        # call at all, and the view sees the new holder: S0's S grant
        # blocks the X watchers, S1's joins their blockers.
        herd_updates["acquired"].clear()
        run = self.woken_herd()
        tick(run, "S0")
        tick(run, "S1")
        assert herd_updates["acquired"][-1] == {}
        for n in self.XS:
            assert run.classifier.view[n] == {"S0", "S1"}, n

    def test_an_s_grant_leaves_s_watchers_alone(self, acquire_queries):
        run = self.woken_herd()
        moved = run.metrics.lock_transitions
        tick(run, "S0")
        for n in ("S1", "S2"):
            assert run.live[n].state == RUNNABLE and n in run.cache.runnable
            assert n not in run.classifier.view
        for n in self.XS:
            assert run.live[n].state == LOCK_WAIT
            assert run.classifier.view[n] == {"S0"}
        assert run.metrics.lock_transitions == moved + len(self.XS)
        assert acquire_queries[-1] == []

    def test_an_s_holder_waiting_to_upgrade_is_not_its_own_blocker(
        self, acquire_queries
    ):
        # U holds S on a and wants X next (runnable while alone); V's S
        # grant blocks U on V only, and W, an X watcher, on both.
        run = manual_run({
            "U": [ls("a"), lx("a"), w("a")],
            "V": [ls("a"), r("a")],
            "W": [r("z"), lx("a"), w("a")],
        })
        tick(run, "U")
        assert run.live["U"].state == RUNNABLE
        tick(run, "W")  # W's next step: X on a, blocked by U at once
        assert run.classifier.view["W"] == {"U"}
        tick(run, "V")
        assert run.live["U"].state == LOCK_WAIT
        assert run.classifier.view["U"] == {"V"}
        assert run.classifier.view["W"] == {"U", "V"}
        assert acquire_queries[-1] == []

    @pytest.mark.parametrize("seed", range(4))
    def test_the_naive_engine_agrees_on_a_herd_storm(self, seed):
        # Sixteen sessions, staggered, over two hot entities taken in
        # opposite orders: herds wake, re-block, upgrade and deadlock.
        scripts = {}
        for i in range(16):
            hot, other = ("a", "b") if i % 2 else ("b", "a")
            if i % 4 == 0:
                steps = [ls(hot), r(hot), ls(other), r(other)]
            elif i % 4 == 1:
                steps = [ls(hot), r(hot), lx(hot), w(hot), lx(other), w(other)]
            else:
                steps = [lx(hot), w(hot), lx(other), w(other)]
            scripts[f"T{i:02d}"] = (i % 3, steps)
        m = run_both(scripts, seed=seed).metrics
        assert m.deadlocks > 0 and m.committed > 0
        assert m.wakeups > 0 and m.lock_transitions > m.wakeups


# ----------------------------------------------------------------------
# The post-step route of sessions whose verdict needs the policy
# ----------------------------------------------------------------------


#: One session per policy whose script meets every route: next steps that
#: lock nothing, one lock that declares a channel, and a drain.
ROUTE_CASES = {
    "DdagPolicy": (
        lambda: DdagPolicy(auto_release=False),
        [Access(1), Access(2)],
        {"dag": chain(2)},
    ),
    "AltruisticPolicy": (AltruisticPolicy, [Access("a"), Access("b")], {}),
}

#: The route each case's admission takes: DDAG's lock of the root declares
#: no channel, the altruistic first lock declares its item's.
ADMISSION_ROUTES = {"DdagPolicy": "place", "AltruisticPolicy": "dirty"}


def policy_run(case):
    """The one-session run of ``ROUTE_CASES[case]``, admitted at tick 0,
    whose ticks :func:`tick` drives by hand."""
    make_policy, intents, context_kwargs = ROUTE_CASES[case]
    run = _Run(
        Simulator(make_policy(), context_kwargs=context_kwargs),
        [WorkloadItem("T", intents)],
    )
    run.admit_arrivals()
    return run


class TestPostStepRoute:
    @pytest.mark.parametrize("case", sorted(ROUTE_CASES))
    def test_each_step_routes_its_executor_once(self, case):
        """The admission and each step settle the session once: in place,
        dirty, or (drained) complete — the only route phase 1 visits."""
        run = policy_run(case)
        cache, entry = run.cache, run.live["T"]
        assert entry.tracks_deps

        def route():
            step = entry.peek()
            assert ("T" in cache.phase1_candidates()) == (step is None)
            if step is None:
                assert "T" not in cache.dirty and "T" not in cache.runnable
                return "complete"
            if tuple(entry.session.admission_dependencies()):
                assert step.is_lock
                assert "T" in cache.dirty and "T" not in cache.complete
                return "dirty"
            assert entry.state == RUNNABLE and "T" in cache.runnable
            assert "T" not in cache.session_subs
            assert "T" not in cache.dirty and "T" not in cache.complete
            return "place"

        assert route() == ADMISSION_ROUTES[case]
        routes = []
        while "T" not in cache.complete:
            tick(run, "T")
            routes.append(route())
        assert routes.count("dirty") == 1 and routes[-1] == "complete"
        assert routes.count("place") == len(routes) - 2
        # One derivation, policy asked, per step that left a next step (in
        # place, or in phase 2 for a lock that declares a channel), plus
        # the admission's.
        m = run.metrics
        assert m.classify_checks == m.admission_checks == len(routes)

    @pytest.mark.parametrize("factory, policy", [
        (factory, policy)
        for factory in sorted(FACTORY_CELLS)
        for policy in (AltruisticPolicy, DdagPolicy)
        if policy is AltruisticPolicy
        or "dag" in grid_factory(factory)(0, **FACTORY_CELLS[factory][1])[2]
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_an_executor_reaches_phase1_only_drained_or_refused(
        self, factory, policy, monkeypatch
    ):
        """Spy on ``AdmissionCache.phase1_candidates``: a session that
        was admitted, restarted or executed a step since the last commit
        scan is a candidate of the next exactly when that event drained
        or refused its script (or it is dynamic)."""
        due = {}  # name -> (run, entry, owed, event) since the last scan
        seen = {"register": 0, "step": 0, "owed": 0}
        candidates_of = AdmissionCache.phase1_candidates

        def spied(method, event):
            def spy(run, entry):
                method(run, entry)
                name = entry.item.name
                cache = run.cache
                owed = name in cache.complete or name in cache.dynamic
                due[name] = (run, entry, owed, event)

            return spy

        def spied_candidates(cache):
            names = candidates_of(cache)
            for name, (run, entry, owed, event) in due.items():
                if run.live.get(name) is entry:
                    assert (name in names) == owed, (name, event, owed)
                    seen[event] += 1
                    seen["owed"] += owed
            due.clear()
            return names

        for method, event in (("_register", "register"), ("_execute_step", "step")):
            monkeypatch.setattr(
                KernelRun, method, spied(getattr(KernelRun, method), event)
            )
        monkeypatch.setattr(AdmissionCache, "phase1_candidates", spied_candidates)
        for seed in range(2):
            items, initial, context_kwargs = grid_factory(factory)(
                seed, **FACTORY_CELLS[factory][1]
            )
            try:
                Simulator(
                    policy(), seed=seed, context_kwargs=context_kwargs
                ).run(items, initial, validate=False)
            except PolicyViolation as exc:
                pytest.skip(f"the policy refuses this workload's intents: {exc}")
        assert seen["owed"] > 0 and seen["register"] > 0 and seen["step"] > 0


#: DDAG scripts whose peek right after a step raises: a node needed again
#: after its unlock (L3), and the delete of an edge the graph lacks (L1).
REFUSED_SCRIPTS = {
    "L3": [Access(1), Unlock(1), Access(1)],
    "L1": [Access(1), Access(2), Access(3), DeleteEdge(1, 3)],
}


class TestDeferredViolation:
    @pytest.mark.parametrize("rule", sorted(REFUSED_SCRIPTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_a_refused_peek_aborts_in_the_next_phase1(
        self, rule, seed, monkeypatch
    ):
        aborts = []  # (event engine, tick, name, reason, in phase 1, last step's tick)
        steps = {}  # name -> tick of its last step
        phase = {"commit": False}
        abort, commit_phase = KernelRun.abort, _Run._phase_commit
        execute = _Run._execute_step

        def spied_abort(run, victim, reason):
            name = victim.item.name
            aborts.append((
                run.event_engine, run.metrics.ticks, name, reason,
                phase["commit"], steps.get(name),
            ))
            abort(run, victim, reason)

        def spied_commit_phase(run):
            phase["commit"] = True
            try:
                return commit_phase(run)
            finally:
                phase["commit"] = False

        def spied_execute(run, entry):
            execute(run, entry)
            steps[entry.item.name] = run.metrics.ticks

        monkeypatch.setattr(KernelRun, "abort", spied_abort)
        monkeypatch.setattr(_Run, "_phase_commit", spied_commit_phase)
        monkeypatch.setattr(_Run, "_execute_step", spied_execute)
        results = {}
        for engine in ("naive", "event"):
            steps.clear()
            items = [
                WorkloadItem("T", REFUSED_SCRIPTS[rule]),
                WorkloadItem("U", [Access(2), Access(3)]),
            ]
            results[engine] = Simulator(
                DdagPolicy(auto_release=False), seed=seed, engine=engine,
                context_kwargs={"dag": chain(3)},
            ).run(items, validate=False)
            if engine == "event":
                refusals = [a for a in aborts if a[0] and a[3] != "deadlock victim"]
                assert refusals, "the refused peek never aborted its session"
                for _, at, _, reason, in_phase1, stepped in refusals:
                    assert in_phase1 and reason.startswith(f"[{rule}]")
                    assert at == stepped + 1  # the tick after its step
        assert_engines_agree(results["naive"], results["event"])
        assert [a[1:4] for a in aborts if not a[0]] == [
            a[1:4] for a in aborts if a[0]
        ]
        assert results["event"].metrics.aborted > 0


#: Scripts refused at their first peek (an edge insert neither policy's
#: planner serves here), under DDAG and altruistic locking.
FIRST_PEEK_REFUSALS = {
    "ddag-L1": (lambda: DdagPolicy(auto_release=False), {"dag": chain(3)}),
    "altruistic-AL1": (AltruisticPolicy, {}),
}


class TestFirstPeekRefusal:
    """A script refused at its first peek: the admission's settle leaves
    it for the same tick's phase 1, whose abort restarts it.  The naive
    engine next peeks that successor in phase 2, which catches no
    refusal; the event engine must agree whichever way it ends."""

    @staticmethod
    def _items(restart=None):
        return [
            WorkloadItem("T", [InsertEdge(1, 3)], restart),
            WorkloadItem("U", [Access(2), Access(3)]),
        ]

    @pytest.mark.parametrize("case", sorted(FIRST_PEEK_REFUSALS))
    @pytest.mark.parametrize("seed", range(3))
    def test_a_refused_successor_escapes_both_engines(self, case, seed):
        policy, context_kwargs = FIRST_PEEK_REFUSALS[case]
        raised = {}
        for engine in ("naive", "event"):
            with pytest.raises(PolicyViolation) as exc:
                Simulator(
                    policy(), seed=seed, engine=engine,
                    context_kwargs=dict(context_kwargs),
                ).run(self._items(), validate=False)
            raised[engine] = str(exc.value)
        assert raised["naive"] == raised["event"]

    @pytest.mark.parametrize("case", sorted(FIRST_PEEK_REFUSALS))
    @pytest.mark.parametrize("seed", range(3))
    def test_a_replanned_successor_runs_alike(self, case, seed):
        policy, context_kwargs = FIRST_PEEK_REFUSALS[case]
        results = {
            engine: Simulator(
                policy(), seed=seed, engine=engine,
                context_kwargs=dict(context_kwargs),
            ).run(
                self._items(lambda name, attempt, ctx: [Access(1), Access(2)]),
                validate=False,
            )
            for engine in ("naive", "event")
        }
        assert_engines_agree(results["naive"], results["event"])
        event = results["event"]
        assert event.metrics.restarts == 1 and "T" in event.committed


def _verdict_cells():
    """The pinned DDAG and altruistic cells, each also under its policy's
    broken control: ``{id: (factory, kwargs, policy constructor, seed)}``."""
    controls = {DdagPolicy: BrokenDdagPolicy, AltruisticPolicy: BrokenAltruisticPolicy}
    out = {}
    for cell, (factory, kwargs, make_policy, seed) in CELLS.items():
        base = getattr(make_policy, "func", make_policy)
        if base not in controls:
            continue
        out[cell] = (factory, kwargs, make_policy, seed)
        out[f"{cell}/{controls[base].__name__}"] = (
            factory, kwargs, controls[base], seed,
        )
    return out


VERDICT_CELLS = _verdict_cells()


class TestInPlaceVerdictOracle:
    @pytest.mark.parametrize("cell", sorted(VERDICT_CELLS))
    def test_an_in_place_verdict_holds_until_the_next_step(
        self, cell, monkeypatch
    ):
        """At every in-place settle of a policy session — at its
        admission, at its restart, after its own step — remember it; at
        every later observation point — right after phase 2, before the
        draw or the deadlock phase — re-evaluate ``admission()`` for each
        one still live that has not stepped since: it must still
        proceed, with no channel declared."""
        settled = {}  # name -> (entry, step_count)
        checked = []
        #: Policy sessions settled at an admission or a restart, and how
        #: many of them in place.
        begun = {"settled": 0, "in place": 0}
        settle = Classifier.settle

        def spied_settle(classifier, entry):
            at_begin = entry.state == NEW and entry.needs_admission
            settle(classifier, entry)
            begun["settled"] += at_begin
            name = entry.item.name
            if (
                entry.needs_admission
                and name not in classifier.cache.dirty
                and name not in classifier.cache.complete
            ):
                settled[name] = (entry, entry.step_count)
                begun["in place"] += at_begin

        def recheck(run):
            for name, (entry, count) in list(settled.items()):
                if run.live.get(name) is not entry or entry.step_count != count:
                    del settled[name]
                    continue
                assert entry.session.admission().verdict is Admission.PROCEED, name
                assert not tuple(entry.session.admission_dependencies()), name
                checked.append(name)

        execute, deadlock = _Run._phase_execute, _Run._phase_deadlock

        def checked_execute(run):
            recheck(run)
            execute(run)

        def checked_deadlock(run):
            recheck(run)
            deadlock(run)

        monkeypatch.setattr(Classifier, "settle", spied_settle)
        monkeypatch.setattr(_Run, "_phase_execute", checked_execute)
        monkeypatch.setattr(_Run, "_phase_deadlock", checked_deadlock)
        factory, kwargs, make_policy, seed = VERDICT_CELLS[cell]
        items, initial, context_kwargs = grid_factory(factory)(seed, **kwargs)
        try:
            Simulator(
                make_policy(), seed=seed, max_ticks=500_000,
                context_kwargs=context_kwargs,
            ).run(items, initial, validate=False)
        except (PolicyViolation, SimulationError):
            pass  # checked on every tick up to it
        assert checked, "no in-place settle was re-evaluated"
        assert begun["settled"], "no admission or restart was settled"
        # An altruistic session's every begin locks an item, which
        # declares the item's channel: only DDAG begins settle in place.
        if issubclass(getattr(make_policy, "func", make_policy), DdagPolicy):
            assert begun["in place"], "no admission or restart settled in place"
