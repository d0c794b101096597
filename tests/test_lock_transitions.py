"""Events that carry their verdict.

A session whose verdict needs no policy is classified by the event that
decides it — its own step, admission or restart (``Classifier.settle``),
a release's wake-up set (``Classifier.wake``), an acquire's conflicting
watchers (``Classifier.acquired``) — instead of being marked dirty and
re-derived on the next tick.  Four contracts:

1. **Coherence oracle.**  At every event-engine tick, right before the
   phase-3 draw or the deadlock phase, every live session that is neither
   dirty nor dynamic (nor a drained script waiting to commit) has a cached
   state a fresh ``derive`` agrees with: same kind, same entity, same
   waits-for edges, same queue entry, same watch — for every registered
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
4. **Herd batches.**  The runnable index is strictly sorted and holds
   exactly the RUNNABLE sessions, no RUNNABLE or NEW session has a
   waits-for entry (so a re-blocked session's fresh edges need no diff),
   and the graph's reverse index mirrors its edges — before every draw
   and deadlock phase of the oracle's runs, and after every tick of
   contended 2PL runs.  A wake or a grant moves its whole herd with one
   graph call and one runnable-index call, and no per-member call of
   either.
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
from repro.sim import LockTable, Simulator, grid_factory
from repro.sim.admission import (
    LOCK_WAIT,
    NEW,
    RUNNABLE,
    Classifier,
    OrderedNames,
)
from repro.sim.scheduler import WorkloadItem, _Run
from repro.sim.waits_for import WaitsForGraph
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
    edged = [
        n for n, e in run.live.items()
        if e.state in (RUNNABLE, NEW) and n in run.graph.waits_for
    ]
    assert not edged, f"{where}: RUNNABLE/NEW sessions with edges: {edged}"
    run.graph.check_consistency()


def assert_coherent(run) -> int:
    """Fresh ``derive`` == cached state for every live session that is
    neither dirty, dynamic nor complete; returns how many were checked."""
    assert_herd_invariants(run)
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
        if d.entity is not None:  # LOCK_WAIT, or RUNNABLE with a pending lock
            assert queued == d.entity, f"{where}: queued on {queued!r}"
            assert dict(table.waiter_modes(queued))[name] == d.mode, where
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
        assert not cache.dirty and not cache.dynamic and not cache.phase1
        assert list(cache.runnable) == ["H", "R"]
        assert run.table.waiter_modes("a") == [("H", LockMode.EXCLUSIVE)]
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
        assert run.graph.waits_for.get("P", set()) == set()
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
        assert entry.state == RUNNABLE and "S" not in run.graph.waits_for
        assert "S" in run.cache.runnable and "S" not in run.cache.dirty
        assert run.table.waiter_modes("a") == [("S", LockMode.SHARED)]
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
        assert run.graph.waits_for["S"] == {"H"}
        assert run.table.waiter_modes("a") == [("S", LockMode.SHARED)]
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
        assert run.graph.waits_for["S"] == {"H"}
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
        assert run.table.waiters_of("a") == arrivals + ["H"]
        assert all(run.live[n].state == RUNNABLE for n in names)
        tick(run, "H")  # H's X acquire blocks every watcher in place
        assert run.table.waiters_of("a") == arrivals
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
        assert "P" not in run.graph.waits_for
        # A woken waiter stays queued on its entity, in its place.
        assert run.table.waiter_modes("a") == [
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


#: The runnable-index and waits-for-graph updates a herd move may make,
#: per member or as one batch.
HERD_UPDATES = (
    (OrderedNames, ("add", "discard", "add_many", "discard_many")),
    (WaitsForGraph, (
        "set_edges", "drop_edges", "add_edge_if_tracked",
        "set_new_edges", "set_edges_many", "drop_edges_many",
        "add_edges_if_tracked",
    )),
)


@pytest.fixture
def herd_updates(monkeypatch):
    """The index and graph updates made inside each ``Classifier.wake`` /
    ``acquired`` call: ``{method: [{"Class.update": calls}, ...]}``."""
    open_calls, per_call = [], {"wake": [], "acquired": []}
    for cls, updates in HERD_UPDATES:
        for update in updates:
            if not hasattr(cls, update):
                continue  # an engine without that batch: nothing to count

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
    re-blocks whoever now conflicts with one blocker query per wanted
    mode, everyone keeping their queue place."""

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
        assert not run.graph.waits_for
        # Every woken waiter is still queued, in its registration place,
        # and the wake-up set was read without a conflict query.
        assert run.table.waiters_of("a") == sorted(herd)
        assert release_queries == [[]]

    def test_the_next_x_grant_reblocks_the_rest(self, acquire_queries):
        run = self.woken_herd()
        m = run.metrics
        queries, moved = m.blocker_queries, m.lock_transitions
        tick(run, "X0")
        rest = [n for n in self.XS + self.SS if n != "X0"]
        for n in rest:
            assert run.live[n].state == LOCK_WAIT, n
            assert run.graph.waits_for[n] == {"X0"}, n
        assert run.table.waiters_of("a") == sorted(rest)
        assert m.lock_transitions == moved + len(rest)
        assert m.blocker_queries == queries + len(rest)
        # One query per wanted mode, shared by the herd.
        assert sorted(acquire_queries[-1], key=str) == [
            (None, "a", LockMode.EXCLUSIVE), (None, "a", LockMode.SHARED),
        ]

    def test_a_herd_moves_as_one_batch(self, herd_updates):
        # Eight watchers: the release wakes them all, X0's grant re-blocks
        # the other seven; each move is one graph call and one index call.
        run = self.herd()
        tick(run, "H")  # H unlocks a
        assert herd_updates["wake"][-1] == {
            "WaitsForGraph.drop_edges_many": 1, "OrderedNames.add_many": 1,
        }
        tick(run, "X0")
        assert herd_updates["acquired"][-1] == {
            "WaitsForGraph.set_new_edges": 1, "OrderedNames.discard_many": 1,
        }
        rest = [n for n in self.XS + self.SS if n != "X0"]
        assert all(run.live[n].state == LOCK_WAIT for n in rest)
        # A grant on an entity whose herd is already blocked extends
        # every conflicting waiter's edges in one call: S0's S grant
        # blocks the X watchers, S1's extends their edges.
        herd_updates["acquired"].clear()
        run = self.woken_herd()
        tick(run, "S0")
        tick(run, "S1")
        assert herd_updates["acquired"][-1] == {
            "WaitsForGraph.add_edges_if_tracked": 1,
        }
        for n in self.XS:
            assert run.graph.waits_for[n] == {"S0", "S1"}, n

    def test_an_s_grant_leaves_s_watchers_alone(self, acquire_queries):
        run = self.woken_herd()
        moved = run.metrics.lock_transitions
        tick(run, "S0")
        for n in ("S1", "S2"):
            assert run.live[n].state == RUNNABLE and n in run.cache.runnable
            assert n not in run.graph.waits_for
        for n in self.XS:
            assert run.live[n].state == LOCK_WAIT
            assert run.graph.waits_for[n] == {"S0"}
        assert run.metrics.lock_transitions == moved + len(self.XS)
        assert acquire_queries[-1] == [(None, "a", LockMode.EXCLUSIVE)]

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
        assert run.graph.waits_for["W"] == {"U"}
        tick(run, "V")
        assert run.live["U"].state == LOCK_WAIT
        assert run.graph.waits_for["U"] == {"V"}
        assert run.graph.waits_for["W"] == {"U", "V"}
        assert acquire_queries[-1] == [(None, "a", LockMode.EXCLUSIVE)]

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
