"""One teardown per departure.

A commit and an abort leave through the same teardown, which clears each
structure once: the departing session's cached classification (runnable
index or its stored policy-wait edges — nothing for a drained script, which
``settle`` cleared when it drained), the edges aimed at it, its routing
state, and its locks with its queue entry.  Three contracts:

1. **Nothing twice.**  Committing a drained 2PL script makes no graph
   edge drop, no runnable-index discard and one queue removal (the one
   ``release_all_wake`` makes for every departure); an abort, restart
   included, makes the queue removals the naive engine makes.
2. **No residue.**  After each commit, deadlock-victim abort and phase-2
   policy abort, on both engines, the departed name is in no wait queue,
   waiting-on or held index, on neither side of the waits-for graph, and
   in no routing set, subscription or runnable index; after every commit
   and abort, every routing set and every subscriber is live.
3. **Blocked time is credited where a wait ends.**  A departing blocker's
   remaining waiters and a deadlock's non-victims are not caught up on
   the spot: each is credited when its own wait ends (a wake, a
   re-derivation, its own victim pick), and the per-transaction records
   still equal the naive engine's.
"""

import pytest

from repro.core import LockMode
from repro.kernel.lifecycle import KernelRun
from repro.policies import Access, AltruisticPolicy, InsertNode, TwoPhasePolicy
from repro.policies.base import (
    Admission,
    AdmissionResult,
    LockingPolicy,
    PolicyContext,
    PROCEED,
    ScriptedSession,
)
from repro.sim import LockTable, Simulator, grid_factory
from repro.sim.admission import OrderedNames
from repro.sim.deadlock import find_cycle_counted
from repro.sim.live import LOCK_WAIT, POLICY_WAIT
from repro.sim.scheduler import WorkloadItem, _Run
from repro.sim.waits_for import WaitsForGraph
from test_lock_transitions import (
    ScriptPolicy,
    assert_engines_agree,
    assert_routes_live,
    items_of,
    ls,
    lx,
    r,
    run_both,
    w,
)
from test_runnable_index import FACTORY_CELLS

# ----------------------------------------------------------------------
# 1. Nothing twice
# ----------------------------------------------------------------------

#: The teardown calls a drained script's commit must not repeat.
TEARDOWN_CALLS = (
    (WaitsForGraph, "drop_edges"),
    (WaitsForGraph, "forget"),
    (OrderedNames, "discard"),
    (LockTable, "remove_waiter"),
)


def spy_teardown(monkeypatch, departure):
    """The :data:`TEARDOWN_CALLS` made inside each call of
    ``KernelRun.<departure>``: one ``{"Class.method": calls}`` dict per
    call, appended to the returned list."""
    open_calls, per_call = [], []
    for cls, method in TEARDOWN_CALLS:
        def spy(self, *args, _method=getattr(cls, method),
                _key=f"{cls.__name__}.{method}"):
            if open_calls:
                open_calls[-1][_key] = open_calls[-1].get(_key, 0) + 1
            return _method(self, *args)

        monkeypatch.setattr(cls, method, spy)
    leave = getattr(KernelRun, departure)

    def counted(self, *args):
        open_calls.append({})
        try:
            return leave(self, *args)
        finally:
            per_call.append(open_calls.pop())

    monkeypatch.setattr(KernelRun, departure, counted)
    return per_call


@pytest.fixture
def commit_calls(monkeypatch):
    return spy_teardown(monkeypatch, "commit")


class TestNothingTwice:
    def test_a_drained_2pl_commit_clears_nothing_twice(self, commit_calls):
        items = [WorkloadItem("T", [Access("a"), Access("b")])]
        result = Simulator(TwoPhasePolicy()).run(items, validate=False)
        assert result.committed == ("T",)
        assert commit_calls == [{"LockTable.remove_waiter": 1}]

    @pytest.mark.parametrize("seed", range(2))
    def test_every_commit_of_a_contended_2pl_run(self, commit_calls, seed):
        policy, kwargs = FACTORY_CELLS["stress"]
        items, initial, context_kwargs = grid_factory("stress")(seed, **kwargs)
        result = Simulator(
            policy(), seed=seed, context_kwargs=context_kwargs
        ).run(items, initial, validate=False)
        assert result.metrics.wakeups > 0, "the cell must contend"
        assert commit_calls == (
            [{"LockTable.remove_waiter": 1}] * result.metrics.committed
        )

    def test_an_abort_leaves_its_lock_queue_once(self, monkeypatch):
        # A 2PL storm's victims are blocked, so each is queued: the
        # abort's teardown and its restart's admission must not drop that
        # entry again, so the event engine makes the naive engine's calls.
        items, initial, _ = grid_factory("deadlock_storm")(
            0, num_entities=60, num_txns=120
        )
        removals = {}
        for engine in ("naive", "event"):
            with monkeypatch.context() as patch:
                abort_calls = spy_teardown(patch, "abort")
                result = Simulator(TwoPhasePolicy(), engine=engine).run(
                    items, initial, validate=False
                )
            assert len(abort_calls) == result.metrics.aborted > 0
            removals[engine] = [
                calls.get("LockTable.remove_waiter", 0)
                for calls in abort_calls
            ]
        assert removals["event"] == removals["naive"]


# ----------------------------------------------------------------------
# 2. No residue
# ----------------------------------------------------------------------


def assert_departed(run, name):
    """``name`` has left for good: no structure of ``run`` mentions it."""
    table, graph, cache = run.table, run.graph, run.cache
    assert name not in run.live
    assert table.waiting_entity(name) is None
    assert all(name not in queue for queue in table._waiters.values())
    assert name not in table._held and table.held_by(name) == {}
    assert all(name not in table.holders(e) for e in table.locked_entities())
    assert all(name not in holders for holders in table._exclusive.values())
    assert name not in graph.waits_for and name not in graph.blocked_by
    assert all(name not in edges for edges in graph.waits_for.values())
    assert all(name not in waiters for waiters in graph.blocked_by.values())
    graph.check_consistency()
    for route in (cache.dirty, cache.dynamic, cache.complete):
        assert name not in route
    assert name not in cache.runnable
    assert name not in cache.session_subs
    assert all(name not in subs for subs in cache.channel_subs.values())


@pytest.fixture
def departures(monkeypatch):
    """Check :func:`assert_departed` after every commit and every abort
    that drops its transaction; returns ``{kind: names}`` of the checked
    departures ("commit", or the abort reason)."""
    checked = {}
    commit, abort = KernelRun.commit, KernelRun.abort

    def checked_commit(self, entry):
        commit(self, entry)
        assert_departed(self, entry.item.name)
        assert_routes_live(self)
        checked.setdefault("commit", []).append(entry.item.name)

    def checked_abort(self, victim, reason):
        abort(self, victim, reason)
        assert_routes_live(self)
        name = victim.item.name
        if name not in self.live:  # dropped, not restarted
            assert_departed(self, name)
            checked.setdefault(reason, []).append(name)

    monkeypatch.setattr(KernelRun, "commit", checked_commit)
    monkeypatch.setattr(KernelRun, "abort", checked_abort)
    return checked


def dropped(scripts):
    """``{name: (start_tick, steps)}`` -> items whose aborts drop them."""
    items = items_of(scripts)
    for item in items:
        item.restart = lambda name, attempt, context: None
    return items


def run_both_engines(policy, items, seed=0):
    results = [
        Simulator(policy, seed=seed, engine=engine).run(items, validate=False)
        for engine in ("naive", "event")
    ]
    assert_engines_agree(*results)
    return results[1]


class _TripwireContext(PolicyContext):
    """Scripted sessions whose verdict needs the policy: once a session
    executes a write of ``trip``, every session named ``V…`` is refused
    at its next admission check — in LOCK_WAIT, if that is where it is."""

    def __init__(self):
        self.tripped = False

    def begin(self, name, intents):
        return _TripwireSession(name, intents, self)


class _TripwireSession(ScriptedSession):
    dynamic = True

    def __init__(self, name, steps, context):
        super().__init__(name, steps)
        self.context = context

    def executed(self):
        if self.peek() == w("trip"):
            self.context.tripped = True
        super().executed()

    def admission(self):
        if self.context.tripped and self.name.startswith("V"):
            return AdmissionResult(Admission.ABORT, reason="tripped")
        return PROCEED


class _TripwirePolicy(LockingPolicy):
    name = "tripwire"
    modes = (LockMode.EXCLUSIVE, LockMode.SHARED)

    def create_context(self, **kwargs):
        return _TripwireContext()


class TestNoResidue:
    def test_after_every_commit(self, departures):
        # S1 commits while W waits behind S2, S2 commits and wakes W.
        run_both(
            {
                "S1": (1, [ls("a"), r("a")]),
                "S2": (2, [ls("a"), r("a"), r("a"), r("a")]),
                "W": (3, [lx("a"), w("a")]),
            },
        )
        assert sorted(departures["commit"]) == ["S1", "S1", "S2", "S2", "W", "W"]

    def test_after_a_deadlock_victim_abort(self, departures):
        # B, the cheaper member, is the victim, blocked on a while it
        # holds b; A, blocked on b, is woken by its departure.
        result = run_both_engines(ScriptPolicy(), dropped({
            "A": (1, [lx("a"), w("a"), lx("b"), w("b")]),
            "B": (2, [lx("b"), lx("a"), w("a")]),
        }))
        assert result.metrics.deadlock_victims == ["B"]
        assert departures["deadlock victim"] == ["B", "B"]  # both engines

    def test_after_a_phase2_policy_abort_of_a_blocked_session(
        self, departures
    ):
        # V arrives behind H's lock on a and blocks; H's write of trip
        # makes V's next admission check refuse it while it waits.
        result = run_both_engines(_TripwirePolicy(), dropped({
            "H": (1, [lx("a"), w("a"), lx("trip"), w("trip"), w("a")]),
            "V": (2, [lx("a"), w("a")]),
        }))
        assert result.aborted == ("V",) and result.committed == ("H",)
        assert departures["tripped"] == ["V", "V"]
        assert result.metrics.records["V"].blocked_ticks > 0


# ----------------------------------------------------------------------
# 3. Blocked time is credited where a wait ends
# ----------------------------------------------------------------------


@pytest.fixture
def deadlocks(monkeypatch):
    """Per deadlock phase: the cycle, the victim, and the members still
    blocked after the victim's abort."""
    seen = []
    phase = _Run._phase_deadlock

    def spy(run):
        cycle, _ = find_cycle_counted(run.classifier.view)
        states = {n: run.live[n].state for n in cycle}
        phase(run)
        victim = run.metrics.deadlock_victims[-1]
        still = sorted(
            n for n in cycle
            if n != victim and n in run.live
            and run.live[n].state in (LOCK_WAIT, POLICY_WAIT)
        )
        seen.append((sorted(cycle), states, victim, still))

    monkeypatch.setattr(_Run, "_phase_deadlock", spy)
    return seen


class TestRecordsWhereWaitsEnd:
    def test_a_waiter_behind_two_s_holders_one_of_which_commits(self):
        # t1: S1 takes S on a.  t2: S2 does too.  t3: W arrives and waits
        # on both; S1 reads.  t4: S1 commits in phase 1 — W still waits
        # on S2, which reads through t6.  t7: S2 commits and wakes W.
        result = run_both({
            "S1": (1, [ls("a"), r("a")]),
            "S2": (2, [ls("a"), r("a"), r("a"), r("a")]),
            "W": (3, [lx("a"), w("a")]),
        })
        m = result.metrics
        assert [str(e) for e in result.schedule.events][:4] == [
            "S1:(LS a)", "S2:(LS a)", "S1:(R a)", "S2:(R a)",
        ]
        assert m.wakeups == 1  # only S2's departure woke W
        assert m.records["W"].blocked_ticks == 4

    def test_an_altruistic_waiter_whose_donor_is_aborted(self, deadlocks):
        # D donates a and then waits on x, which W holds; W, having
        # inserted n, is in D's wake and policy-waits on D to lock a.  D
        # is the cheaper member (no structural effect), twice.
        items = [
            WorkloadItem("W", [
                Access("x"), InsertNode("n"), Access("a"), Access("x"),
            ]),
            WorkloadItem("D", [Access("a"), Access("x"), Access("q")]),
        ]
        result = run_both_engines(AltruisticPolicy(), items)
        assert result.metrics.deadlock_victims == ["D", "D"]
        # (The naive engine resolves deadlocks inside its own tick.)
        assert [states for _, states, _, _ in deadlocks] == [
            {"D": LOCK_WAIT, "W": POLICY_WAIT}
        ] * 2
        assert result.metrics.records["W"].blocked_ticks == 8

    def test_a_deadlock_whose_non_victims_stay_blocked(self, deadlocks):
        # A waits on B's b, B on c, which C and D share, C and D on A's a.
        # C, the cheapest, is the victim of the cycle A -> B -> C -> A:
        # B still waits on D, so A and B stay blocked.  The next cycle,
        # A -> B -> D -> A, takes A.
        scripts = {
            "A": (0, [lx("a"), w("a"), lx("b"), w("b")]),
            "B": (0, [lx("b"), w("b"), lx("c"), w("c")]),
            "C": (0, [ls("c"), lx("a"), w("a")]),
            "D": (0, [ls("c"), r("c"), lx("a"), w("a")]),
        }
        result = run_both(scripts, restarts={"C": [lx("z"), w("z")]})
        assert result.metrics.deadlock_victims == ["C", "A"]
        first = deadlocks[0]
        assert first[0] == ["A", "B", "C"] and first[2] == "C"
        assert first[3] == ["A", "B"]
