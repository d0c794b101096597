"""Direct unit coverage of the admission layer
(:class:`repro.sim.AdmissionCache`): the routing of an admission, the
invalidation-channel subscription index, the pending-lock registration
the Classifier keeps on the lock table's queue, and the tick queries.
The full classification semantics are covered end to end by the
engine-equivalence suites; these tests pin the cache's contract in
isolation.
"""

from repro.core import LockMode, Operation, Step
from repro.kernel.lifecycle import KernelRun
from repro.policies.base import (
    Admission,
    AdmissionResult,
    PROCEED,
    ScriptedSession,
)
from repro.sim import (
    AdmissionCache,
    LockTable,
    Metrics,
    TxnRecord,
    WaitsForGraph,
    WorkloadItem,
)
from repro.sim.admission import (
    NEW,
    POLICY_WAIT,
    RUNNABLE,
    Classifier,
    Decision,
    LiveEntry,
    OrderedNames,
)
from repro.sim.live import UNPEEKED
from test_lock_transitions import ScriptPolicy


def make_cache():
    metrics = Metrics()
    return AdmissionCache(metrics), metrics


class _DeclaringSession(ScriptedSession):
    """A scripted session whose verdict needs the policy: it declares
    ``deps`` and answers ``verdict`` at every check."""

    dynamic = True

    def __init__(self, name, steps, deps, verdict):
        super().__init__(name, steps)
        self.deps, self.verdict = deps, verdict

    def admission_dependencies(self):
        return self.deps

    def admission(self):
        return self.verdict


def admitted(deps, verdict=PROCEED, steps=(Step(Operation.READ, "a"),)):
    """A one-session event-engine kernel that has just admitted ``A``."""
    run = KernelRun(ScriptPolicy().create_context())
    steps = list(steps)
    entry = LiveEntry(
        WorkloadItem("A", steps),
        _DeclaringSession("A", steps, deps, verdict),
        TxnRecord("A", start_tick=0),
    )
    run._register(entry)
    return run, entry


class TestRegistration:
    # An admission takes the route a session's own step takes
    # (Classifier.settle), unless the session is dynamic and declares no
    # channel; sessions whose verdict needs no policy are covered by
    # tests/test_lock_transitions.py::TestSettleRouting.

    def test_a_channel_declaring_admission_is_left_dirty(self):
        run, entry = admitted(["ch1"])
        cache = run.cache
        assert entry.tracks_deps and cache.dirty == {"A"}
        assert not cache.dynamic and not cache.complete and not cache.runnable
        assert entry.state == NEW and entry.peeked is not UNPEEKED
        # Phase 2 derives it, and subscribes it then.
        assert cache.session_subs == {} and run.metrics.classify_checks == 0

    def test_a_waiting_admission_is_left_dirty(self):
        run, entry = admitted([], AdmissionResult(Admission.WAIT))
        assert run.cache.dirty == {"A"} and entry.state == NEW
        assert run.metrics.classify_checks == 0

    def test_a_proceeding_admission_with_no_channel_settles_in_place(self):
        run, entry = admitted([])
        cache, m = run.cache, run.metrics
        assert entry.state == RUNNABLE and list(cache.runnable) == ["A"]
        assert not cache.dirty and not cache.dynamic and not cache.complete
        assert m.classify_checks == m.admission_checks == 1

    def test_a_drained_admission_goes_complete(self):
        run, entry = admitted([], steps=())
        assert run.cache.complete == {"A"} and not run.cache.dirty
        assert entry.state == NEW and run.metrics.classify_checks == 0

    def test_no_declaration_dynamic_joins_every_tick_set(self):
        run, entry = admitted(None)
        cache = run.cache
        assert not entry.tracks_deps and cache.dynamic == {"A"}
        assert not cache.dirty and not cache.complete
        assert entry.peeked is UNPEEKED  # phase 1 peeks it

    def test_forget_clears_every_route(self):
        # The runnable index goes with the classification
        # (TestPendingLockRegistration::test_clear_undoes_what_the_state_holds).
        cache, _ = make_cache()
        for route in (cache.dirty, cache.dynamic, cache.complete):
            route.add("A")
        cache.subscribe("A", ["ch1"])
        cache.forget("A")
        assert not cache.dirty and not cache.dynamic and not cache.complete
        assert cache.channel_subs == {} and cache.session_subs == {}


class TestChannels:
    def test_policy_changed_marks_only_subscribers_dirty(self):
        cache, metrics = make_cache()
        cache.subscribe("A", ["ch1", "ch2"])
        cache.subscribe("B", ["ch2"])
        cache.policy_changed(("ch2",))
        assert cache.dirty == {"A", "B"}
        assert metrics.invalidations == 2
        cache.policy_changed(("ch-unknown",))
        assert metrics.invalidations == 2

    def test_resubscribe_moves_channels(self):
        cache, _ = make_cache()
        cache.subscribe("A", ["ch1", "ch2"])
        cache.subscribe("A", ["ch2", "ch3"])
        assert cache.channel_subs == {"ch2": {"A"}, "ch3": {"A"}}
        assert cache.session_subs["A"] == ("ch2", "ch3")
        cache.subscribe("A", [])
        assert cache.channel_subs == {} and cache.session_subs == {}

    def test_departed_subscriber_is_not_marked(self):
        # A departure unsubscribes the name, so no later change reaches it.
        cache, metrics = make_cache()
        cache.subscribe("A", ["ch1"])
        cache.subscribe("B", ["ch1"])
        cache.forget("A")
        assert cache.channel_subs == {"ch1": {"B"}}
        assert "A" not in cache.session_subs
        cache.policy_changed(("ch1",))
        assert cache.dirty == {"B"}
        assert metrics.invalidations == 1

    def test_already_dirty_subscriber_counts_once(self):
        cache, metrics = make_cache()
        cache.subscribe("A", ["ch1"])
        cache.dirty.add("A")
        cache.policy_changed(("ch1",))
        assert metrics.invalidations == 0


class TestPendingLockRegistration:
    # A pending lock is registered on the lock table's queue, not in the
    # cache; lock-event routing (wake-ups, blocks) lives in the
    # Classifier's in-place transitions: tests/test_lock_transitions.py.

    def test_register_clear_round_trip(self):
        live, metrics, table = {}, Metrics(), LockTable()
        cache = AdmissionCache(metrics)
        classifier = Classifier(live, metrics, table, WaitsForGraph(), cache)
        for name in ("B", "A"):
            steps = [Step(Operation.LOCK_SHARED, "e1")]
            live[name] = entry = LiveEntry(
                WorkloadItem(name, steps),
                ScriptedSession(name, steps),
                TxnRecord(name, start_tick=0),
            )
            classifier.settle(entry)  # runnable, and queued all the same
        S = LockMode.SHARED
        assert list(cache.runnable) == ["A", "B"]
        assert list(table.queue("e1").items()) == [("B", S), ("A", S)]
        # clear drops the cached classification; the queue entry goes
        # with the departure's locks.
        classifier.clear(live["B"])
        assert list(cache.runnable) == ["A"]
        table.release_all_wake("B")
        assert list(table.queue("e1").items()) == [("A", S)]
        assert table.waiting_entity("B") is None
        classifier.clear(live["A"])
        table.release_all_wake("A")
        assert list(table.queue("e1").items()) == []
        assert table.waiting_entity("A") is None
        assert not cache.runnable

    def test_clear_undoes_what_the_state_holds(self, monkeypatch):
        # R is RUNNABLE and queued on e2; W is LOCK_WAIT on H's e1 grant;
        # P is POLICY_WAIT on H; N was never classified.  Each clear
        # touches only what its entry's state holds, and no clear touches
        # the lock queue.
        live, metrics, table, graph = {}, Metrics(), LockTable(), WaitsForGraph()
        cache = AdmissionCache(metrics)
        classifier = Classifier(live, metrics, table, graph, cache)
        table.acquire("H", "e1", LockMode.EXCLUSIVE)
        for name, entity in (
            ("H", "e3"), ("R", "e2"), ("W", "e1"), ("P", "e2"), ("N", "e2"),
        ):
            steps = [Step(Operation.LOCK_EXCLUSIVE, entity)]
            live[name] = LiveEntry(
                WorkloadItem(name, steps),
                ScriptedSession(name, steps),
                TxnRecord(name, start_tick=0),
            )
        classifier.settle(live["R"])
        classifier.settle(live["W"])
        classifier.apply(live["P"], Decision("P", POLICY_WAIT, edges={"H"}), [])
        # Only the policy wait is stored; the lock wait is the table's.
        assert graph.waits_for == {"P": {"H"}}
        assert classifier.view.snapshot() == {"W": {"H"}, "P": {"H"}}
        calls = []
        for cls, method in (
            (OrderedNames, "discard"),
            (WaitsForGraph, "drop_edges"),
            (LockTable, "remove_waiter"),
        ):
            def spy(self, name, _m=getattr(cls, method), _k=method):
                calls.append((_k, name))
                return _m(self, name)

            monkeypatch.setattr(cls, method, spy)
        classifier.clear(live["N"])
        assert calls == [] and live["N"].state == NEW
        classifier.clear(live["R"])
        assert calls == [("discard", "R")]
        assert not cache.runnable and table.waiting_entity("R") == "e2"
        calls.clear()
        classifier.clear(live["W"])
        assert calls == [] and table.waiting_entity("W") == "e1"
        classifier.clear(live["P"])
        assert calls == [("drop_edges", "P")]
        assert graph.waits_for == {} and graph.blocked_by == {}
        assert not classifier.view.snapshot()
        assert live["R"].state == live["W"].state == live["P"].state == NEW


class TestTickQueries:
    def test_phase1_candidates_are_the_standing_sets(self):
        # Drained or refused scripts and every-tick dynamic sessions, and
        # nothing else: a dirty admission is phase 2's.
        cache, _ = make_cache()
        cache.complete.add("A")
        cache.dynamic.add("B")
        cache.dirty.add("C")
        assert sorted(cache.phase1_candidates()) == ["A", "B"]
        # complete/dynamic are standing: they come back next tick.
        assert sorted(cache.phase1_candidates()) == ["A", "B"]
        cache.forget("A")
        assert cache.phase1_candidates() == ["B"]

    def test_take_check_slices_is_sorted_filtered_and_draining(self):
        cache, _ = make_cache()
        cache.dirty.update({"C", "A", "GONE"})
        cache.dynamic.add("B")
        cache.complete.add("D")
        cache.dirty.add("D")  # complete sessions are never re-classified
        cache.forget("GONE")  # a departure leaves no name behind
        assert cache.take_check_slices() == ["A", "B", "C"]
        # dirty drained; dynamic remains standing.
        assert cache.take_check_slices() == ["B"]
