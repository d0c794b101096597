"""Direct unit coverage of the admission layer
(:class:`repro.sim.AdmissionCache`): registration routing, the
invalidation-channel subscription index, the pending-lock registration
the Classifier keeps on the lock table's queue, and the tick queries.
The full classification semantics are covered end to end by the
engine-equivalence suites; these tests pin the cache's contract in
isolation.
"""

from repro.core import LockMode, Operation, Step
from repro.policies.base import ScriptedSession
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
    Classifier,
    Decision,
    LiveEntry,
    OrderedNames,
)


def make_cache(live_names=("A", "B", "C")):
    live = {n: object() for n in live_names}
    metrics = Metrics()
    return AdmissionCache(live, metrics), live, metrics


class TestRegistration:
    # Only sessions whose verdict needs the policy register here; the
    # others are classified at admission (tests/test_lock_transitions.py
    # ::TestSettleRouting).

    def test_tracks_deps_gets_phase1_and_dirty(self):
        cache, _, _ = make_cache()
        cache.register("A", tracks_deps=True)
        assert "A" in cache.phase1 and "A" in cache.dirty
        assert "A" not in cache.dynamic

    def test_no_declaration_dynamic_joins_every_tick_set(self):
        cache, _, _ = make_cache()
        cache.register("A", tracks_deps=False)
        assert "A" in cache.dynamic
        assert "A" not in cache.dirty

    def test_forget_clears_every_route(self):
        # The runnable index goes with the classification
        # (TestPendingLockRegistration::test_clear_undoes_what_the_state_holds).
        cache, _, _ = make_cache()
        cache.register("A", tracks_deps=True)
        cache.subscribe("A", ["ch1"])
        cache.forget("A")
        assert not cache.dirty and not cache.phase1
        assert cache.channel_subs == {} and cache.session_subs == {}


class TestChannels:
    def test_policy_changed_marks_only_subscribers_dirty(self):
        cache, _, metrics = make_cache()
        cache.subscribe("A", ["ch1", "ch2"])
        cache.subscribe("B", ["ch2"])
        cache.policy_changed(("ch2",))
        assert cache.dirty == {"A", "B"}
        assert metrics.invalidations == 2
        cache.policy_changed(("ch-unknown",))
        assert metrics.invalidations == 2

    def test_resubscribe_moves_channels(self):
        cache, _, _ = make_cache()
        cache.subscribe("A", ["ch1", "ch2"])
        cache.subscribe("A", ["ch2", "ch3"])
        assert cache.channel_subs == {"ch2": {"A"}, "ch3": {"A"}}
        assert cache.session_subs["A"] == ("ch2", "ch3")
        cache.subscribe("A", [])
        assert cache.channel_subs == {} and cache.session_subs == {}

    def test_departed_subscriber_is_not_marked(self):
        cache, live, metrics = make_cache()
        cache.subscribe("A", ["ch1"])
        del live["A"]
        cache.policy_changed(("ch1",))
        assert cache.dirty == set()
        assert metrics.invalidations == 0

    def test_already_dirty_subscriber_counts_once(self):
        cache, _, metrics = make_cache()
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
        cache = AdmissionCache(live, metrics)
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
        cache = AdmissionCache(live, metrics)
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
    def test_phase1_candidates_drains_phase1_keeps_standing_sets(self):
        cache, live, _ = make_cache(("A", "B", "C"))
        cache.complete.add("A")
        cache.dynamic.add("B")
        cache.phase1.add("C")
        cache.phase1.add("GONE")
        first = set(cache.phase1_candidates())
        assert first == {"A", "B", "C"}
        assert cache.phase1 == set()
        # complete/dynamic are standing: they come back next tick.
        assert set(cache.phase1_candidates()) == {"A", "B"}

    def test_take_check_slices_is_sorted_filtered_and_draining(self):
        cache, live, _ = make_cache(("A", "B", "C", "D"))
        cache.dirty.update({"C", "A", "GONE"})
        cache.dynamic.add("B")
        cache.complete.add("D")
        cache.dirty.add("D")  # complete sessions are never re-classified
        assert cache.take_check_slices() == ["A", "B", "C"]
        # dirty drained; dynamic remains standing.
        assert cache.take_check_slices() == ["B"]
