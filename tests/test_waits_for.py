"""The waits-for subsystem: the stored graph and the detection view
against the lock table and the from-scratch oracle.

:class:`repro.sim.WaitsForGraph` keeps the forward edges and the reverse
blocker index in sync through every edge update and detects cycles with
the reference DFS (:func:`repro.sim.deadlock.find_cycle_counted`) on its
stored edges or on a view handed to it.  The simulator stores POLICY_WAIT
edges only; its searches walk :class:`repro.sim.admission.DetectionView`,
which reads a LOCK_WAIT session's edges from the lock table.  The
detector cannot diverge from the naive engine's, so what carries the
weight is the graph it walks: these tests drive the stored graph through
randomized churn (block, re-derive, extend, departure) checking the index
invariant and the oracle after every step, check the view against an
independent rebuild over randomized lock tables, and check inside
running deadlock storms that the view equals a rebuild from the live
table at every detection.
"""

import random

import pytest

from repro.core import LockMode, Operation, Step, StructuralState
from repro.policies import AltruisticPolicy, TwoPhasePolicy
from repro.sim import (
    LockTable,
    Simulator,
    WaitsForGraph,
    WorkloadItem,
    deadlock_storm_workload,
)
from repro.sim.admission import DetectionView
from repro.sim.deadlock import find_cycle, find_cycle_counted
from repro.sim.live import LOCK_WAIT, POLICY_WAIT, RUNNABLE
from repro.sim.scheduler import _Run

from test_lock_transitions import ScriptPolicy


def assert_oracle(graph: WaitsForGraph):
    """One detection on the maintained graph must equal the from-scratch
    oracle on a snapshot, bit for bit, with the index in sync."""
    expected = find_cycle(graph.snapshot())
    got = graph.find_cycle()
    assert got == expected, (
        f"detector diverged: {got!r} vs oracle {expected!r} "
        f"on {graph.snapshot()!r}"
    )
    graph.check_consistency()
    return got


class TestEdgeMaintenance:
    def test_set_edges_syncs_reverse_index(self):
        g = WaitsForGraph()
        g.set_edges("A", {"B", "C"})
        assert g.blocked_by == {"B": {"A"}, "C": {"A"}}
        g.set_edges("A", {"C", "D"})
        assert g.blocked_by == {"C": {"A"}, "D": {"A"}}
        g.check_consistency()

    def test_drop_edges_clears_reverse_entries(self):
        g = WaitsForGraph()
        g.set_edges("A", {"B"})
        g.drop_edges("A")
        assert g.waits_for == {}
        assert g.blocked_by == {}

    def test_add_edge_if_tracked_requires_tracking(self):
        g = WaitsForGraph()
        g.add_edge_if_tracked("A", "B")  # untracked: no-op
        assert g.waits_for == {}
        g.set_edges("A", {"B"})
        g.add_edge_if_tracked("A", "C")
        assert g.waits_for["A"] == {"B", "C"}
        g.check_consistency()

    def test_forget_prunes_both_directions_and_returns_waiters(self):
        g = WaitsForGraph()
        g.set_edges("A", {"V"})
        g.set_edges("B", {"V", "C"})
        g.set_edges("V", {"C"})
        waiters = g.forget("V")
        assert waiters == {"A", "B"}
        assert "V" not in g.waits_for
        assert g.waits_for["A"] == set()
        assert g.waits_for["B"] == {"C"}
        g.check_consistency()


class TestOracleEquality:
    def test_simple_cycle(self):
        g = WaitsForGraph()
        g.set_edges("A", {"B"})
        g.set_edges("B", {"A"})
        assert set(assert_oracle(g)) == {"A", "B"}

    def test_no_cycle(self):
        g = WaitsForGraph()
        g.set_edges("A", {"B"})
        g.set_edges("B", {"C"})
        assert assert_oracle(g) is None

    def test_chain_into_cycle_and_victim_abort_churn(self):
        # The storm shape: a chain of waiters into a small cycle; each
        # detection is followed by the victim's departure and the
        # waiters' edge re-derivation, exactly as the scheduler does.
        g = WaitsForGraph()
        n = 30
        names = [f"T{i:03d}" for i in range(n)]
        for a, b in zip(names, names[1:]):
            g.set_edges(a, {b})
        g.set_edges(names[-1], {names[-3]})  # cycle at the chain's end
        for _ in range(3):
            cycle = assert_oracle(g)
            assert cycle is not None
            victim = min(cycle)
            for w in g.forget(victim):
                # the waiters re-derive edges (here: they just unblock)
                g.drop_edges(w)
            # a fresh pair re-forms a cycle at the tail
            g.set_edges(victim, {names[-1]})
            g.set_edges(names[-1], {victim})

    def test_certificates_invalidated_by_new_edges(self):
        g = WaitsForGraph()
        g.set_edges("A", {"B"})
        g.set_edges("B", {"C"})
        assert assert_oracle(g) is None
        # A new edge C -> A closes a cycle through nodes an earlier
        # detection found acyclic.
        g.set_edges("C", {"A"})
        cycle = assert_oracle(g)
        assert cycle is not None and set(cycle) == {"A", "B", "C"}

    def test_walk_cleared_when_smaller_root_appears(self):
        g = WaitsForGraph()
        g.set_edges("M1", {"M2"})
        g.set_edges("M2", {"M1"})
        assert_oracle(g)
        # A new node sorting before M1 becomes the reference's first root.
        g.set_edges("A0", {"M1"})
        assert_oracle(g)

    def test_sinks_fall_back_to_reference(self):
        g = WaitsForGraph()
        g.set_edges("A", {"B"})
        g.set_edges("B", {"A"})
        assert_oracle(g)
        # Cut the cycle into a sink, then close it again.
        g.set_edges("B", set())
        assert assert_oracle(g) is None
        g.set_edges("B", {"A"})
        assert_oracle(g)

    def test_resolves_next_cycle_after_victim_abort(self):
        """A victim abort as the scheduler performs it (the victim
        departs, its waiters re-derive their edges) leaves a graph the
        next detection walks from scratch: the surviving cycle is found
        with exactly the oracle's visit count on the new graph."""
        g = WaitsForGraph()
        g.set_edges("a", {"b", "e"})  # cross edge into the eventual victim
        g.set_edges("b", {"c"})
        g.set_edges("c", {"d"})
        g.set_edges("d", {"e"})
        g.set_edges("e", {"c"})
        cycle = assert_oracle(g)
        assert cycle is not None and set(cycle) == {"c", "d", "e"}
        assert g.last_visits == 5  # the detection walked the whole chain
        g.forget("e")
        g.set_edges("a", {"b"})
        g.set_edges("d", {"c"})
        _, oracle_visits = find_cycle_counted(g.snapshot())
        cycle2 = assert_oracle(g)
        assert cycle2 is not None and set(cycle2) == {"c", "d"}
        assert g.last_visits == oracle_visits == 4

    def test_acyclic_regions_are_rewalked_like_the_oracle(self):
        """No state survives between detections: after only the cycle
        region changed, the second detection re-walks the acyclic tendril
        exactly as the from-scratch oracle does."""
        g = WaitsForGraph()
        for i in range(50):
            g.set_edges(f"A{i:02d}", {f"B{i:02d}"})
        g.set_edges("Z1", {"Z2"})
        g.set_edges("Z2", {"Z1"})
        first = assert_oracle(g)
        assert set(first) == {"Z1", "Z2"}
        first_visits = g.last_visits
        g.forget("Z1")
        g.set_edges("Z1", {"Z2"})
        g.set_edges("Z2", {"Z1"})
        _, oracle_visits = find_cycle_counted(g.snapshot())
        second = assert_oracle(g)
        assert set(second) == {"Z1", "Z2"}
        assert g.last_visits == oracle_visits == first_visits

    @pytest.mark.parametrize("seed", range(4))
    def test_churn_visits_equal_oracle(self, seed):
        """Over a churn sequence with a stable acyclic backbone, every
        detection pushes exactly as many nodes as the from-scratch oracle
        on a snapshot of the same graph."""
        rng = random.Random(1000 + seed)
        names = [f"T{i:02d}" for i in range(20)]
        g = WaitsForGraph()
        for i in range(10):
            g.set_edges(f"S{i:02d}", {f"S{i + 1:02d}"})
        detections = 0
        for step in range(200):
            name = rng.choice(names)
            if rng.random() < 0.6:
                blockers = {
                    b for b in rng.sample(names, k=rng.randrange(0, 3))
                    if b != name
                }
                g.set_edges(name, blockers)
            else:
                g.forget(name)
            if step % 5 == 0:
                _, oracle_visits = find_cycle_counted(g.snapshot())
                assert_oracle(g)
                assert g.last_visits == oracle_visits
                detections += 1
        assert detections == 40

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_churn_matches_oracle(self, seed):
        rng = random.Random(seed)
        names = [f"T{i:02d}" for i in range(14)]
        g = WaitsForGraph()
        for step in range(300):
            op = rng.random()
            name = rng.choice(names)
            if op < 0.45:
                k = rng.randrange(0, 3)
                blockers = {
                    b for b in rng.sample(names, k=k) if b != name
                }
                g.set_edges(name, blockers)
            elif op < 0.6:
                if name in g.waits_for:
                    g.add_edge_if_tracked(
                        name, rng.choice([b for b in names if b != name])
                    )
            elif op < 0.75:
                g.drop_edges(name)
            else:
                g.forget(name)
            if step % 7 == 0:
                assert_oracle(g)
        assert_oracle(g)


class _Entry:
    """A live-table entry as far as the view reads one: its state."""

    def __init__(self, state):
        self.state = state


class TestDetectionView:
    """The view maps exactly the blocked sessions: a LOCK_WAIT one to the
    live holders whose effective mode conflicts with its queued request,
    a POLICY_WAIT one to its stored edges; and a detection on it equals
    the oracle's on a snapshot."""

    @staticmethod
    def rebuild(live, table, stored):
        """The view's contract from the holder map and the conflict rule,
        without ``LockTable.blockers``."""
        graph = {}
        for name, entry in live.items():
            if entry.state == POLICY_WAIT:
                graph[name] = stored[name]
            elif entry.state == LOCK_WAIT:
                entity = table.waiting_entity(name)
                wanted = table.queue(entity)[name]
                graph[name] = {
                    h for h, held in table.holders(entity).items()
                    if h != name and h in live and wanted.conflicts_with(held)
                }
        return graph

    @pytest.mark.parametrize("seed", range(8))
    def test_view_equals_a_rebuild_from_the_table(self, seed):
        rng = random.Random(seed)
        names = [f"T{i:02d}" for i in range(12)]
        entities = ["a", "b", "c"]
        modes = (LockMode.SHARED, LockMode.EXCLUSIVE)
        live, table, graph = {}, LockTable(), WaitsForGraph()
        view = DetectionView(live, table, graph)
        for _ in range(200):
            name = rng.choice(names)
            op = rng.random()
            entry = live.get(name)
            if entry is None:
                live[name] = _Entry(RUNNABLE)
            elif op < 0.3:
                entity, mode = rng.choice(entities), rng.choice(modes)
                if table.grantable(name, entity, mode):
                    table.acquire(name, entity, mode)
            elif op < 0.5 and entry.state != POLICY_WAIT:
                # Queue a request; it blocks when something conflicts.
                entity, mode = rng.choice(entities), rng.choice(modes)
                table.add_waiter(name, entity, mode)
                if not table.grantable(name, entity, mode):
                    entry.state = LOCK_WAIT
            elif op < 0.6 and entry.state == RUNNABLE:
                table.remove_waiter(name)
                entry.state = POLICY_WAIT
                graph.set_edges(name, set(rng.sample(names, k=2)) - {name})
            elif op < 0.75:
                held = sorted(table.held_by(name).items())
                if held:
                    entity, mode = rng.choice(held)
                    table.release(name, entity, mode)
            else:
                # Departure: no longer live, no locks, no edges at it.
                del live[name]
                table.release_all_wake(name)
                graph.forget(name)
            expected = self.rebuild(live, table, graph.waits_for)
            assert view.snapshot() == expected
            assert sorted(view) == sorted(expected)
            assert all(view.get(n) == expected.get(n) for n in names)
            got = graph.find_cycle(view)
            visits = graph.last_visits
            assert (got, visits) == find_cycle_counted(expected)


def table_rebuild(run):
    """The waits-for graph rebuilt from the live table the way the naive
    engine builds it: a lock waiter waits on the live conflicting holders
    of the entity it is queued on, a policy waiter on the live sessions
    its admission verdict names."""
    live = run.live
    table = run.table
    rebuilt = {}
    for name, entry in live.items():
        if entry.state == LOCK_WAIT:
            entity = table.waiting_entity(name)
            mode = table.queue(entity)[name]
            waits = table.blockers(name, entity, mode)
        elif entry.state == POLICY_WAIT:
            waits = entry.session.admission().waiting_on
        else:
            continue
        rebuilt[name] = {w for w in waits if w in live}
    return rebuilt


def early_release_storm(num_txns=60, num_entities=4, seed=0):
    """Transactions that lock one entity (mostly shared), take a second
    one exclusively, release the first and then block on a third.  A
    shared release leaves the entity's exclusive waiters blocked by the
    other readers, and the releaser stays live and blocked afterwards, so
    a stale edge to it reaches the deadlock phase."""
    rng = random.Random(seed)
    entities = [f"e{i}" for i in range(num_entities)]
    items = []
    for i in range(num_txns):
        a, c, b = rng.sample(entities, 3)
        mode = LockMode.SHARED if rng.random() < 0.7 else LockMode.EXCLUSIVE
        steps = [
            Step(mode.lock_op, a),
            Step(Operation.READ, a),
            Step(Operation.LOCK_EXCLUSIVE, c),
            Step(mode.unlock_op, a),
            Step(Operation.LOCK_EXCLUSIVE, b),
            Step(Operation.WRITE, b),
            Step(Operation.WRITE, c),
        ]
        items.append(WorkloadItem(f"T{i:03d}", steps, start_tick=i // 2))
    return items, StructuralState.of(*entities)


STORMS = {
    "2pl": (TwoPhasePolicy, lambda: deadlock_storm_workload(
        40, 60, accesses_per_txn=2, arrival_rate=0.5,
        hot_set_size=4, hot_traffic=0.8, seed=3,
    )),
    "altruistic": (AltruisticPolicy, lambda: deadlock_storm_workload(
        60, 60, accesses_per_txn=2, arrival_rate=0.15,
        hot_set_size=8, hot_traffic=0.45, seed=0,
    )),
    "early-shared-release": (ScriptPolicy, early_release_storm),
}


class TestInSimulationOracle:
    def test_every_detection_matches_oracle_in_storm(self, monkeypatch):
        """Run a deadlock storm under the event engine with every
        detection checked against the from-scratch oracle on a snapshot of
        the graph it walks."""
        checked = {"detections": 0}
        orig = WaitsForGraph.find_cycle

        def checking(self, graph=None):
            walked = self.waits_for if graph is None else graph
            expected = find_cycle({n: set(walked[n]) for n in walked})
            got = orig(self, graph)
            assert got == expected
            checked["detections"] += 1
            return got

        monkeypatch.setattr(WaitsForGraph, "find_cycle", checking)
        items, initial = deadlock_storm_workload(
            40, 60, accesses_per_txn=2, arrival_rate=0.5,
            hot_set_size=4, hot_traffic=0.8, seed=3,
        )
        result = Simulator(
            TwoPhasePolicy(), seed=3, engine="event", max_ticks=500_000
        ).run(items, initial, validate=False)
        assert result.metrics.deadlocks > 0
        assert checked["detections"] == result.metrics.cycle_detections

    @pytest.mark.parametrize("storm", sorted(STORMS))
    def test_maintained_graph_equals_table_rebuild(self, monkeypatch, storm):
        """At every deadlock phase the detection view equals a rebuild
        from the live table, and the stored edges are its POLICY_WAIT
        part.  The detector walks the view as given, so this is what
        keeps it equal to the naive engine's; a stale edge fails here even
        where it happens not to change a cycle (a shared release leaves
        exclusive waiters blocked by the other readers in the
        early-shared-release storm)."""
        policy, build = STORMS[storm]
        checked = {"detections": 0, "policy_waits": 0}
        orig = _Run._phase_deadlock

        def checking(run):
            rebuilt = table_rebuild(run)
            assert run.classifier.view.snapshot() == rebuilt
            assert run.graph.waits_for == {
                n: edges for n, edges in rebuilt.items()
                if run.live[n].state == POLICY_WAIT
            }
            checked["detections"] += 1
            checked["policy_waits"] += sum(
                e.state == POLICY_WAIT for e in run.live.values()
            )
            return orig(run)

        monkeypatch.setattr(_Run, "_phase_deadlock", checking)
        items, initial = build()
        result = Simulator(
            policy(), seed=0, engine="event", max_ticks=500_000
        ).run(items, initial, validate=False)
        assert result.metrics.deadlocks > 0
        assert checked["detections"] == result.metrics.cycle_detections
        if policy is AltruisticPolicy:
            assert checked["policy_waits"] > 0, "no policy-wait edge checked"

    @pytest.mark.parametrize("storm", sorted(STORMS))
    def test_storm_visits_equal_naive(self, storm):
        """Both engines run the same DFS over the same graph, so on one
        seed their victim sequences, detection counts and ``cycle_visits``
        work counters are equal."""
        policy, build = STORMS[storm]
        out = {}
        for engine in ("naive", "event"):
            items, initial = build()
            result = Simulator(
                policy(), seed=0, engine=engine, max_ticks=500_000
            ).run(items, initial, validate=False)
            out[engine] = result.metrics
        naive, event = out["naive"], out["event"]
        assert event.deadlocks > 0
        assert naive.deadlock_victims == event.deadlock_victims
        assert naive.cycle_detections == event.cycle_detections
        assert naive.cycle_visits == event.cycle_visits
