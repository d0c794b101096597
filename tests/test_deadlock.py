"""Direct unit coverage of the deadlock-resolution layer
(:mod:`repro.sim.deadlock`): the deterministic victim tie-break and
multi-cycle victim selection.

The victim ordering (documented in the module) is the lexicographic
minimum of ``(has_structural_effects, step_count, name)`` over the *found
cycle's* members — and the found cycle itself is deterministic (sorted
roots, sorted neighbours, first back edge), so when the graph holds
several cycles the victim pool is the cycle the reference DFS meets
first, not the global cheapest session.  Until now this was covered only
indirectly through the engine-equivalence suites.
"""

from repro.core import Operation, Step
from repro.policies.base import ScriptedSession
from repro.sim import WorkloadItem
from repro.sim.deadlock import (
    find_cycle,
    find_cycle_counted,
    pick_victim,
    victim_cost,
)
from repro.sim.live import LiveEntry
from repro.sim.metrics import TxnRecord


def entry(name, steps_executed=0, structural=False):
    steps = [Step(Operation.INSERT if structural else Operation.READ, "x")]
    session = ScriptedSession(name, steps)
    if structural:
        session.executed()  # records the structural effect
    e = LiveEntry(
        item=WorkloadItem(name, []),
        session=session,
        record=TxnRecord(name, start_tick=0),
    )
    e.step_count = steps_executed
    return e


class TestVictimCost:
    def test_ordering_is_effects_then_steps_then_name(self):
        live = {
            "A": entry("A", steps_executed=1, structural=True),
            "B": entry("B", steps_executed=9),
            "C": entry("C", steps_executed=9),
        }
        cost = victim_cost(live)
        assert cost("A") == (1, 1, "A")
        assert cost("B") == (0, 9, "B")
        # Pure sessions beat structural ones regardless of step count...
        assert cost("B") < cost("A")
        # ...fewer steps beat more steps, and the name breaks exact ties.
        assert cost("B") < cost("C")

    def test_pick_victim_is_min_over_cycle_only(self):
        live = {
            "A": entry("A", steps_executed=5),
            "B": entry("B", steps_executed=2),
            "D": entry("D", steps_executed=0),  # cheapest, but off-cycle
        }
        assert pick_victim(["A", "B"], live) == "B"


class TestMultiCycleSelection:
    def test_victim_comes_from_first_found_cycle(self):
        # Two disjoint cycles; the reference DFS (sorted roots) meets the
        # A/B cycle first, so the victim pool is {A, B} even though Y has
        # executed fewer steps than either.
        graph = {
            "A": {"B"}, "B": {"A"},
            "X": {"Y"}, "Y": {"X"},
        }
        live = {
            "A": entry("A", steps_executed=5),
            "B": entry("B", steps_executed=4),
            "X": entry("X", steps_executed=9),
            "Y": entry("Y", steps_executed=0),
        }
        assert set(find_cycle(graph)) == {"A", "B"}
        cycle, visits = find_cycle_counted(graph)
        assert pick_victim(cycle, live) == "B"
        assert set(cycle) == {"A", "B"}
        assert visits >= 2

    def test_overlapping_cycles_resolve_deterministically(self):
        # Two cycles sharing node B: A->B->A and B->C->B.  The sorted DFS
        # from A finds the back edge to A first, so the victim pool is
        # the A/B cycle on every run.
        graph = {"A": {"B"}, "B": {"A", "C"}, "C": {"B"}}
        live = {
            "A": entry("A", steps_executed=3),
            "B": entry("B", steps_executed=3),
            "C": entry("C", steps_executed=0),
        }
        for _ in range(3):  # determinism: same answer every time
            cycle, _ = find_cycle_counted(graph)
            assert set(cycle) == {"A", "B"}
            assert pick_victim(cycle, live) == "A"  # tie on (0, 3): name breaks it

    def test_structural_member_survives_while_pure_member_exists(self):
        graph = {"A": {"B"}, "B": {"A"}}
        live = {
            "A": entry("A", steps_executed=0, structural=True),
            "B": entry("B", steps_executed=50),
        }
        cycle, _ = find_cycle_counted(graph)
        assert pick_victim(cycle, live) == "B"

    def test_acyclic_graph_reports_no_deadlock(self):
        assert find_cycle_counted({"A": {"B"}})[0] is None

    def test_counted_visits_cover_whole_walk(self):
        # An acyclic 4-node graph: the counted walk must push every node
        # exactly once.
        graph = {"A": {"B"}, "B": {"C"}, "C": {"D"}, "D": set()}
        cycle, visits = find_cycle_counted(graph)
        assert cycle is None
        assert visits == 4
