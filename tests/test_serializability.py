"""Unit tests for the serializability graph D(S) and equivalence tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Schedule,
    StructuralState,
    Transaction,
    is_serializable,
    serializability_graph,
)
from repro.core.operations import Operation
from repro.core.serializability import (
    SerializabilityGraph,
    _reduced_conflict_graph,
    conflict_equivalent,
    equivalent_serial_schedule,
    is_serializable_by_definition,
    serialization_order,
)
from repro.core.steps import Step
from repro.graphs import chain
from repro.policies import (
    Access,
    BrokenAltruisticPolicy,
    BrokenDdagPolicy,
    FreeForAllPolicy,
    Unlock,
)
from repro.sim import Simulator, WorkloadItem, dag_structural_state


def _pair(order):
    t1 = Transaction.from_text("T1", "(LX a) (W a) (UX a) (LX b) (W b) (UX b)")
    t2 = Transaction.from_text("T2", "(LX b) (W b) (UX b) (LX a) (W a) (UX a)")
    return Schedule.from_order([t1, t2], order)


class TestGraph:
    def test_serial_schedule_graph_is_acyclic(self):
        s = _pair(["T1"] * 6 + ["T2"] * 6)
        g = serializability_graph(s)
        assert g.edges == {("T1", "T2")}
        assert g.is_acyclic()

    def test_cyclic_interleaving(self):
        # T1 takes a, T2 takes b, then each needs the other's entity.
        s = _pair(["T1", "T1", "T1", "T2", "T2", "T2", "T2", "T2", "T2", "T1", "T1", "T1"])
        g = serializability_graph(s)
        assert ("T1", "T2") in g.edges and ("T2", "T1") in g.edges
        assert not g.is_acyclic()
        assert not is_serializable(s)

    def test_edge_witnesses_recorded(self):
        s = _pair(["T1"] * 6 + ["T2"] * 6)
        g = serializability_graph(s)
        witness = g.witness_for(("T1", "T2"))
        assert witness is not None
        first, second = witness
        assert first.txn == "T1" and second.txn == "T2"
        assert first.step.conflicts_with(second.step)

    def test_sources_sinks(self):
        g = SerializabilityGraph(
            frozenset({"A", "B", "C"}), frozenset({("A", "B"), ("B", "C")})
        )
        assert g.sources() == {"A"}
        assert g.sinks() == {"C"}

    def test_isolated_node_is_source_and_sink(self):
        g = SerializabilityGraph(frozenset({"A", "B"}), frozenset())
        assert g.sources() == {"A", "B"} == g.sinks()

    def test_find_cycle_returns_closed_walk(self):
        g = SerializabilityGraph(
            frozenset("ABC"), frozenset({("A", "B"), ("B", "C"), ("C", "A")})
        )
        cycle = g.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) <= {"A", "B", "C"}

    def test_topological_sort(self):
        g = SerializabilityGraph(
            frozenset("ABC"), frozenset({("A", "B"), ("B", "C")})
        )
        assert g.topological_sort() == ["A", "B", "C"]

    def test_topological_sort_cyclic_raises(self):
        g = SerializabilityGraph(frozenset("AB"), frozenset({("A", "B"), ("B", "A")}))
        with pytest.raises(ValueError):
            g.topological_sort()

    def test_all_topological_sorts(self):
        g = SerializabilityGraph(frozenset("ABC"), frozenset({("A", "B")}))
        sorts = g.all_topological_sorts()
        assert ["A", "B", "C"] in sorts
        assert ["C", "A", "B"] in sorts
        assert all(s.index("A") < s.index("B") for s in sorts)

    def test_inactive_transactions_excluded(self):
        t1 = Transaction.from_text("T1", "(LX a) (W a) (UX a)")
        t2 = Transaction.from_text("T2", "(LX a) (W a) (UX a)")
        s = Schedule.from_order([t1, t2], ["T1"] * 3)
        g = serializability_graph(s)
        assert g.nodes == {"T1"}


class TestEquivalence:
    def test_serialization_order_of_serial(self):
        s = _pair(["T2"] * 6 + ["T1"] * 6)
        assert serialization_order(s) == ["T2", "T1"]

    def test_equivalent_serial_schedule_is_equivalent(self):
        # Same access order in both transactions: the pipelined interleaving
        # is legal, proper, and conflict-equivalent to serial T1;T2.
        t1 = Transaction.from_text("T1", "(LX a) (W a) (UX a) (LX b) (W b) (UX b)")
        t2 = Transaction.from_text("T2", "(LX a) (W a) (UX a) (LX b) (W b) (UX b)")
        s = Schedule.from_order(
            [t1, t2],
            ["T1", "T1", "T1", "T2", "T2", "T1", "T2", "T1", "T1", "T2", "T2", "T2"],
        )
        assert is_serializable(s)
        serial = equivalent_serial_schedule(s)
        assert serial.is_serial()
        assert conflict_equivalent(s, serial)

    def test_graph_test_agrees_with_definition(self):
        orders = [
            ["T1"] * 6 + ["T2"] * 6,
            ["T1", "T1", "T1", "T2", "T2", "T2", "T2", "T2", "T2", "T1", "T1", "T1"],
            ["T1", "T2", "T1", "T2", "T1", "T2", "T2", "T1", "T2", "T1", "T2", "T1"],
        ]
        for order in orders:
            s = _pair(order)
            assert is_serializable(s) == is_serializable_by_definition(s)

    def test_conflict_equivalent_requires_same_events(self):
        s1 = _pair(["T1"] * 6 + ["T2"] * 6)
        s2 = _pair(["T1"] * 6 + ["T2"] * 6).prefix(6)
        assert not conflict_equivalent(s1, s2)


# ----------------------------------------------------------------------
# ``is_serializable`` decides on a reduced graph; the full D(S) is its oracle
# ----------------------------------------------------------------------


def _arbitrary_schedule(rng: random.Random, max_txns: int) -> Schedule:
    """An arbitrary interleaving of random transactions over all eight
    operations on 1-3 entities: not lock-respecting, and a transaction
    may touch the same entity any number of times."""
    entities = "abc"[: rng.randint(1, 3)]
    txns = [
        Transaction(f"T{i}", tuple(
            Step(rng.choice(list(Operation)), rng.choice(entities))
            for _ in range(rng.randint(1, 5))
        ))
        for i in range(rng.randint(2, max_txns))
    ]
    order = [t.name for t in txns for _ in t.steps]
    rng.shuffle(order)
    return Schedule.from_order(txns, order)


def _verdict_checked_against_full_graph(schedule: Schedule) -> bool:
    full = serializability_graph(schedule)
    reduced = _reduced_conflict_graph(schedule)
    assert is_serializable(schedule) == full.is_acyclic(), str(schedule)
    assert {(a, b) for a in reduced for b in reduced[a]} <= full.edges
    return full.is_acyclic()


class TestReducedVerdict:
    def test_agrees_with_the_full_graph_on_fixed_seeds(self):
        verdicts = {
            _verdict_checked_against_full_graph(
                _arbitrary_schedule(random.Random(seed), max_txns=8)
            )
            for seed in range(3000)
        }
        assert verdicts == {True, False}

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_full_graph_property(self, seed):
        _verdict_checked_against_full_graph(
            _arbitrary_schedule(random.Random(seed), max_txns=8)
        )

    def test_agrees_with_the_definition_on_small_systems(self):
        verdicts = set()
        for seed in range(300):
            s = _arbitrary_schedule(random.Random(seed), max_txns=5)
            assert is_serializable(s) == is_serializable_by_definition(s), str(s)
            verdicts.add(is_serializable(s))
        assert verdicts == {True, False}

    def test_a_reader_reaches_a_later_writer_through_the_next_one(self):
        # T1's read precedes T3's write with T2's write in between: the
        # reduced graph drops T1->T3 and must still find the cycle
        # T3 -> T1 (on b) -> T2 -> T3 (on a).
        t1 = Transaction.from_text("T1", "(W b) (R a)")
        t2 = Transaction.from_text("T2", "(W a)")
        t3 = Transaction.from_text("T3", "(W b) (W a)")
        s = Schedule.from_order([t1, t2, t3], ["T3", "T1", "T1", "T2", "T3"])
        assert ("T1", "T3") in serializability_graph(s).edges
        assert "T3" not in _reduced_conflict_graph(s)["T1"]
        assert not is_serializable(s)

    def test_unsafe_policy_runs_are_still_rejected(self):
        """Every schedule the negative-control policies produce gets the
        verdict the full graph gives it, and some are rejected."""
        items = [
            WorkloadItem("LONG", [Access("a"), Access("b"), Access("c")]),
            WorkloadItem("S", [Access("c"), Access("a")]),
        ]
        init = StructuralState.of("a", "b", "c")
        dag = chain(3)
        ddag_items = [
            WorkloadItem("T1", [Access(2), Unlock(2), Access(3)]),
            WorkloadItem("T2", [Access(3), Unlock(3), Access(2)]),
        ]
        rejected = {"free-for-all": 0, "altruistic-noAL2": 0, "ddag-noL5": 0}
        for seed in range(60):
            runs = {
                "free-for-all": Simulator(FreeForAllPolicy(), seed=seed).run(
                    items, init),
                "altruistic-noAL2": Simulator(
                    BrokenAltruisticPolicy(), seed=seed).run(items, init),
                "ddag-noL5": Simulator(
                    BrokenDdagPolicy(auto_release=False), seed=seed,
                    context_kwargs={"dag": chain(3)},
                ).run(ddag_items, dag_structural_state(dag)),
            }
            for name, result in runs.items():
                rejected[name] += not _verdict_checked_against_full_graph(
                    result.schedule
                )
        assert all(rejected.values()), rejected
