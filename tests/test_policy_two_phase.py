"""Tests for the strict 2PL baseline policy."""

import random
from typing import List, Sequence, Set, Tuple

import pytest

from repro.core import is_serializable
from repro.core.operations import Operation
from repro.core.states import StructuralState
from repro.core.steps import Entity, Step
from repro.core.transactions import Transaction
from repro.policies import (
    Access,
    DeleteEdge,
    DeleteNode,
    InsertEdge,
    InsertNode,
    Intent,
    Read,
    TwoPhasePolicy,
    Write,
    access_steps,
    edge_entity,
    intent_entities,
)
from repro.sim import Simulator, WorkloadItem, random_access_workload

#: (use_shared_locks, conservative) for each variant of the policy.
VARIANTS = [(False, False), (True, False), (False, True), (True, True)]
VARIANT_IDS = ["2PL", "2PL-S", "2PL-cons", "2PL-S-cons"]


def _script(intents: Sequence[Intent], use_shared: bool, conservative: bool) -> List[Step]:
    ctx = TwoPhasePolicy(use_shared, conservative).create_context()
    return list(ctx.begin("T1", intents)._steps)


# ----------------------------------------------------------------------
# Reference builder: the two-pass construction the one-loop ``begin``
# replaced — classify every touched entity first, then lay out the data
# steps — with an edge's endpoints and an inserted node's parents locked
# just before the intent's first data step (the incremental variant
# used to unlock them without ever locking them).
# ----------------------------------------------------------------------


def _reference_classify(
    intents: Sequence[Intent], use_shared: bool
) -> Tuple[List[Entity], List[Entity]]:
    """Split touched entities into (exclusive, shared) lock lists, in
    first-need order; an exclusive need moves a shared entity to the end
    of the exclusive list."""
    exclusive: List[Entity] = []
    shared: List[Entity] = []

    def need_x(e: Entity) -> None:
        if e in shared:
            shared.remove(e)
        if e not in exclusive:
            exclusive.append(e)

    def need_s(e: Entity) -> None:
        if e not in shared and e not in exclusive:
            shared.append(e)

    for intent in intents:
        if isinstance(intent, Read):
            (need_s if use_shared else need_x)(intent.entity)
        elif isinstance(intent, (Access, Write)):
            need_x(intent.entity)
        elif isinstance(intent, InsertNode):
            need_x(intent.node)
            for p in intent.parents:
                need_x(edge_entity(p, intent.node))
                need_x(p)
        elif isinstance(intent, DeleteNode):
            need_x(intent.node)
        elif isinstance(intent, (InsertEdge, DeleteEdge)):
            need_x(edge_entity(intent.u, intent.v))
            need_x(intent.u)
            need_x(intent.v)
        else:
            raise TypeError(f"unknown intent {intent!r}")
    return exclusive, shared


def _reference_data_steps(intent: Intent) -> Tuple[Step, ...]:
    if isinstance(intent, Access):
        return access_steps(intent.entity)
    if isinstance(intent, Read):
        return (Step(Operation.READ, intent.entity),)
    if isinstance(intent, Write):
        return (Step(Operation.WRITE, intent.entity),)
    if isinstance(intent, InsertNode):
        return (Step(Operation.INSERT, intent.node),) + tuple(
            Step(Operation.INSERT, edge_entity(p, intent.node))
            for p in intent.parents
        )
    if isinstance(intent, DeleteNode):
        return (Step(Operation.DELETE, intent.node),)
    if isinstance(intent, InsertEdge):
        return (Step(Operation.INSERT, edge_entity(intent.u, intent.v)),)
    if isinstance(intent, DeleteEdge):
        return (Step(Operation.DELETE, edge_entity(intent.u, intent.v)),)
    raise TypeError(f"unknown intent {intent!r}")


def _reference_script(
    intents: Sequence[Intent], use_shared: bool, conservative: bool
) -> List[Step]:
    exclusive, shared = _reference_classify(intents, use_shared)
    steps: List[Step] = []
    if conservative:
        steps.extend(Step(Operation.LOCK_EXCLUSIVE, e) for e in exclusive)
        steps.extend(Step(Operation.LOCK_SHARED, e) for e in shared)
        for intent in intents:
            steps.extend(_reference_data_steps(intent))
    else:
        shared_set = set(shared)
        locked: Set[Entity] = set()

        def lock(e: Entity) -> None:
            if e not in locked:
                mode = (
                    Operation.LOCK_SHARED
                    if e in shared_set
                    else Operation.LOCK_EXCLUSIVE
                )
                steps.append(Step(mode, e))
                locked.add(e)

        for intent in intents:
            data = _reference_data_steps(intent)
            # An edge's endpoints, an inserted node's parents.
            named = [e for e in intent_entities(intent) if e != data[0].entity]
            for i, d in enumerate(data):
                lock(d.entity)
                if i == 0:
                    for e in named:
                        lock(e)
                steps.append(d)
    steps.extend(Step(Operation.UNLOCK_EXCLUSIVE, e) for e in exclusive)
    steps.extend(Step(Operation.UNLOCK_SHARED, e) for e in shared)
    return steps


#: One script per intent kind, each alone.
ONE_INTENT = {
    "Access": Access("a"),
    "Read": Read("a"),
    "Write": Write("a"),
    "InsertNode": InsertNode("n", ("p",)),
    "DeleteNode": DeleteNode("n"),
    "InsertEdge": InsertEdge("u", "v"),
    "DeleteEdge": DeleteEdge("u", "v"),
}

#: The pool random scripts draw from: four nodes and two edge entities,
#: so a read of an edge entity can later need its exclusive lock.
POOL: Tuple[Entity, ...] = ("a", "b", "c", "d", edge_entity("a", "b"), edge_entity("c", "a"))


def _random_intent(rng: random.Random) -> Intent:
    kind = rng.randrange(7)
    if kind == 0:
        return Access(rng.choice(POOL))
    if kind == 1:
        return Read(rng.choice(POOL))
    if kind == 2:
        return Write(rng.choice(POOL))
    if kind == 3:
        return InsertNode(
            rng.choice(POOL), tuple(rng.choice(POOL) for _ in range(rng.randrange(3)))
        )
    if kind == 4:
        return DeleteNode(rng.choice(POOL))
    if kind == 5:
        return InsertEdge(rng.choice(POOL), rng.choice(POOL))
    return DeleteEdge(rng.choice(POOL), rng.choice(POOL))


class TestSessionShape:
    def test_session_is_two_phase_and_well_formed(self):
        ctx = TwoPhasePolicy().create_context()
        session = ctx.begin("T1", [Access("a"), Read("b"), Write("c")])
        steps = list(session._steps)
        locks = [i for i, s in enumerate(steps) if s.is_lock]
        unlocks = [i for i, s in enumerate(steps) if s.is_unlock]
        assert max(locks) < min(unlocks)
        # every data op covered
        txn = Transaction("T1", tuple(steps))
        assert txn.is_well_formed()
        assert txn.is_two_phase()

    def test_shared_locks_only_when_enabled(self):
        ctx = TwoPhasePolicy(use_shared_locks=True).create_context()
        session = ctx.begin("T1", [Read("a"), Write("b")])
        steps = list(session._steps)
        assert any(s.op is Operation.LOCK_SHARED and s.entity == "a" for s in steps)
        assert any(s.op is Operation.LOCK_EXCLUSIVE and s.entity == "b" for s in steps)

    def test_exclusive_only_by_default(self):
        ctx = TwoPhasePolicy().create_context()
        session = ctx.begin("T1", [Read("a")])
        assert all(
            s.op is not Operation.LOCK_SHARED for s in session._steps
        )

    @pytest.mark.parametrize(
        "intents",
        [
            [Access("p"), InsertNode("n", parents=("p",))],
            [InsertNode("n", parents=("p",))],
        ],
        ids=["parent-accessed", "bare"],
    )
    def test_insert_node_intent(self, intents):
        ctx = TwoPhasePolicy().create_context()
        session = ctx.begin("T1", intents)
        txn = Transaction("T1", tuple(session._steps))
        assert txn.is_well_formed(), txn.well_formedness_violation()

    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("kind", sorted(ONE_INTENT))
    def test_every_intent_kind_alone(self, kind, variant):
        # An edge's endpoints and an inserted node's parents are locked
        # before they are unlocked, in every variant.
        txn = Transaction("T1", tuple(_script([ONE_INTENT[kind]], *variant)))
        assert txn.is_well_formed(), txn.well_formedness_violation()
        assert txn.is_two_phase()

    def test_edge_endpoints_locked_before_the_edge_step(self):
        assert [str(s) for s in _script([InsertEdge("u", "v")], False, False)] == [
            "(LX ('edge', 'u', 'v'))", "(LX u)", "(LX v)",
            "(I ('edge', 'u', 'v'))",
            "(UX ('edge', 'u', 'v'))", "(UX u)", "(UX v)",
        ]

    def test_unknown_intent_is_refused(self):
        with pytest.raises(TypeError, match="unknown intent"):
            TwoPhasePolicy().create_context().begin("T1", ["a"])


class TestOneLoopBuilder:
    """``begin`` against the two-pass reference above, step for step."""

    @pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
    def test_matches_the_two_pass_reference(self, variant):
        rng = random.Random(49)
        for _ in range(2_000):
            intents = [_random_intent(rng) for _ in range(rng.randint(1, 6))]
            script = _script(intents, *variant)
            assert script == _reference_script(intents, *variant), intents
            txn = Transaction("T1", tuple(script))
            assert txn.is_well_formed(), (intents, txn.well_formedness_violation())
            assert txn.is_two_phase(), intents

    def test_a_read_then_a_write_takes_one_exclusive_lock(self):
        # The lock's mode is the strongest the script needs; the unlock
        # order is the exclusive locks by first exclusive need.
        script = _script([Read("a"), Write("b"), Write("a")], True, False)
        assert [str(s) for s in script] == [
            "(LX a)", "(R a)", "(LX b)", "(W b)", "(W a)", "(UX b)", "(UX a)",
        ]


class TestRuns:
    @pytest.mark.parametrize("seed", range(5))
    def test_runs_are_serializable(self, seed):
        items, init = random_access_workload(5, 5, 3, seed=seed)
        result = Simulator(TwoPhasePolicy(), seed=seed).run(items, init)
        assert len(result.committed) == 5
        assert is_serializable(result.schedule)

    def test_deadlock_resolved_by_abort(self):
        # T1 locks a then b; T2 locks b then a -- conservative 2PL acquires
        # in first-use order, so opposite orders can deadlock; the simulator
        # must abort one and still finish.
        items = [
            WorkloadItem("T1", [Access("a"), Access("b")]),
            WorkloadItem("T2", [Access("b"), Access("a")]),
        ]
        init = StructuralState.of("a", "b")
        found_deadlock = False
        for seed in range(30):
            result = Simulator(TwoPhasePolicy(), seed=seed).run(items, init)
            assert is_serializable(result.schedule)
            if result.metrics.deadlocks:
                found_deadlock = True
        assert found_deadlock

    def test_hotspot_contention_still_serializable(self):
        items, init = random_access_workload(4, 6, 3, hot_fraction=0.5, seed=9)
        result = Simulator(TwoPhasePolicy(), seed=9).run(items, init)
        assert is_serializable(result.schedule)
