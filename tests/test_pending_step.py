"""The pending step is peeked once per step.

Three contracts:

1. **Peek is idempotent** (:meth:`PolicySession.peek`), for every session
   class in the tree: between two ``executed()`` calls, k peeks return
   equal steps, leave the session in the state one peek leaves it in, and
   ``executed()`` after k peeks lands where it lands after one.
2. **One peek per step plus one per admission.**  ``LiveEntry.peek``
   caches the answer until the kernel executes the step, so over a whole
   event-engine run the policy sessions are peeked exactly
   ``events_executed + admissions`` times.
3. **A restart starts uncached.**  A restarted deadlock victim gets a
   fresh entry: it never executes, nor is classified on, a step its
   predecessor's session produced.
"""

import copy

import pytest

from repro.core.operations import Operation
from repro.core.steps import Step
from repro.graphs import chain
from repro.kernel.lifecycle import KernelRun
from repro.policies import (
    Access,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    BrokenDdagPolicy,
    DdagPolicy,
    DtrPolicy,
    FreeForAllPolicy,
    InsertNode,
    Read,
    TwoPhasePolicy,
)
from repro.policies.altruistic import AltruisticSession
from repro.policies.base import ScriptedSession
from repro.policies.ddag import DdagSession
from repro.sim import Simulator, WorkloadItem, grid_factory
from repro.sim.scheduler import _Run

ITEMS = [Access("a"), Read("b"), Access("c"), Access("a")]
DAG_ITEMS = [Access(1), Access(2), InsertNode(99, parents=(2,)), Access(3)]


def _scripted():
    return ScriptedSession("T", [
        Step(Operation.LOCK_EXCLUSIVE, "a"),
        Step(Operation.WRITE, "a"),
        Step(Operation.LOCK_SHARED, "b"),
        Step(Operation.READ, "b"),
        Step(Operation.UNLOCK_EXCLUSIVE, "a"),
        Step(Operation.UNLOCK_SHARED, "b"),
    ])


def _begin(policy, intents, **context_kwargs):
    return lambda: policy.create_context(**context_kwargs).begin("T", intents)


#: One fresh, solo session per call, for every session class in the tree.
SESSIONS = {
    "scripted": _scripted,
    "2pl": _begin(TwoPhasePolicy(), ITEMS),
    "dtr": _begin(DtrPolicy(), ITEMS),
    "ddag": lambda: _begin(DdagPolicy(), DAG_ITEMS, dag=chain(4))(),
    "altruistic": _begin(AltruisticPolicy(), ITEMS),
    "free_for_all": _begin(FreeForAllPolicy(), ITEMS),
    "broken_ddag": lambda: _begin(BrokenDdagPolicy(), DAG_ITEMS, dag=chain(4))(),
    "broken_altruistic": _begin(BrokenAltruisticPolicy(), ITEMS),
}


def _state(session):
    """Everything the session keeps of its own: cursor, queue, held set
    and the rest — not the shared context it points at."""
    return {
        k: copy.deepcopy(v) for k, v in vars(session).items() if k != "context"
    }


def _play(session, peeks):
    """Run a solo session to its end, peeking ``peeks`` times before each
    ``executed()``; returns the trace of (step, state after the peeks,
    state after executing)."""
    trace = []
    while True:
        steps = [session.peek() for _ in range(peeks)]
        assert all(s == steps[0] for s in steps), steps
        peeked = _state(session)
        if steps[0] is None:
            trace.append((None, peeked, None))
            return trace
        session.executed()
        trace.append((steps[0], peeked, _state(session)))


class TestPeekContract:
    def test_every_session_class_is_covered(self, policy_session_classes):
        covered = {type(make()) for make in SESSIONS.values()}
        assert covered == policy_session_classes

    @pytest.mark.parametrize("kind", sorted(SESSIONS))
    @pytest.mark.parametrize("k", [2, 3])
    def test_k_peeks_act_as_one(self, kind, k):
        once = _play(SESSIONS[kind](), 1)
        many = _play(SESSIONS[kind](), k)
        assert len(once) > 2
        for (s1, peeked1, done1), (sk, peekedk, donek) in zip(once, many):
            assert sk == s1
            assert peekedk == peeked1  # cursor, queue, held set, ...
            assert donek == done1  # executed() lands in the same state
        assert len(many) == len(once)


def _count_peeks(monkeypatch, classes):
    calls = {"peek": 0}
    for cls in classes:
        original = cls.peek

        def counted(session, original=original):
            calls["peek"] += 1
            return original(session)

        monkeypatch.setattr(cls, "peek", counted)
    return calls


class TestOnePeekPerStep:
    @pytest.mark.parametrize("seed", range(3))
    def test_a_ddag_run_peeks_once_per_step_and_admission(
        self, monkeypatch, seed
    ):
        calls = _count_peeks(monkeypatch, [DdagSession])
        items, initial, context_kwargs = grid_factory("dynamic_traversal")(
            seed, nodes=12, num_txns=20
        )
        result = Simulator(
            DdagPolicy(), seed=seed, context_kwargs=context_kwargs
        ).run(items, initial, validate=False)
        m = result.metrics
        assert m.events_executed > 0
        assert calls["peek"] == m.events_executed + len(items) + m.restarts

    @pytest.mark.parametrize("seed", range(3))
    def test_an_altruistic_stress_run_peeks_once_per_step_and_admission(
        self, monkeypatch, seed
    ):
        calls = _count_peeks(monkeypatch, [AltruisticSession])
        items, initial, context_kwargs = grid_factory("stress")(
            seed, num_entities=30, num_txns=40, arrival_rate=1.0,
            hot_fraction=0.1,
        )
        result = Simulator(
            AltruisticPolicy(), seed=seed, context_kwargs=context_kwargs
        ).run(items, initial, validate=False)
        m = result.metrics
        assert m.deadlocks > 0 and m.restarts > 0  # restarts are covered
        assert calls["peek"] == m.events_executed + len(items) + m.restarts


class TestRestartStartsUncached:
    def test_a_restarted_victim_never_reads_its_predecessors_step(
        self, monkeypatch
    ):
        """``A`` and ``B`` each lock one item, keep it and want the
        other's, so every interleaving that overlaps them deadlocks."""
        from repro.sim.live import UNPEEKED

        produced = {}  # session -> the step object its last peek returned
        peek = AltruisticSession.peek

        def recorded(session):
            step = peek(session)
            produced[session] = step
            return step

        monkeypatch.setattr(AltruisticSession, "peek", recorded)

        restarts = []
        abort = KernelRun.abort

        def checked_abort(run, victim, reason):
            cached = victim.peeked
            abort(run, victim, reason)
            successor = run.live.get(victim.item.name)
            if successor is not None:
                assert successor is not victim
                assert successor.peeked is UNPEEKED
                restarts.append((cached, successor))

        monkeypatch.setattr(KernelRun, "abort", checked_abort)

        execute = _Run._execute_step

        def checked_execute(run, entry):
            # Whatever the entry acts on came from its own session.
            assert entry.peeked is UNPEEKED or entry.peeked is produced[
                entry.session
            ]
            execute(run, entry)

        monkeypatch.setattr(_Run, "_execute_step", checked_execute)

        items = [
            WorkloadItem("A", [Access("a"), Access("b"), Access("a")]),
            WorkloadItem("B", [Access("b"), Access("a"), Access("b")]),
        ]
        for seed in range(20):
            Simulator(AltruisticPolicy(), seed=seed).run(items, validate=False)
        assert restarts, "no seed deadlocked: the restart path went untested"
        # The victims did hold a cached step their successors could have
        # inherited.
        assert all(cached is not UNPEEKED for cached, _ in restarts)
