"""The ordered runnable index (:class:`repro.sim.admission.OrderedNames`).

``AdmissionCache.runnable`` owns both which sessions are runnable and the
order phase 3 draws from.  Three contracts:

1. **Container.**  After any ``add``/``discard`` sequence it reads as
   ``sorted(the_set)`` through every access the engine and its tests use.
2. **Draw equivalence.**  ``Random(s).choice(container)`` is the draw
   ``Random(s).choice(sorted(the_set))`` made — the property that keeps
   schedules byte-identical to the per-tick sort it replaced.
3. **Engine invariant.**  At every event-engine tick, before the draw and
   after the tick, the index holds exactly the live sessions whose cached
   state is RUNNABLE — for every registered grid factory (a guard test
   keeps the table complete) under every policy that can run it.
4. **A step moves only what its next step changes.**  After a 2PL
   session's own step the index is touched only if the session leaves
   RUNNABLE: one ``discard`` when its next step blocks or its script
   drains, no call at all when its next step locks nothing or is
   grantable.  A DDAG or altruistic session, whose verdict needs the
   policy, stays RUNNABLE through its own step until its phase-2
   re-derivation: no call across both when that verdict is RUNNABLE, one
   ``discard`` when it blocks.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import PolicyViolation, SimulationError
from repro.graphs import chain
from repro.policies import (
    Access,
    AltruisticPolicy,
    DdagPolicy,
    DtrPolicy,
    TwoPhasePolicy,
)
from repro.sim import GRID_FACTORIES, Simulator, WorkloadItem, grid_factory
from repro.sim.admission import LOCK_WAIT, NEW, RUNNABLE, OrderedNames
from repro.sim.scheduler import _Run

# Small-but-contended kwargs per registered factory (the policy entry is
# the one that exercises the factory's intended scenario).
FACTORY_CELLS = {
    "stress": (
        TwoPhasePolicy,
        {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
         "hot_fraction": 0.1},
    ),
    "deadlock_storm": (
        TwoPhasePolicy,
        {"num_entities": 20, "num_txns": 30, "accesses_per_txn": 2,
         "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7},
    ),
    "long_transaction": (
        AltruisticPolicy,
        {"num_entities": 12, "num_short": 6, "short_start": 4},
    ),
    "random_access": (TwoPhasePolicy, {"num_entities": 8, "num_txns": 8}),
    "traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
    "dynamic_traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
}

NAMES = st.sampled_from([f"T{i}" for i in range(12)] + ["", "T10x", "a"])
OPS = st.lists(st.tuples(st.sampled_from(["add", "discard"]), NAMES), max_size=60)


class TestContainer:
    @given(OPS)
    def test_reads_as_the_sorted_model_set(self, ops):
        index, model = OrderedNames(), set()
        for op, name in ops:
            getattr(index, op)(name)
            getattr(model, op)(name)
            expected = sorted(model)
            assert list(index) == expected
            assert len(index) == len(expected)
            assert bool(index) == bool(expected)
            assert [index[k] for k in range(len(index))] == expected
            assert (name in index) == (name in model)

    @given(OPS, NAMES)
    def test_add_and_discard_are_idempotent(self, ops, name):
        index = OrderedNames()
        for op, n in ops:
            getattr(index, op)(n)
        index.add(name)
        once = list(index)
        index.add(name)
        assert list(index) == once and once.count(name) == 1
        index.discard(name)
        gone = list(index)
        index.discard(name)
        assert list(index) == gone and name not in index

    def test_absent_names_around_present_ones_are_not_members(self):
        index = OrderedNames()
        for name in ("T3", "T1", "T1"):
            index.add(name)
        assert list(index) == ["T1", "T3"]
        assert all(n not in index for n in ("", "T0", "T2", "T4"))
        with pytest.raises(IndexError):
            index[2]


class TestDrawEquivalence:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 1000])
    def test_choice_matches_choice_over_the_sorted_set(self, size):
        shuffler = random.Random(size)
        model = {f"T{shuffler.randrange(10 * size)}" for _ in range(size)}
        index = OrderedNames()
        for name in shuffler.sample(sorted(model), len(model)):
            index.add(name)
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(5):  # the streams stay in step draw after draw
                assert ours.choice(index) == theirs.choice(sorted(model))

    def test_choice_over_the_backing_list_is_the_same_draw(self):
        index = OrderedNames()
        for name in ("T3", "T1", "T7", "T2"):
            index.add(name)
        for seed in range(50):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert ours.choice(index.names) == theirs.choice(index)


POLICIES = (TwoPhasePolicy, DdagPolicy, DtrPolicy, AltruisticPolicy)


@pytest.fixture
def checked_ticks(monkeypatch):
    """Assert the index invariant around every event-engine tick and
    immediately before every phase-3 draw; returns the check counts."""
    count = {"ticks": 0, "draws": 0}

    def check(run):
        expected = sorted(
            n for n, e in run.live.items() if e.state == RUNNABLE
        )
        assert list(run.cache.runnable) == expected, (
            f"tick {run.metrics.ticks}: index {list(run.cache.runnable)} "
            f"!= RUNNABLE sessions {expected}"
        )

    tick, execute = _Run._event_tick, _Run._phase_execute

    def checked_tick(run):
        tick(run)
        check(run)
        count["ticks"] += 1

    def checked_execute(run):
        check(run)
        count["draws"] += 1
        execute(run)

    monkeypatch.setattr(_Run, "_event_tick", checked_tick)
    monkeypatch.setattr(_Run, "_phase_execute", checked_execute)
    return count


class TestEngineInvariant:
    def test_every_registered_factory_has_a_cell(self):
        assert set(FACTORY_CELLS) == set(GRID_FACTORIES)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.__name__)
    @pytest.mark.parametrize("factory", sorted(FACTORY_CELLS))
    def test_index_is_exactly_the_runnable_sessions(
        self, factory, policy, checked_ticks
    ):
        for seed in range(3):
            items, initial, context_kwargs = grid_factory(factory)(
                seed, **FACTORY_CELLS[factory][1]
            )
            if policy is DdagPolicy and "dag" not in context_kwargs:
                pytest.skip("DDAG runs only workloads that carry a DAG")
            sim = Simulator(
                policy(), seed=seed, context_kwargs=context_kwargs
            )
            try:
                sim.run(items, initial, validate=False)
            except SimulationError:
                pass  # the invariant held on every tick up to the error
            except PolicyViolation as exc:
                pytest.skip(f"the policy refuses this workload's intents: {exc}")
        assert checked_ticks["ticks"] > 0 and checked_ticks["draws"] > 0


@pytest.fixture
def index_calls(monkeypatch):
    """Record every ``OrderedNames.add`` / ``discard`` call by name."""
    calls = {"add": [], "discard": []}
    add, discard = OrderedNames.add, OrderedNames.discard

    def spy_add(index, name):
        calls["add"].append(name)
        add(index, name)

    def spy_discard(index, name):
        calls["discard"].append(name)
        discard(index, name)

    monkeypatch.setattr(OrderedNames, "add", spy_add)
    monkeypatch.setattr(OrderedNames, "discard", spy_discard)
    return calls


class TestStepMovesOnlyWhatChanges:
    """A hand-driven 2PL run: ``A`` accesses ``a`` then ``b`` and plays
    ``LX a, R a, W a, LX b, R b, W b, UX a, UX b``; ``B`` accesses ``b``
    and plays ``LX b, R b, W b, UX b``."""

    @staticmethod
    def run_of(scripts):
        run = _Run(Simulator(TwoPhasePolicy()), [
            WorkloadItem(name, [Access(e) for e in entities])
            for name, entities in scripts.items()
        ])
        run.admit_arrivals()
        return run

    @staticmethod
    def step(run, calls, name):
        calls["add"].clear()
        calls["discard"].clear()
        run._execute_step(run.live[name])
        return calls["add"], calls["discard"]

    def test_a_grantable_or_lock_free_next_step_leaves_the_index_alone(
        self, index_calls
    ):
        run = self.run_of({"A": ["a", "b"]})
        # LX a -> R a (locks nothing), R a -> W a, W a -> LX b (grantable),
        # LX b -> R b, ..., W b -> UX a, UX a -> UX b.
        for _ in range(7):
            assert self.step(run, index_calls, "A") == ([], [])
            assert run.live["A"].state == RUNNABLE
            assert list(run.cache.runnable) == ["A"]

    def test_a_blocking_next_step_discards_once(self, index_calls):
        run = self.run_of({"A": ["a", "b"], "B": ["b"]})
        assert self.step(run, index_calls, "B") == ([], [])  # LX b
        for _ in range(2):  # LX a, R a
            assert self.step(run, index_calls, "A") == ([], [])
        # W a -> LX b, held by B.
        assert self.step(run, index_calls, "A") == ([], ["A"])
        assert run.live["A"].state == LOCK_WAIT
        assert run.table.waiting_entity("A") == "b"
        assert list(run.cache.runnable) == ["B"]

    def test_a_draining_step_discards_once(self, index_calls):
        run = self.run_of({"A": ["a", "b"], "B": ["b"]})
        self.step(run, index_calls, "B")  # LX b
        for _ in range(3):  # LX a, R a, W a: A blocks on b
            self.step(run, index_calls, "A")
        for _ in range(2):  # R b, W b
            assert self.step(run, index_calls, "B") == ([], [])
        # UX b drains B's script; the release wakes A in place.
        assert self.step(run, index_calls, "B") == (["A"], ["B"])
        assert run.live["B"].state == NEW and "B" in run.cache.complete
        assert run.table.waiting_entity("B") is None
        assert list(run.cache.runnable) == ["A"]


class TestPolicyStepStaysRunnable:
    """Hand-driven DDAG and altruistic runs: a step, then the next tick's
    commit scan and classify phase, which re-derive the stepping session.
    ``A`` accesses two items in order; ``B`` holds the second one."""

    @staticmethod
    def run_of(policy, scripts, **context_kwargs):
        run = _Run(Simulator(policy, context_kwargs=context_kwargs), [
            WorkloadItem(name, [Access(e) for e in entities])
            for name, entities in scripts.items()
        ])
        run.admit_arrivals()
        TestPolicyStepStaysRunnable.reclassify(run)
        return run

    @staticmethod
    def reclassify(run):
        """The phases of the next tick that come before the deadlock
        phase and the draw, as ``_event_tick`` runs them."""
        m = run.metrics
        m.ticks += 1
        run.classifier.observed = m.ticks - 1
        run._phase_commit()
        run.classifier.observed = m.ticks
        run._phase_classify()

    @classmethod
    def step(cls, run, calls, name):
        calls["add"].clear()
        calls["discard"].clear()
        run._execute_step(run.live[name])
        cls.reclassify(run)
        return calls["add"], calls["discard"]

    CASES = {
        "ddag": (DdagPolicy, (1, 2), {"dag": chain(3)}),
        "altruistic": (AltruisticPolicy, ("a", "b"), {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_runnable_verdict_leaves_the_index_alone(self, case, index_calls):
        policy, (first, second), kwargs = self.CASES[case]
        run = self.run_of(policy(), {"A": [first, second]}, **kwargs)
        assert list(run.cache.runnable) == ["A"]
        steps = 0
        while True:
            adds, discards = self.step(run, index_calls, "A")
            steps += 1
            if "A" not in run.live:  # drained: committed in the commit scan
                assert adds == [] and set(discards) == {"A"}
                assert list(run.cache.runnable) == []
                break
            assert (adds, discards) == ([], []), f"step {steps}"
            assert run.live["A"].state == RUNNABLE
            assert list(run.cache.runnable) == ["A"]
        assert steps >= 6  # LX, R, W on each item (and the unlocks)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_blocking_verdict_discards_once(self, case, index_calls):
        policy, (first, second), kwargs = self.CASES[case]
        run = self.run_of(
            policy(), {"A": [first, second], "B": [second]}, **kwargs
        )
        self.step(run, index_calls, "B")  # B locks the second item
        # A plays its first item (and, under altruistic locking, donates
        # it) with a runnable verdict each time, until its next step
        # locks the second item: then it blocks, and only then moves.
        for _ in range(10):
            adds, discards = self.step(run, index_calls, "A")
            if run.live["A"].state != RUNNABLE:
                break
            assert (adds, discards) == ([], [])
        assert (adds, discards) == ([], ["A"])
        assert run.live["A"].state == LOCK_WAIT
        assert run.table.waiting_entity("A") == second
        assert list(run.cache.runnable) == ["B"]
