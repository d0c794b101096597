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
   state is RUNNABLE — for every registered grid factory (the executor
   matrix's cells, whose guard test keeps the table complete) under every
   policy that can run it.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import PolicyViolation, SimulationError
from repro.policies import (
    AltruisticPolicy,
    DdagPolicy,
    DtrPolicy,
    TwoPhasePolicy,
)
from repro.sim import Simulator, grid_factory
from repro.sim.admission import RUNNABLE, OrderedNames
from repro.sim.scheduler import _Run
from test_executor import FACTORY_CELLS  # small contended kwargs per factory

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
