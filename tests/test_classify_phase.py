"""The classify phase: one sorted walk over the drained check set.

Three contracts:

1. **The walk.**  :meth:`SerialExecutor.run_classify` calls
   ``classifier.classify`` once per name, in the order it is handed the
   names, and collects policy aborts into the caller's list in that
   order.
2. **The drain feeds the walk.**  In a full event-engine run, every
   non-empty drain of :meth:`AdmissionCache.take_check_slices` is walked
   and an empty one is not; a walk is handed exactly the list drained
   that tick — sorted, duplicate-free, live, never a completed session,
   only sessions whose verdict needs the policy (``needs_admission``) —
   and classifies each of those sessions once, in that order.  A 2PL
   run, whose sessions are all classified where their events happen,
   never enters the classify phase and never drains.
3. **Nothing to select.**  No entry point takes a lock-table shard
   count, a shard-worker count or an executor kind.
"""

import inspect

import pytest

from repro.kernel import KernelRun, LockKernel
from repro.policies import AltruisticPolicy, DdagPolicy, TwoPhasePolicy
from repro.service import LockService
from repro.sim import (
    AdmissionCache,
    LockTable,
    SerialExecutor,
    Simulator,
    grid_factory,
    run_cell,
    run_seed,
)
from repro.sim.admission import Classifier
from repro.sim.scheduler import _Run


class RecordingClassifier:
    def __init__(self, abort=()):
        self.calls = []
        self.abort = set(abort)

    def classify(self, entry, aborts):
        self.calls.append(entry)
        if entry in self.abort:
            aborts.append((entry, f"{entry} refused"))


class TestSerialExecutor:
    def test_classifies_each_name_once_in_the_given_order(self):
        live = {"A": "entry-A", "B": "entry-B", "C": "entry-C"}
        classifier = RecordingClassifier()
        SerialExecutor().run_classify(classifier, live, ["A", "C"], [])
        assert classifier.calls == ["entry-A", "entry-C"]

    def test_aborts_collect_in_walk_order_into_the_callers_list(self):
        live = {"A": "entry-A", "B": "entry-B", "C": "entry-C"}
        classifier = RecordingClassifier(abort={"entry-C", "entry-A"})
        aborts = []
        SerialExecutor().run_classify(
            classifier, live, ["A", "B", "C"], aborts
        )
        assert aborts == [
            ("entry-A", "entry-A refused"), ("entry-C", "entry-C refused"),
        ]

    def test_an_empty_drain_classifies_nothing(self):
        classifier = RecordingClassifier()
        aborts = []
        SerialExecutor().run_classify(classifier, {"A": "entry-A"}, [], aborts)
        assert classifier.calls == [] and aborts == []


_STRESS = {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
           "hot_fraction": 0.1}

# Cells with fat classify batches: DDAG traversals with inserts (dynamic
# sessions re-classified every tick) and altruistic sessions that declare
# admission dependencies.
WALK_CELLS = [
    ("dynamic_traversal", DdagPolicy, {"nodes": 8, "num_txns": 5}),
    ("stress", AltruisticPolicy, _STRESS),
]

# 2PL cells: a deadlock storm (the one that used to have fat classify
# batches) and the contended stress generator.
TWO_PHASE_CELLS = [
    ("deadlock_storm", TwoPhasePolicy,
     {"num_entities": 20, "num_txns": 30, "accesses_per_txn": 2,
      "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7}),
    ("stress", TwoPhasePolicy, _STRESS),
]


def _cell_id(cell):
    return f"{cell[0]}+{cell[1].__name__}"


@pytest.mark.parametrize("cell", WALK_CELLS, ids=_cell_id)
def test_each_walk_classifies_exactly_the_drained_set(monkeypatch, cell):
    factory_name, policy_cls, kwargs = cell
    drained, walks, seen = [], [], []

    take = AdmissionCache.take_check_slices

    def spy_take(cache):
        names = take(cache)
        drained.append(names)
        return names

    classify = Classifier.classify

    def spy_classify(classifier, entry, aborts):
        seen.append(entry.item.name)
        classify(classifier, entry, aborts)

    run_classify = SerialExecutor.run_classify

    def spy_walk(executor, classifier, live, names, aborts):
        assert names is drained[-1], "the walk got something other than the drain"
        assert names == sorted(set(names)), "drain is not sorted and unique"
        assert all(n in live for n in names), "drain holds a departed session"
        assert not set(names) & classifier.cache.complete, (
            "drain holds a completed session"
        )
        assert all(live[n].needs_admission for n in names), (
            "a session whose verdict needs no policy reached the walk"
        )
        seen.clear()
        run_classify(executor, classifier, live, names, aborts)
        assert seen == names, "classified other than once per name, in order"
        walks.append(len(names))

    monkeypatch.setattr(AdmissionCache, "take_check_slices", spy_take)
    monkeypatch.setattr(Classifier, "classify", spy_classify)
    monkeypatch.setattr(SerialExecutor, "run_classify", spy_walk)

    items, initial, context_kwargs = grid_factory(factory_name)(3, **kwargs)
    result = Simulator(
        policy_cls(), seed=3, max_ticks=500_000,
        context_kwargs=context_kwargs, engine="event",
    ).run(items, initial)

    assert drained, "the classify phase never drained"
    assert len(walks) == sum(1 for names in drained if names), (
        "a non-empty drain was not walked, or an empty one was"
    )
    assert max(walks) > 1, "no tick classified more than one session"


@pytest.mark.parametrize("cell", TWO_PHASE_CELLS, ids=_cell_id)
def test_a_2pl_run_never_enters_the_classify_phase(monkeypatch, cell):
    factory_name, policy_cls, kwargs = cell
    entered = []

    def refuse(name):
        def spy(*args):
            entered.append(name)
            raise AssertionError(f"a 2PL run called {name}")
        return spy

    monkeypatch.setattr(_Run, "_phase_classify", refuse("_phase_classify"))
    monkeypatch.setattr(
        AdmissionCache, "take_check_slices", refuse("take_check_slices")
    )

    items, initial, context_kwargs = grid_factory(factory_name)(3, **kwargs)
    result = Simulator(
        policy_cls(), seed=3, max_ticks=500_000,
        context_kwargs=context_kwargs, engine="event",
    ).run(items, initial)

    assert entered == []
    assert result.metrics.classify_checks > 0
    assert result.metrics.committed > 0


@pytest.mark.parametrize(
    "entry_point",
    [Simulator, run_seed, run_cell, KernelRun, LockKernel, LockService,
     LockTable],
    ids=lambda f: f.__name__,
)
def test_no_entry_point_takes_a_shard_or_executor_knob(entry_point):
    params = set(inspect.signature(entry_point).parameters)
    assert not params & {"lock_shards", "shard_workers", "executor", "shards"}
