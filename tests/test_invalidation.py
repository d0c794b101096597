"""The policy-aware invalidation protocol.

Dynamic sessions (DDAG's L5, altruistic AL2) used to force the event-driven
scheduler back to a per-tick rescan.  The protocol lets a session *declare*
the invalidation channels whose change can flip its cached verdict
(:meth:`PolicySession.admission_dependencies`) while policy code reports
mutations through :meth:`PolicyContext.notify_changed`; the scheduler then
re-examines exactly the sessions a change can affect.

Covered here:

* the invalidation matrix: every session class under ``repro.policies``
  that declares dependencies runs naive against event over a workload
  whose notifications fire, and the two must agree exactly (this is where
  a missing ``notify_changed`` shows);
* the dependency declarations of the shipped dynamic policies;
* end-to-end invalidation: a concurrent edge insert flips a *cached* DDAG
  verdict to ABORT (the paper's Fig. 3 race), donations/locked points flip
  altruistic AL2 waits — identically under both engines;
* the protocol's work saving on dynamic policies (admission checks stop
  scaling with ticks × live population);
* the conservative fallback: a dynamic session that declares nothing is
  re-examined every tick, exactly as before the protocol existed;
* a custom third policy adopting the protocol (it is not DDAG-specific).
"""

import pytest

from repro.core import Operation, Step, StructuralState
from repro.exceptions import SimulationError
from repro.graphs import RootedDag, random_rooted_dag
from repro.policies import (
    Access,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    BrokenDdagPolicy,
    DdagPolicy,
    InsertEdge,
)
from repro.policies.altruistic import al_item_channel
from repro.policies.base import (
    Admission,
    AdmissionResult,
    LockingPolicy,
    PolicyContext,
    PolicySession,
    PROCEED,
    access_steps,
)
from repro.policies.ddag import ddag_node_channel
from repro.sim import (
    Simulator,
    WorkloadItem,
    dag_structural_state,
    long_transaction_workload,
    stress_workload,
)

ENGINES = ("event", "naive")


def run_both(policy_factory, items, initial, seed=0, context_kwargs_factory=None):
    out = {}
    for engine in ENGINES:
        sim = Simulator(
            policy_factory(),
            seed=seed,
            engine=engine,
            # A fresh kwargs dict per engine: shared mutable state (a DDAG
            # graph) must not leak from one engine's run into the other's.
            context_kwargs=context_kwargs_factory() if context_kwargs_factory else {},
        )
        out[engine] = sim.run(items, initial, validate=False)
    event, naive = out["event"], out["naive"]
    assert naive.schedule.events == event.schedule.events
    assert naive.metrics.summary() == event.metrics.summary()
    assert naive.committed == event.committed
    assert naive.aborted == event.aborted
    assert naive.metrics.deadlock_victims == event.metrics.deadlock_victims
    for name, rn in naive.metrics.records.items():
        re_ = event.metrics.records[name]
        assert (
            rn.start_tick, rn.end_tick, rn.committed, rn.restarts,
            rn.steps_executed, rn.blocked_ticks,
        ) == (
            re_.start_tick, re_.end_tick, re_.committed, re_.restarts,
            re_.steps_executed, re_.blocked_ticks,
        ), f"record for {name} diverges"
    return naive, event


# ----------------------------------------------------------------------
# Dependency declarations of the shipped policies
# ----------------------------------------------------------------------


class TestDeclaredDependencies:
    def test_ddag_first_lock_declares_nothing(self):
        ctx = DdagPolicy().create_context(dag=RootedDag(1, [(1, 2)]))
        s = ctx.begin("T1", [Access(1), Access(2)])
        step = s.peek()
        assert step is not None and step.is_lock and step.entity == 1
        assert tuple(s.admission_dependencies()) == ()  # L4: unconditional

    def test_ddag_later_lock_declares_node_channel(self):
        ctx = DdagPolicy(auto_release=False).create_context(
            dag=RootedDag(1, [(1, 2)])
        )
        s = ctx.begin("T1", [Access(1), Access(2)])
        # Drive past lock/read/write of node 1 to the pending lock of 2.
        while True:
            step = s.peek()
            if step.is_lock and step.entity == 2:
                break
            s.executed()
        assert tuple(s.admission_dependencies()) == (ddag_node_channel(2),)

    def test_ddag_data_step_declares_nothing(self):
        ctx = DdagPolicy(auto_release=False).create_context(
            dag=RootedDag(1, [(1, 2)])
        )
        s = ctx.begin("T1", [Access(1)])
        s.peek()
        s.executed()  # the lock; pending is now the READ
        assert s.peek().op is Operation.READ
        assert tuple(s.admission_dependencies()) == ()

    def test_altruistic_lock_declares_item_channels(self):
        ctx = AltruisticPolicy(donate_immediately=False).create_context()
        s = ctx.begin("T1", [Access("a"), Access("b")])
        while True:
            step = s.peek()
            if step.is_lock and step.entity == "b":
                break
            s.executed()
        assert set(s.admission_dependencies()) == {
            al_item_channel("a"),
            al_item_channel("b"),
        }

    def test_default_session_declares_none(self):
        class S(PolicySession):
            def peek(self):
                return None

            def executed(self):
                pass

        assert S("T1").admission_dependencies() is None


# ----------------------------------------------------------------------
# End-to-end invalidation under the shipped dynamic policies
# ----------------------------------------------------------------------


def _fig3_race_dag():
    return RootedDag(1, [(1, 2), (1, 3), (3, 4)])


def _fig3_race_items():
    """The paper's Fig. 3 race, arranged so the flipping mutation lands
    while the victim's verdict is *cached*: T1 walks 1..4, explicitly
    unlocks 3 (letting T2 in) while keeping 2 and 4, then inserts edge
    (2, 4).  T2 locks 3 and blocks on 4 — a cached lock-wait — and the
    insert gives 4 a predecessor T2 never locked: its cached verdict must
    flip to ABORT on the same tick as the naive rescan sees it."""
    from repro.policies.ddag import Unlock

    return [
        WorkloadItem(
            "T1",
            [
                Access(1), Access(2), Access(3), Access(4),
                Unlock(3), Unlock(1), InsertEdge(2, 4),
            ],
        ),
        WorkloadItem(
            "T2",
            [Access(3), Access(4)],
            restart=lambda n, a, c: None,  # drop on abort
            start_tick=14,
        ),
    ]


def _fig3_race(seed):
    return (
        _fig3_race_items(),
        dag_structural_state(_fig3_race_dag()),
        lambda: {"dag": _fig3_race_dag()},
    )


def _long_sweep(seed):
    """Late shorts in a long sweep's wake: donations and withdrawals
    notify the shorts' AL2 waits."""
    items, initial = long_transaction_workload(
        12, 4, seed=seed, region="leading", short_start=14
    )
    return items, initial, None


#: Session class name -> (policy factory, workload(seed)).  Every session
#: class under ``repro.policies`` that declares admission dependencies
#: has a case; ``test_every_declaring_session_class_has_a_case`` keeps it so.
INVALIDATION_MATRIX = {
    "DdagSession": (lambda: DdagPolicy(auto_release=False), _fig3_race),
    "_LawlessDdagSession": (
        lambda: BrokenDdagPolicy(auto_release=False), _fig3_race
    ),
    "AltruisticSession": (AltruisticPolicy, _long_sweep),
    "_LawlessAltruisticSession": (BrokenAltruisticPolicy, _long_sweep),
}

MATRIX_SEEDS = range(6)


def _run_matrix_case(cls_name):
    """Run one matrix case naive against event over every seed; returns
    the event engine's total invalidation count."""
    policy_factory, workload = INVALIDATION_MATRIX[cls_name]
    invalidations = 0
    for seed in MATRIX_SEEDS:
        items, initial, context_kwargs = workload(seed)
        _, event = run_both(
            policy_factory, items, initial, seed=seed,
            context_kwargs_factory=context_kwargs,
        )
        invalidations += event.metrics.invalidations
    return invalidations


class TestInvalidationMatrix:
    """A cached verdict is safe only if every shared-state change that can
    flip it notifies a declared channel.  The naive engine re-derives every
    verdict every tick, so a missing notification shows as a divergence:
    schedules, summaries, per-txn records or victim sequences."""

    def test_every_declaring_session_class_has_a_case(
        self, policy_session_classes
    ):
        """Every session class whose ``admission_dependencies`` is not
        the base's ``None`` (its own override or an inherited one)."""
        declaring = {
            cls.__name__ for cls in policy_session_classes
            if cls.admission_dependencies
            is not PolicySession.admission_dependencies
        }
        assert declaring == set(INVALIDATION_MATRIX)

    @pytest.mark.parametrize("cls_name", sorted(INVALIDATION_MATRIX))
    def test_naive_equals_event(self, cls_name):
        invalidations = _run_matrix_case(cls_name)
        assert invalidations > 0, "the workload must exercise notifications"

    @pytest.mark.parametrize("cls_name", ["AltruisticSession", "DdagSession"])
    def test_silenced_notifications_diverge(self, cls_name, monkeypatch):
        """The matrix catches the bug class it stands for: with every
        ``notify_changed`` a no-op, the event engine keeps a stale cached
        verdict, and some seed's event run either differs from the naive
        run or stalls on a wait the naive engine saw end.  (The lawless
        sessions admit unconditionally, so no notification can flip their
        verdict; their cases only pin that the engines agree.)"""
        monkeypatch.setattr(
            PolicyContext, "notify_changed", lambda self, channels: None
        )
        with pytest.raises((AssertionError, SimulationError)):
            _run_matrix_case(cls_name)


class TestDdagInvalidation:
    def test_concurrent_edge_insert_flips_cached_verdict(self):
        items = _fig3_race_items()
        initial = dag_structural_state(_fig3_race_dag())
        aborted_somewhere = False
        for seed in range(6):
            naive, event = run_both(
                lambda: DdagPolicy(auto_release=False),
                items,
                initial,
                seed=seed,
                context_kwargs_factory=lambda: {"dag": _fig3_race_dag()},
            )
            assert naive.aborted == event.aborted
            assert naive.committed == event.committed
            aborted_somewhere |= "T2" in event.aborted
        assert aborted_somewhere, (
            "some seed must exercise the L5 race (T2 aborted by the insert)"
        )

    def test_invalidations_fire_in_event_engine(self):
        items = _fig3_race_items()
        initial = dag_structural_state(_fig3_race_dag())
        fired = False
        for seed in range(6):
            _, event = run_both(
                lambda: DdagPolicy(auto_release=False),
                items,
                initial,
                seed=seed,
                context_kwargs_factory=lambda: {"dag": _fig3_race_dag()},
            )
            fired |= event.metrics.invalidations > 0
        assert fired, "the edge insert must notify T2's subscribed node channel"


class TestAltruisticInvalidation:
    def test_long_transaction_wakes_and_saving(self):
        """Late shorts run in the sweep's wake: their AL2 waits are cached
        and re-derived only on donations/locked-point notifications, so the
        event engine performs strictly fewer admission checks while
        reproducing the naive engine exactly."""
        saw_invalidation = False
        for seed in range(4):
            items, initial = long_transaction_workload(
                12, 4, seed=seed, region="leading", short_start=14
            )
            naive, event = run_both(AltruisticPolicy, items, initial, seed=seed)
            assert event.metrics.admission_checks < naive.metrics.admission_checks
            saw_invalidation |= event.metrics.invalidations > 0
        assert saw_invalidation, "donations must notify subscribed sessions"


class TestDynamicPolicyWorkSaving:
    def test_admission_checks_stop_scaling_with_population(self):
        """A standing population of blocked altruistic sessions costs the
        naive engine ticks × live admission checks; under the protocol the
        event engine pays only per relevant change."""
        items, initial = stress_workload(
            400, 150, arrival_rate=0.085, hot_fraction=0.0, seed=1
        )
        results = {}
        for engine in ENGINES:
            results[engine] = Simulator(
                AltruisticPolicy(), seed=1, engine=engine
            ).run(items, initial, validate=False)
        naive_m = results["naive"].metrics
        event_m = results["event"].metrics
        assert results["naive"].schedule.events == results["event"].schedule.events
        naive_work = naive_m.classify_checks + naive_m.admission_checks
        event_work = event_m.classify_checks + event_m.admission_checks
        assert event_work * 3 < naive_work, (
            f"expected a big dynamic-policy saving, got "
            f"{event_work} vs {naive_work}"
        )


# ----------------------------------------------------------------------
# A custom policy adopting (or declining) the protocol
# ----------------------------------------------------------------------


class _GateContext(PolicyContext):
    """Shared state: the set of finished transactions.  Gated sessions may
    not take their first lock until some transaction has finished."""

    session_cls: type = None  # set by the policy

    def __init__(self):
        self.finished = set()
        self.live_names = []

    def begin(self, name, intents):
        steps = []
        for intent in intents:
            assert isinstance(intent, Access)
            steps.append(Step(Operation.LOCK_EXCLUSIVE, intent.entity))
            steps.extend(access_steps(intent.entity))
        for intent in intents:
            steps.append(Step(Operation.UNLOCK_EXCLUSIVE, intent.entity))
        self.live_names.append(name)
        return self.session_cls(name, self, steps)


class _GatedSession(PolicySession):
    """Dynamic session consulting shared state *without* declaring
    dependencies: the conservative every-tick fallback."""

    dynamic = True

    def __init__(self, name, context, steps):
        super().__init__(name)
        self.context = context
        self._steps = list(steps)
        self._cursor = 0

    @property
    def gated(self):
        return self.name.startswith("G")

    def peek(self):
        if self._cursor >= len(self._steps):
            return None
        return self._steps[self._cursor]

    def executed(self):
        self._cursor += 1

    def admission(self):
        if self.gated and self._cursor == 0 and not self.context.finished:
            others = tuple(
                n for n in self.context.live_names
                if n != self.name and not n.startswith("G")
            )
            return AdmissionResult(Admission.WAIT, waiting_on=others)
        return PROCEED

    def on_commit(self):
        self.context.finished.add(self.name)


class _ChannelGatedSession(_GatedSession):
    """The same policy adopting the protocol: the verdict depends only on
    whether *any* transaction has finished, declared as one channel and
    notified by the first commit."""

    def admission_dependencies(self):
        if self.gated and self._cursor == 0 and not self.context.finished:
            return ("gate-open",)
        return ()

    def on_commit(self):
        first = not self.context.finished
        self.context.finished.add(self.name)
        if first:
            self.context.notify_changed(("gate-open",))


class _GatePolicy(LockingPolicy):
    name = "Gate"
    session_cls = _GatedSession

    def create_context(self, **kwargs):
        ctx = _GateContext()
        ctx.session_cls = self.session_cls
        return ctx


class _ChannelGatePolicy(_GatePolicy):
    name = "Gate-channel"
    session_cls = _ChannelGatedSession


def _gate_workload():
    items = [
        WorkloadItem("G1", [Access("g1")]),
        WorkloadItem("G2", [Access("g2")]),
        WorkloadItem("T1", [Access("a"), Access("b")]),
        WorkloadItem("T2", [Access("c")], start_tick=3),
    ]
    return items, StructuralState.of("a", "b", "c", "g1", "g2")


class TestConservativeFallback:
    def test_undeclared_dynamic_session_matches_naive_exactly(self):
        """A dynamic session that declares no dependencies must behave
        exactly as before the protocol: re-checked every tick, producing
        naive-identical schedules, summaries, and records."""
        for seed in range(6):
            items, initial = _gate_workload()
            naive, event = run_both(_GatePolicy, items, initial, seed=seed)
            assert naive.committed == event.committed
            for name, rn in naive.metrics.records.items():
                re_ = event.metrics.records[name]
                assert (rn.end_tick, rn.blocked_ticks) == (
                    re_.end_tick, re_.blocked_ticks
                )
            # Every session is dynamic and declares nothing, so the event
            # engine re-examines all of them every tick — the same
            # admission work as the naive rescan, no caching.
            assert (
                event.metrics.admission_checks == naive.metrics.admission_checks
            )
            assert event.metrics.invalidations == 0

    def test_gated_transactions_wait_for_first_commit(self):
        items, initial = _gate_workload()
        result = Simulator(_GatePolicy(), seed=0).run(
            items, initial, validate=False
        )
        assert set(result.committed) == {"G1", "G2", "T1", "T2"}
        # The gate held G1/G2 back (policy waits) until the first ungated
        # transaction finished; the ungated ones never waited.
        m = result.metrics
        assert m.policy_wait_observations > 0
        assert m.records["G1"].blocked_ticks > 0
        assert m.records["G2"].blocked_ticks > 0
        first_finish = min(
            m.records[n].end_tick for n in ("T1", "T2")
        )
        assert m.records["G1"].end_tick > first_finish
        assert m.records["G2"].end_tick > first_finish


class TestCustomPolicyAdoption:
    def test_channel_gated_equivalent_and_cheaper(self):
        """The protocol is not policy-specific: a custom session declaring
        one channel gets the same schedules with fewer admission checks."""
        for seed in range(6):
            items, initial = _gate_workload()
            naive, event = run_both(_ChannelGatePolicy, items, initial, seed=seed)
            assert naive.committed == event.committed
            assert (
                event.metrics.admission_checks < naive.metrics.admission_checks
            )

    def test_gate_notification_fires(self):
        items, initial = _gate_workload()
        result = Simulator(_ChannelGatePolicy(), seed=0).run(
            items, initial, validate=False
        )
        assert result.metrics.invalidations > 0

    def test_empty_deps_session_never_rechecked_between_executions(self):
        """An ungated channel session declares () — PROCEED can never flip,
        so the event engine re-examines it only around its own steps."""
        items = [WorkloadItem("T1", [Access("a"), Access("b")])]
        initial = StructuralState.of("a", "b")
        results = {}
        for engine in ENGINES:
            results[engine] = Simulator(
                _ChannelGatePolicy(), seed=0, engine=engine
            ).run(items, initial, validate=False)
        assert (
            results["event"].metrics.admission_checks
            <= results["event"].metrics.events_executed + 1
        )
        assert results["naive"].schedule.events == results["event"].schedule.events
