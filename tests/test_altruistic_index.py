"""The altruistic donor index against the scan it replaced.

``AltruisticContext.donors`` lets an AL2 verdict examine only the donors
of the items in ``after = locked_past ∪ {pending}``.  The verdict it
replaced scanned every live session in begin order.  That scan is kept
here as :func:`scan_admission`, next to a from-scratch locked point and
a rebuild of the index from ``context.sessions``:

* at every ``admission()`` call of an event-engine run, the indexed
  verdict (and its ``waiting_on`` tuple, order included), the locked
  point and the declared channels must equal the scan's;
* after every tick, ``context.donors`` must equal the rebuild.

The offline checker ``check_altruistic_schedule`` got the same index; its
replaced loop is kept as :func:`scan_check_altruistic_schedule` and the
two must return byte-identical violation lists.
"""

from typing import Dict, List, Optional, Set

import pytest

from repro.policies import (
    Access,
    Admission,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    check_altruistic_schedule,
)
from repro.policies.base import PROCEED, AdmissionResult
from repro.policies.altruistic import (
    AltruisticSession,
    _intent_item,
    al_item_channel,
)
from repro.core.states import StructuralState
from repro.sim import Simulator, WorkloadItem, grid_factory, run_seed
from repro.sim.scheduler import _Run

FACTORY_KWARGS = {
    "stress": {"num_entities": 30, "num_txns": 30, "arrival_rate": 1.0,
               "hot_fraction": 0.1},
    "long_transaction": {"num_entities": 12, "num_short": 8, "short_start": 2},
    "random_access": {"num_entities": 8, "num_txns": 10},
}
SEEDS = range(6)


# ----------------------------------------------------------------------
# The replaced O(live) scan
# ----------------------------------------------------------------------


def scan_reached_locked_point(session) -> bool:
    return all(
        e in session.locked_past
        for intent in session.intents
        for e in _intent_item(intent)
    )


def scan_admission(session) -> AdmissionResult:
    """AL2 as it was: every other live session that has donated and not
    reached its locked point, in ``context.sessions`` order."""
    step = session.queue[0] if session.queue else None
    if step is None or not step.is_lock:
        return PROCEED
    after = set(session.locked_past) | {step.entity}
    blockers = [
        donor.name
        for name, donor in session.context.sessions.items()
        if name != session.name
        and donor.donated
        and not scan_reached_locked_point(donor)
        and after & donor.donated
        and not after.issubset(donor.donated)
    ]
    if blockers:
        return AdmissionResult(Admission.WAIT, waiting_on=tuple(blockers))
    return PROCEED


def rebuild_donors(context):
    out: Dict[object, Dict[str, AltruisticSession]] = {}
    for name, session in context.sessions.items():
        if session.donated and not scan_reached_locked_point(session):
            for item in session.donated:
                out.setdefault(item, {})[name] = session
    return out


class Observed:
    def __init__(self):
        self.admissions = 0
        self.waits = 0
        self.multi_blocker_waits = 0
        self.ticks = 0
        self.donor_aborts = 0


def run_checked(monkeypatch, factory: str, seed: int) -> Observed:
    seen = Observed()
    indexed_admission = AltruisticSession.admission
    indexed_on_abort = AltruisticSession.on_abort
    event_tick = _Run._event_tick

    def admission(self):
        got = indexed_admission(self)
        assert got == scan_admission(self)
        assert self.reached_locked_point == scan_reached_locked_point(self)
        step = self.queue[0]
        assert set(self.admission_dependencies()) == (
            {al_item_channel(x) for x in {*self.locked_past, step.entity}}
            if step.is_lock else set()
        )
        seen.admissions += 1
        if got.verdict is Admission.WAIT:
            seen.waits += 1
            seen.multi_blocker_waits += len(got.waiting_on) > 1
        return got

    def on_abort(self):
        seen.donor_aborts += bool(self.donated) and not self.reached_locked_point
        indexed_on_abort(self)

    def tick(self):
        event_tick(self)
        assert self.context.donors == rebuild_donors(self.context)
        seen.ticks += 1

    monkeypatch.setattr(AltruisticSession, "admission", admission)
    monkeypatch.setattr(AltruisticSession, "on_abort", on_abort)
    monkeypatch.setattr(_Run, "_event_tick", tick)
    items, initial, context_kwargs = grid_factory(factory)(
        seed, **FACTORY_KWARGS[factory]
    )
    result = Simulator(
        AltruisticPolicy(), seed=seed, max_ticks=500_000,
        context_kwargs=context_kwargs,
    ).run(items, initial)
    assert result.context.donors == {}
    return seen


@pytest.mark.parametrize("factory", sorted(FACTORY_KWARGS))
def test_indexed_verdict_equals_the_scan(monkeypatch, factory):
    seen = Observed()
    for seed in SEEDS:
        one = run_checked(monkeypatch, factory, seed)
        for key, value in vars(one).items():
            setattr(seen, key, getattr(seen, key) + value)
    # The runs must reach the cases the index can get wrong: blocker
    # order shows only with two blockers, and the withdraw on abort only
    # when a pre-locked-point donor is aborted.
    assert all(vars(seen).values()), vars(seen)


def test_begin_sequence_is_the_sessions_order():
    ctx = AltruisticPolicy().create_context()
    for name in ("b", "a", "c"):
        ctx.begin(name, [Access(name)])
    ctx.sessions.pop("a").on_abort()
    ctx.begin("a", [Access("a")])
    order = sorted(ctx.sessions.values(), key=lambda s: s.seq)
    assert [s.name for s in order] == list(ctx.sessions) == ["b", "c", "a"]


# ----------------------------------------------------------------------
# The offline checker against its replaced loop
# ----------------------------------------------------------------------


def scan_check_altruistic_schedule(schedule) -> List[str]:
    """``check_altruistic_schedule`` as it was: every transaction examined
    on every lock event."""
    violations: List[str] = []
    locked_past: Dict[str, Set] = {}
    held: Dict[str, Set] = {}
    donated: Dict[str, Set] = {}
    lock_points: Dict[str, Optional[int]] = {
        name: txn.locked_point() for name, txn in schedule.transactions.items()
    }
    progress: Dict[str, int] = {name: 0 for name in schedule.transactions}

    def pre_locked_point(name: str) -> bool:
        point = lock_points[name]
        return point is not None and progress[name] <= point

    for pos, event in enumerate(schedule.events):
        txn, step = event.txn, event.step
        past = locked_past.setdefault(txn, set())
        have = held.setdefault(txn, set())
        gave = donated.setdefault(txn, set())
        if step.is_lock:
            if step.entity in past:
                violations.append(
                    f"event {pos}: {txn} locks {step.entity!r} twice (AL3)"
                )
            past.add(step.entity)
            have.add(step.entity)
            for other in schedule.transactions:
                if other == txn or not pre_locked_point(other):
                    continue
                other_donated = donated.get(other, set())
                if past & other_donated and not past.issubset(other_donated):
                    outside = sorted(past - other_donated, key=repr)
                    violations.append(
                        f"event {pos}: {txn} is in the wake of {other} but "
                        f"has locked non-donated items {outside} (AL2)"
                    )
        elif step.is_unlock:
            if step.entity not in have:
                violations.append(
                    f"event {pos}: {txn} unlocks {step.entity!r} it does not hold"
                )
            have.discard(step.entity)
            if pre_locked_point(txn):
                gave.add(step.entity)
        else:
            if step.entity not in have:
                violations.append(
                    f"event {pos}: {txn} performs {step} without a lock (AL1)"
                )
        progress[txn] += 1
    return violations


def _schedules(policy, items, init, seeds):
    for seed in seeds:
        yield Simulator(policy, seed=seed).run(items, init).schedule


def _fig4():
    items = [
        WorkloadItem("T1", [Access(1), Access(2), Access(3)]),
        WorkloadItem("T2", [Access(1), Access(2), Access(4)]),
    ]
    return _schedules(
        AltruisticPolicy(), items, StructuralState.of(1, 2, 3, 4), range(20)
    )


def _factory(name, kwargs):
    for seed in range(8):
        items, init, _ = grid_factory(name)(seed, **kwargs)
        yield Simulator(AltruisticPolicy(), seed=seed).run(items, init).schedule


def _broken():
    items = [
        WorkloadItem("LONG", [Access("a"), Access("b"), Access("c")]),
        WorkloadItem("S", [Access("c"), Access("a")]),
    ]
    return _schedules(
        BrokenAltruisticPolicy(), items, StructuralState.of("a", "b", "c"),
        range(60),
    )


SCHEDULE_SETS = {
    "fig4": _fig4,
    "long_transaction": lambda: _factory(
        "long_transaction", {"num_entities": 8, "num_short": 3}
    ),
    "random_access": lambda: _factory(
        "random_access", {"num_entities": 6, "num_txns": 5}
    ),
    "broken_al2": _broken,
}


def test_run_seed_counts_the_rule_checkers_findings():
    """How the scaling rows get ``rule_violations``: ``run_seed`` runs
    the policy's checker on the schedule it verifies."""
    items = [
        WorkloadItem("LONG", [Access("a"), Access("b"), Access("c")]),
        WorkloadItem("S", [Access("c"), Access("a")]),
    ]
    init = StructuralState.of("a", "b", "c")
    assert run_seed(AltruisticPolicy(), items, init, 0).rule_violations is None
    counts = {
        policy.name: [
            run_seed(
                policy, items, init, seed,
                rule_check=check_altruistic_schedule,
            ).rule_violations
            for seed in range(60)
        ]
        for policy in (AltruisticPolicy(), BrokenAltruisticPolicy())
    }
    assert set(counts["Altruistic"]) == {0}
    assert max(counts["Altruistic-noAL2"]) > 0


@pytest.mark.parametrize("runs", sorted(SCHEDULE_SETS))
def test_indexed_checker_equals_the_scan(runs):
    flagged = 0
    for schedule in SCHEDULE_SETS[runs]():
        got = check_altruistic_schedule(schedule)
        assert got == scan_check_altruistic_schedule(schedule)
        flagged += bool(got)
    if runs == "broken_al2":
        assert flagged > 0
