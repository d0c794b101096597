"""Tests for the completion search (condition 2b machinery)."""

import pytest

from repro import Schedule, StructuralState, Transaction, find_completion, is_completable
from repro.core.canonical import CanonicalWitness
from repro.core.operations import LockMode
from repro.enumeration import (
    corpus_initial_state,
    enumerate_schedules,
    random_locked_system,
)
from repro.exceptions import (
    IllegalScheduleError,
    ImproperScheduleError,
    SearchBudgetExceeded,
)


class TestCompletion:
    def test_empty_schedule_completes(self, simple_locked_pair):
        s = Schedule(simple_locked_pair)
        # With no transaction started the empty schedule is vacuously
        # "complete" under the paper's subset semantics; require_all forces
        # the full system to run.
        done = find_completion(s, require_all=True)
        assert done is not None and done.is_complete
        assert done.is_legal() and done.is_proper()

    def test_completion_extends_prefix(self, simple_locked_pair):
        s = Schedule.from_order(simple_locked_pair, ["T1", "T1"])
        done = find_completion(s)
        assert done is not None
        assert done.events[:2] == s.events

    def test_impossible_properness(self):
        t = Transaction.from_text("T", "(LX z) (W z) (UX z)")
        s = Schedule([t]).extended_by_steps("T", 1)
        # z never exists and nobody inserts it: no completion.
        assert find_completion(s) is None

    def test_cooperative_properness(self):
        # T1 writes c, which only T3 inserts: the completion must start T3
        # and order its insert before T1's lock of c.
        t1 = Transaction.from_text("T1", "(LX d) (I d) (UX d) (LX c) (W c) (UX c)")
        t3 = Transaction.from_text("T3", "(LX c) (I c) (UX c)")
        s = Schedule([t1, t3]).extended_by_steps("T1", 3)
        done = find_completion(s)
        assert done is not None
        evs = [str(e) for e in done.events]
        assert evs.index("T3:(I c)") < evs.index("T1:(W c)")

    def test_lock_deadlock_has_no_completion(self):
        # T1 holds a and needs b; T2 holds b and needs a: the prefix where
        # both hold their first lock cannot complete legally.
        t1 = Transaction.from_text("T1", "(LX a) (LX b) (I a) (I b) (UX a) (UX b)")
        t2 = Transaction.from_text("T2", "(LX b) (LX a) (I b) (I a) (UX b) (UX a)")
        s = Schedule.from_order([t1, t2], ["T1", "T2"])
        assert not is_completable(s)

    def test_require_all_flag(self):
        t1 = Transaction.from_text("T1", "(LX a) (I a) (UX a)")
        t2 = Transaction.from_text("T2", "(LX z) (W z) (UX z)")  # never proper
        s = Schedule([t1, t2]).extended_by_steps("T1", 1)
        # Without require_all, T2 may stay unstarted.
        assert is_completable(s, require_all=False)
        assert not is_completable(s, require_all=True)

    def test_budget_exceeded_raises(self):
        txns = [
            Transaction.from_text(f"T{i}", "(LX a) (R a) (UX a)") for i in range(6)
        ]
        # Rename entities apart so the state space is wide.
        txns = [
            Transaction.from_text(f"T{i}", f"(LX e{i}) (R e{i}) (UX e{i})")
            for i in range(8)
        ]
        s = Schedule(txns)
        with pytest.raises(SearchBudgetExceeded):
            find_completion(
                s,
                StructuralState(frozenset({f"e{i}" for i in range(8)})),
                budget=5,
                require_all=True,
            )

    def test_initial_state_respected(self):
        t = Transaction.from_text("T", "(LX a) (D a) (UX a)")
        s = Schedule([t]).extended_by_steps("T", 1)
        assert is_completable(s, StructuralState.of("a"))
        assert not is_completable(s, StructuralState.empty())

    def test_illegal_prefix_raises_instead_of_extending(self):
        # T2 locks a while T1 holds it: S' is illegal, and neither the
        # completion search nor the witness's realisation may extend it.
        t1 = Transaction.from_text("T1", "(LX a) (W a) (LX b) (W b) (UX a) (UX b)")
        t2 = Transaction.from_text("T2", "(LX a) (W a) (UX a) (LX c) (W c) (UX c)")
        t3 = Transaction.from_text("T3", "(LX c) (W c) (UX c) (LX a) (W a) (UX a)")
        initial = StructuralState.of("a", "b", "c")
        witness = CanonicalWitness(
            transactions=(t1, t2, t3), c_index=2, entity="a",
            lock_mode=LockMode.EXCLUSIVE, prefix_lengths={"T1": 2, "T2": 2, "T3": 3},
        )
        assert witness.problems(initial)[0].startswith("S' is not legal")
        sprime = witness.serial_prefix_schedule()
        with pytest.raises(IllegalScheduleError) as raised:
            find_completion(sprime, initial)
        assert str(raised.value) == sprime.legality_violation()
        with pytest.raises(IllegalScheduleError):
            witness.realize(initial)

    def test_improper_prefix_raises(self):
        t = Transaction.from_text("T", "(LX z) (W z) (UX z)")
        s = Schedule([t]).extended_by_steps("T", 2)
        with pytest.raises(ImproperScheduleError) as raised:
            find_completion(s)
        assert str(raised.value) == s.properness_violation()


MEMO_SYSTEMS = [
    (steps, style, seed)
    for steps in ((2, 2, 2), (2, 3, 2))
    for style in ("early", "chaotic", "mixed", "2pl")
    for seed in range(10)
]


@pytest.mark.parametrize(
    "steps,style,seed",
    MEMO_SYSTEMS,
    ids=["x".join(map(str, s)) + f"-{y}-{d}" for s, y, d in MEMO_SYSTEMS],
)
def test_completable_exactly_when_some_schedule_extends_the_prefix(
    steps, style, seed, reference_prefixes
):
    """Observation 2 of ``repro.core.completion``: the dead-end memo is
    keyed on the progress vector alone.  A key that forgot which transaction progressed
    would mark live prefixes dead, so each legal and proper prefix must be
    completable exactly when some complete schedule starts with it."""
    txns = random_locked_system(*steps, style=style, seed=seed)
    initial = corpus_initial_state(steps[1])
    complete = {s.events for s in enumerate_schedules(txns, initial)}
    extendable = {events[:n] for events in complete for n in range(len(events) + 1)}
    for prefix in reference_prefixes(txns, initial):
        done = find_completion(prefix, initial, require_all=True)
        assert (done is None) == (prefix.events not in extendable), str(prefix)
        assert done is None or done.events in complete
