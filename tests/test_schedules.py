"""Unit tests for schedules: interleavings, legality, properness."""

import pytest

from repro import Schedule, StructuralState, Transaction
from repro.core.schedules import Event, validate_schedule
from repro.core.steps import parse_step
from repro.exceptions import (
    IllegalScheduleError,
    ImproperScheduleError,
    MalformedScheduleError,
)


class TestConstruction:
    def test_from_order(self, section2_t1, section2_t2):
        s = Schedule.from_order([section2_t1, section2_t2], ["T1", "T2", "T1"])
        assert [e.txn for e in s] == ["T1", "T2", "T1"]
        assert [e.index for e in s] == [0, 0, 1]

    def test_from_order_too_many_steps(self, section2_t2):
        with pytest.raises(MalformedScheduleError):
            Schedule.from_order([section2_t2], ["T2"] * 4)

    def test_from_order_unknown_txn(self, section2_t1):
        with pytest.raises(MalformedScheduleError):
            Schedule.from_order([section2_t1], ["T9"])

    def test_events_must_be_in_transaction_order(self, section2_t1):
        evt = Event("T1", 1, section2_t1.steps[1])
        with pytest.raises(MalformedScheduleError, match="out of order"):
            Schedule([section2_t1], [evt])

    def test_events_must_match_steps(self, section2_t1):
        evt = Event("T1", 0, parse_step("(W zz)"))
        with pytest.raises(MalformedScheduleError, match="does not match"):
            Schedule([section2_t1], [evt])

    def test_serial(self, section2_t1, section2_t2):
        s = Schedule.serial([section2_t1, section2_t2])
        assert s.is_serial() and s.is_complete
        assert len(s) == len(section2_t1) + len(section2_t2)

    def test_serial_custom_order(self, section2_t1, section2_t2):
        s = Schedule.serial([section2_t1, section2_t2], order=["T2", "T1"])
        assert s.events[0].txn == "T2"

    def test_serial_prefixes(self, section2_t1, section2_t2):
        s = Schedule.serial_prefixes(
            [section2_t1, section2_t2], {"T1": 2, "T2": 1}, ["T1", "T2"]
        )
        assert len(s) == 3
        assert s.is_serial() and not s.is_complete


class TestShape:
    def test_progress_and_projection(self, section2_proper):
        assert section2_proper.progress() == {"T1": 4, "T2": 3}
        assert len(section2_proper.projection("T2")) == 3

    def test_prefix(self, section2_proper):
        p = section2_proper.prefix(3)
        assert len(p) == 3 and not p.is_complete

    def test_is_serial_detects_interleaving(self, section2_proper):
        assert not section2_proper.is_serial()

    def test_extended_by_steps(self, section2_t1, section2_t2):
        s = Schedule([section2_t1, section2_t2])
        s = s.extended_by_steps("T1", 2).extended_by_steps("T2", 1)
        assert [e.txn for e in s] == ["T1", "T1", "T2"]

    def test_next_event_of(self, section2_t1):
        s = Schedule([section2_t1])
        evt = s.next_event_of("T1")
        assert evt == Event("T1", 0, section2_t1.steps[0])
        done = Schedule.serial([section2_t1])
        assert done.next_event_of("T1") is None


class TestProperness:
    def test_paper_proper_example(self, section2_proper):
        assert section2_proper.is_proper()

    def test_paper_improper_example(self, section2_improper):
        assert not section2_improper.is_proper()
        msg = section2_improper.properness_violation()
        assert "(W c)" in msg

    def test_proper_depends_on_initial_state(self, section2_t1, section2_t2):
        # T1 alone is proper iff c pre-exists (its (W c) step needs it).
        t1_only = Schedule.serial_prefixes(
            [section2_t1, section2_t2], {"T1": 4, "T2": 0}, ["T1"]
        )
        assert t1_only.is_proper(StructuralState.of("c"))
        assert not t1_only.is_proper(StructuralState.empty())

    def test_assert_proper(self, section2_improper):
        with pytest.raises(ImproperScheduleError):
            section2_improper.assert_proper()

    @pytest.mark.parametrize("bad", [
        "(R z)", "(W z)", "(D z)",   # entity absent
        "(I p)",                     # entity present
    ])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_violation_message_matches_the_structural_state_fold(
        self, bad, position
    ):
        def oracle(schedule, initial):
            """The message as a fold of StructuralState.defines / apply."""
            state = initial
            for pos, e in enumerate(schedule.events):
                if not state.defines(e.step):
                    detail = ("entity absent" if e.step.op.requires_present
                              else "entity present")
                    return (f"event {pos} {e}: step undefined in state "
                            f"{state} ({detail})")
                state = state.apply(e.step)
            return None

        initial = StructuralState.of("p", "q")
        good = ["(LX n)", "(I n)", "(W n)", "(R q)", "(D q)", "(UX n)"]
        at = {"first": 0, "middle": 3, "last": len(good)}[position]
        steps = good[:at] + [bad] + good[at:]
        t1 = Transaction.from_text("T1", " ".join(steps))
        t2 = Transaction.from_text("T2", "(LS p) (R p) (US p)")
        order = ["T2"] + ["T1"] * len(steps) + ["T2", "T2"]
        schedule = Schedule.from_order([t1, t2], order)

        message = schedule.properness_violation(initial)
        assert message is not None and f"event {at + 1} T1:{bad}" in message
        assert message == oracle(schedule, initial)
        with pytest.raises(ImproperScheduleError) as exc:
            schedule.assert_proper(initial)
        assert str(exc.value) == message
        # Without the bad step the same schedule is proper, for both.
        clean = Schedule.from_order(
            [Transaction.from_text("T1", " ".join(good)), t2],
            ["T2"] + ["T1"] * len(good) + ["T2", "T2"],
        )
        assert clean.properness_violation(initial) is None
        assert oracle(clean, initial) is None

    def test_final_state(self, section2_proper):
        final = section2_proper.final_state()
        assert final.entities == frozenset({"a", "c", "d"})

    def test_structural_trace_length(self, section2_proper):
        assert len(section2_proper.structural_trace()) == len(section2_proper) + 1


class TestLegality:
    def test_legal_serial(self, simple_locked_pair):
        assert Schedule.serial(simple_locked_pair).is_legal()

    def test_illegal_interleaving(self, simple_locked_pair):
        s = Schedule.from_order(simple_locked_pair, ["T1", "T2"])
        assert not s.is_legal()
        assert "T2 acquires" in s.legality_violation()

    def test_shared_locks_coexist(self):
        t1 = Transaction.from_text("T1", "(LS a) (R a) (US a)")
        t2 = Transaction.from_text("T2", "(LS a) (R a) (US a)")
        s = Schedule.from_order([t1, t2], ["T1", "T2", "T1", "T2", "T1", "T2"])
        assert s.is_legal()

    def test_shared_blocks_exclusive(self):
        t1 = Transaction.from_text("T1", "(LS a) (R a) (US a)")
        t2 = Transaction.from_text("T2", "(LX a) (W a) (UX a)")
        s = Schedule.from_order([t1, t2], ["T1", "T2"])
        assert not s.is_legal()

    def test_assert_legal(self, simple_locked_pair):
        s = Schedule.from_order(simple_locked_pair, ["T1", "T2"])
        with pytest.raises(IllegalScheduleError):
            s.assert_legal()

    def test_held_locks_reporting(self, simple_locked_pair):
        s = Schedule.from_order(simple_locked_pair, ["T1"])
        held = s.held_locks()
        assert "a" in held["T1"] and not held["T2"]
        holders = s.lock_holders()
        assert set(holders["a"]) == {"T1"}


class TestValidate:
    def test_validate_ok(self, simple_locked_pair):
        s = Schedule.serial(simple_locked_pair)
        validate_schedule(s, require_complete=True)

    def test_validate_flags_incomplete(self, simple_locked_pair):
        s = Schedule.serial(simple_locked_pair).prefix(2)
        with pytest.raises(MalformedScheduleError):
            validate_schedule(s, require_complete=True)


class TestRendering:
    def test_format_rows_shape(self, section2_proper):
        text = section2_proper.format_rows(["T1", "T2"])
        lines = text.splitlines()
        assert lines[0].startswith("T1:")
        assert lines[1].startswith("T2:")
        assert "(I a)" in lines[0]
        assert "(D b)" in lines[1]
