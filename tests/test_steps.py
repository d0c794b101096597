"""Unit tests for steps and step parsing (repro.core.steps), and for the
record contract ``Step`` shares with ``Event`` and ``Transaction``."""

import dataclasses
import pickle

import pytest

from repro.core.operations import LX, R, UX, W, I, Operation
from repro.core.schedules import Event
from repro.core.steps import (
    Step,
    conflicting_pairs,
    entities_of,
    parse_step,
    parse_steps,
    step,
    steps_conflict,
)
from repro.core.transactions import Transaction


class TestStep:
    def test_equality_structural(self):
        assert Step(R, "a") == Step(R, "a")
        assert Step(R, "a") != Step(W, "a")
        assert Step(R, "a") != Step(R, "b")

    def test_hashable(self):
        assert len({Step(R, "a"), Step(R, "a"), Step(W, "a")}) == 2

    def test_str_matches_paper_notation(self):
        assert str(Step(Operation.INSERT, "a")) == "(I a)"
        assert str(Step(LX, 4)) == "(LX 4)"

    def test_classification(self):
        assert Step(R, "a").is_data
        assert Step(LX, "a").is_lock
        assert Step(UX, "a").is_unlock

    def test_step_constructor_accepts_strings(self):
        assert step("LX", "a") == Step(LX, "a")
        assert step(R, "a") == Step(R, "a")


class TestConflicts:
    def test_same_entity_required(self):
        assert not Step(W, "a").conflicts_with(Step(W, "b"))
        assert Step(W, "a").conflicts_with(Step(W, "a"))

    def test_read_read_no_conflict(self):
        assert not Step(R, "a").conflicts_with(Step(R, "a"))

    def test_insert_conflicts_with_read(self):
        assert steps_conflict(Step(I, "a"), Step(R, "a"))

    def test_lock_conflicts(self):
        assert Step(LX, "a").conflicts_with(Step(LX, "a"))
        assert Step(UX, "a").conflicts_with(Step(LX, "a"))

    def test_conflicting_pairs(self):
        a = [Step(W, "x"), Step(R, "y")]
        b = [Step(R, "x"), Step(R, "y"), Step(W, "y")]
        pairs = list(conflicting_pairs(a, b))
        assert (Step(W, "x"), Step(R, "x")) in pairs
        assert (Step(R, "y"), Step(W, "y")) in pairs
        assert (Step(R, "y"), Step(R, "y")) not in pairs


class TestParsing:
    def test_parse_step_parenthesised(self):
        assert parse_step("(I a)") == Step(I, "a")

    def test_parse_step_bare(self):
        assert parse_step("W  c") == Step(W, "c")

    def test_parse_step_integer_entity(self):
        assert parse_step("(LX 4)") == Step(LX, 4)

    def test_parse_steps_sequence(self):
        steps = parse_steps("(I a) (I b) (W c) (I d)")
        assert [s.op for s in steps] == [I, I, W, I]
        assert [s.entity for s in steps] == ["a", "b", "c", "d"]

    def test_parse_steps_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_steps("(I a) junk (W b)")
        with pytest.raises(ValueError):
            parse_steps("(I a")
        with pytest.raises(ValueError):
            parse_step("(I)")

    def test_entities_of(self):
        assert entities_of(parse_steps("(I a) (W b) (R a)")) == {"a", "b"}


class TestRecords:
    """``Step``, ``Event`` and ``Transaction`` are slotted frozen records:
    field names, keyword construction, ``repr``/``str``, class-strict
    equality and the field-tuple hash of a frozen dataclass, no instance
    ``__dict__``, and no way to change one."""

    STEP = Step(R, "a")
    EVENT = Event("T1", 0, STEP)
    TXN = Transaction("T1", [STEP, Step(W, "a")])
    RECORDS = (STEP, EVENT, TXN)

    def test_fields_and_keyword_construction(self):
        names = {
            type(r): tuple(f.name for f in dataclasses.fields(r))
            for r in self.RECORDS
        }
        assert names == {
            Step: ("op", "entity"),
            Event: ("txn", "index", "step"),
            Transaction: ("name", "steps"),
        }
        assert Step(op=R, entity="a") == self.STEP
        assert Event(txn="T1", index=0, step=self.STEP) == self.EVENT
        assert Transaction(name="T1", steps=self.TXN.steps) == self.TXN
        # Any iterable of steps is stored as a tuple.
        assert type(self.TXN.steps) is tuple
        assert Transaction.of("T1", iter(self.TXN.steps)) == self.TXN
        assert dataclasses.replace(self.STEP, entity="b") == Step(R, "b")

    def test_repr_and_str(self):
        assert repr(self.STEP) == "Step(READ, 'a')"
        assert str(self.STEP) == "(R a)"
        assert repr(self.EVENT) == "Event(txn='T1', index=0, step=Step(READ, 'a'))"
        assert str(self.EVENT) == "T1:(R a)"
        assert repr(self.TXN) == (
            "Transaction(name='T1', steps=(Step(READ, 'a'), Step(WRITE, 'a')))"
        )
        assert str(self.TXN) == "T1: (R a) (W a)"

    def test_hash_is_the_field_tuples(self):
        assert hash(self.STEP) == hash((R, "a"))
        assert hash(self.EVENT) == hash(("T1", 0, self.STEP))
        assert hash(self.TXN) == hash(("T1", self.TXN.steps))

    def test_equality_is_class_strict(self):
        assert self.STEP != (R, "a")
        assert self.EVENT != ("T1", 0, self.STEP)
        assert self.TXN != ("T1", self.TXN.steps)
        assert len({self.STEP, (R, "a")}) == 2

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, record):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)
        # A name that is not a field has no slot.  The generated
        # ``__setattr__`` of a slotted frozen dataclass still refers to
        # the class before ``slots=True`` rebuilt it, so before Python
        # 3.14 it fails in ``super()`` with ``TypeError``.
        with pytest.raises((AttributeError, TypeError)):
            record.extra = None
        assert not hasattr(record, "extra")

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)
        assert type(copy) is type(record)

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_no_instance_dict(self, record):
        assert not hasattr(record, "__dict__")
