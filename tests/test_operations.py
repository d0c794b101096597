"""Unit tests for the operation algebra (repro.core.operations)."""

import pytest

from repro.core.operations import (
    ALL_OPERATIONS,
    DATA_OPERATIONS,
    LS,
    LX,
    NON_CONFLICTING,
    US,
    UX,
    D,
    I,
    LockMode,
    Operation,
    R,
    W,
    operations_conflict,
    parse_operation,
)


class TestClassification:
    def test_data_operations(self):
        assert DATA_OPERATIONS == {R, W, I, D}
        for op in DATA_OPERATIONS:
            assert op.is_data
            assert not op.is_lock
            assert not op.is_unlock

    def test_lock_operations(self):
        assert LS.is_lock and LX.is_lock
        assert US.is_unlock and UX.is_unlock
        assert not LS.is_data

    def test_structural_operations(self):
        assert I.is_structural and D.is_structural
        assert not R.is_structural and not W.is_structural

    def test_lock_modes(self):
        assert LS.lock_mode is LockMode.SHARED
        assert LX.lock_mode is LockMode.EXCLUSIVE
        assert US.lock_mode is LockMode.SHARED
        assert UX.lock_mode is LockMode.EXCLUSIVE
        assert R.lock_mode is None

    def test_definedness_requirements(self):
        assert R.requires_present and W.requires_present and D.requires_present
        assert I.requires_absent
        assert not LX.requires_present and not LX.requires_absent

    def test_predicate_table(self):
        """All seven per-member predicates against the paper's sets, each
        stored on the member itself; members hash through the C slot."""
        modes = {LS: LockMode.SHARED, LX: LockMode.EXCLUSIVE,
                 US: LockMode.SHARED, UX: LockMode.EXCLUSIVE}
        for m in Operation:
            expected = {
                "is_data": m in {R, W, I, D},
                "is_structural": m in {I, D},
                "requires_present": m in {R, W, D},
                "requires_absent": m in {I},
                "is_lock": m in {LS, LX},
                "is_unlock": m in {US, UX},
                "lock_mode": modes.get(m),
            }
            for attr, want in expected.items():
                assert getattr(m, attr) is want, (m, attr)
                assert attr in vars(m), (m, attr)
        for m in (*LockMode, *Operation):
            assert hash(m) == object.__hash__(m), m

    def test_all_operations_has_eight(self):
        assert len(ALL_OPERATIONS) == 8


class TestConflicts:
    def test_non_conflicting_set_is_paper_set(self):
        assert NON_CONFLICTING == {R, LS, US}

    def test_reads_and_shared_locks_do_not_conflict(self):
        for a in (R, LS, US):
            for b in (R, LS, US):
                assert not operations_conflict(a, b)

    def test_write_conflicts_with_everything(self):
        for other in ALL_OPERATIONS:
            assert operations_conflict(W, other)
            assert operations_conflict(other, W)

    def test_insert_delete_conflict_with_reads(self):
        assert operations_conflict(I, R)
        assert operations_conflict(D, R)

    def test_exclusive_lock_conflicts_with_shared(self):
        assert operations_conflict(LX, LS)
        assert operations_conflict(UX, LS)

    def test_conflict_symmetric(self):
        for a in ALL_OPERATIONS:
            for b in ALL_OPERATIONS:
                assert operations_conflict(a, b) == operations_conflict(b, a)


class TestLockMode:
    def test_mode_conflicts(self):
        assert LockMode.EXCLUSIVE.conflicts_with(LockMode.EXCLUSIVE)
        assert LockMode.EXCLUSIVE.conflicts_with(LockMode.SHARED)
        assert LockMode.SHARED.conflicts_with(LockMode.EXCLUSIVE)
        assert not LockMode.SHARED.conflicts_with(LockMode.SHARED)

    def test_mode_ops_roundtrip(self):
        assert LockMode.SHARED.lock_op is LS
        assert LockMode.SHARED.unlock_op is US
        assert LockMode.EXCLUSIVE.lock_op is LX
        assert LockMode.EXCLUSIVE.unlock_op is UX


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [("R", R), ("W", W), ("I", I), ("D", D), ("LS", LS), ("LX", LX),
         ("US", US), ("UX", UX), ("lx", LX), ("r", R)],
    )
    def test_parse_valid(self, text, expected):
        assert parse_operation(text) is expected

    def test_parse_invalid_raises(self):
        with pytest.raises(ValueError, match="unknown operation"):
            parse_operation("Q")

    def test_str_is_abbreviation(self):
        assert str(LX) == "LX" and str(R) == "R"
