"""Tests for canonical witnesses and the Theorem-1 witness search."""

import pytest

from repro import (
    CanonicalWitness,
    LockMode,
    StructuralState,
    find_canonical_witness,
    is_serializable,
)
from repro.core import canonical
from repro.core.canonical import WitnessSearchStats
from repro.core.completion import find_completion
from repro.enumeration import corpus_initial_state, random_locked_system

#: The non-two-phase pair operates on pre-existing entities a and b.
AB = StructuralState.of("a", "b")


@pytest.fixture
def unsafe_pair(nontwophase_pair):
    return nontwophase_pair


class TestWitnessChecking:
    def _witness(self, txns, c, entity, lengths, mode=LockMode.EXCLUSIVE):
        return CanonicalWitness(
            transactions=tuple(txns),
            c_index=c,
            entity=entity,
            lock_mode=mode,
            prefix_lengths=lengths,
        )

    def test_valid_witness_for_classic_cycle(self, unsafe_pair):
        t1, t2 = unsafe_pair
        # The Only-If construction's witness: T_c = T1 with prefix
        # (LX a)(W a)(UX a), pending (LX b); T2 runs in full (its unlock of b
        # makes it the unique conflicting sink).  S' = T1' then T2.
        witness = self._witness([t1, t2], 0, "b", {"T1": 3, "T2": 6})
        assert witness.problems(AB) == []
        assert witness.is_valid(AB)

    def test_tc_must_not_be_sink(self, unsafe_pair):
        t1, t2 = unsafe_pair
        # With T2's prefix stopping before it touches entity a, the prefixes
        # share no entity, so T'_c is (also) a sink: invalid.
        witness = self._witness([t2, t1], 1, "b", {"T2": 3, "T1": 3})
        problems = witness.problems(AB)
        assert any("sink" in p for p in problems)

    def test_condition1_rejects_two_phase_tc(self, simple_locked_pair):
        t1, t2 = simple_locked_pair
        witness = self._witness([t2, t1], 1, "a", {"T2": 3, "T1": 0})
        problems = witness.problems()
        assert problems  # T1 never unlocked before locking a

    def test_condition2a_rejects_nonunlocking_sink(self, unsafe_pair):
        t1, t2 = unsafe_pair
        # T2 prefix of length 5 locks a but never unlocks b... prefix of
        # length 2 holds b without unlocking: the sink check must fire.
        witness = self._witness([t1, t2], 0, "b", {"T1": 3, "T2": 2})
        problems = witness.problems(AB)
        assert any("2a" in p or "sink" in p for p in problems)

    @pytest.mark.parametrize("order, c, lengths", [
        ((1, 0), 1, {"T2": 3, "T1": 3}),  # T'_c is a sink
        ((0, 1), 0, {"T1": 3, "T2": 2}),  # the sink fails (2a)
    ])
    def test_invalid_witness_runs_no_completion_search(
        self, unsafe_pair, monkeypatch, order, c, lengths
    ):
        """A witness already invalid before (2b) is not searched for a
        completion, so its problems carry no (2b) line."""
        def no_search(*args):
            raise AssertionError("completion searched for an invalid witness")

        monkeypatch.setattr(canonical, "find_completion", no_search)
        txns = [unsafe_pair[i] for i in order]
        stats = WitnessSearchStats()
        problems = self._witness(txns, c, "b", lengths).problems(AB, stats=stats)
        assert problems and not any("2b" in p for p in problems)
        assert (stats.schedules_built, stats.completions_searched) == (1, 0)

    def test_wrong_entity_rejected(self, unsafe_pair):
        t1, t2 = unsafe_pair
        witness = self._witness([t1, t2], 0, "zzz", {"T1": 3, "T2": 6})
        assert witness.problems(AB)

    def test_k_greater_than_one_required(self, unsafe_pair):
        t1, _ = unsafe_pair
        witness = self._witness([t1], 0, "b", {"T1": 3})
        assert any("k > 1" in p for p in witness.problems(AB))

    def test_realize_produces_nonserializable_completion(self, unsafe_pair):
        t1, t2 = unsafe_pair
        witness = self._witness([t1, t2], 0, "b", {"T1": 3, "T2": 6})
        schedule = witness.realize(AB)
        assert schedule.is_complete and schedule.is_legal()
        assert schedule.is_proper(AB)
        assert not is_serializable(schedule)

    def test_describe_mentions_tc_and_graph(self, unsafe_pair):
        t1, t2 = unsafe_pair
        witness = self._witness([t1, t2], 0, "b", {"T1": 3, "T2": 6})
        text = witness.describe()
        assert "T_c = T1" in text and "D(S')" in text

    def test_lock_step_accessor(self, unsafe_pair):
        t1, t2 = unsafe_pair
        witness = self._witness([t1, t2], 0, "b", {"T1": 3, "T2": 6})
        step = witness.lock_step()
        assert step.is_lock and step.entity == "b"


class TestWitnessSearch:
    def test_finds_witness_for_unsafe_pair(self, unsafe_pair):
        witness = find_canonical_witness(unsafe_pair, AB)
        assert witness is not None
        assert witness.is_valid(AB)
        assert witness.satisfies_exclusive_variant()

    def test_no_witness_for_two_phase_system(self, simple_locked_pair):
        assert find_canonical_witness(simple_locked_pair) is None

    def test_no_witness_when_properness_blocks_cycle(self, unsafe_pair):
        # From the empty database the pair cannot execute any data step, so
        # the system is (vacuously) safe and no witness may be reported.
        assert find_canonical_witness(unsafe_pair, StructuralState.empty()) is None

    def test_finds_witness_for_fig2(self, fig2_txns):
        witness = find_canonical_witness(fig2_txns)
        assert witness is not None and witness.is_valid()
        # Fig 2's point: the witness involves all three transactions —
        # no two-transaction subsystem has any proper schedule.
        assert len(witness.transactions) == 3

    def test_stats_populated(self, unsafe_pair):
        stats = WitnessSearchStats()
        find_canonical_witness(unsafe_pair, AB, stats=stats)
        assert stats.candidates_considered > 0

    def test_stats_count_each_stage_of_the_search(self, monkeypatch):
        """``schedules_built`` counts the ``S'`` that ``problems`` builds
        and ``completions_searched`` the completion searches, so each
        counter sees only what the stage before it let through."""
        calls = {"built": 0, "completions": 0}
        build = CanonicalWitness.serial_prefix_schedule

        def counting_build(witness):
            calls["built"] += 1
            return build(witness)

        def counting_completion(*args):
            calls["completions"] += 1
            return find_completion(*args)

        monkeypatch.setattr(
            CanonicalWitness, "serial_prefix_schedule", counting_build
        )
        monkeypatch.setattr(canonical, "find_completion", counting_completion)
        readings = []
        for style in ("early", "chaotic", "mixed", "2pl"):
            for seed in range(8):
                calls.update(built=0, completions=0)
                stats = WitnessSearchStats()
                find_canonical_witness(
                    random_locked_system(3, 3, 3, style=style, seed=seed),
                    corpus_initial_state(3),
                    stats=stats,
                )
                assert (stats.schedules_built, stats.completions_searched) == (
                    calls["built"], calls["completions"]
                )
                readings.append((
                    stats.completions_searched,
                    stats.schedules_built,
                    stats.candidates_considered,
                ))
        assert all(c <= b <= k for c, b, k in readings)
        assert any(b < k for _, b, k in readings)
        assert any(c < b for c, b, _ in readings)
        assert any(c > 0 for c, _, _ in readings)

    def test_max_partners_bound(self, fig2_txns):
        # Fig 2 needs k = 3; with partners capped at 1 no witness exists.
        assert find_canonical_witness(fig2_txns, max_partners=1) is None
