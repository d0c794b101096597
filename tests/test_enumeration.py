"""Tests for schedule enumeration and the random-system generators."""

import pytest

from repro import Schedule, StructuralState, Transaction
from repro.enumeration import (
    corpus_initial_state,
    count_schedules,
    enumerate_schedules,
    fig2_proper_schedule,
    fig2_system,
    lock_wrap,
    random_data_steps,
    random_locked_system,
    random_schedule,
)
from repro.core.interleaving import Interleaving
from repro.exceptions import SearchBudgetExceeded

import itertools
import math
import random


def _all_orders(t1, t2):
    """Every ordering of two transactions' steps that keeps each one's own
    order, legal or not: one per choice of positions for ``t1``'s steps."""
    total = len(t1.steps) + len(t2.steps)
    for mine in itertools.combinations(range(total), len(t1.steps)):
        order = [t1.name if p in mine else t2.name for p in range(total)]
        yield Schedule.from_order([t1, t2], order)


def _oracle_systems():
    simple = [
        Transaction.from_text("T1", "(LX a) (I a) (UX a)"),
        Transaction.from_text("T2", "(LX a) (W a) (UX a)"),
    ]
    yield "simple_locked_pair", simple, StructuralState.empty()
    for pair in itertools.combinations(fig2_system(), 2):
        yield f"fig2-{pair[0].name}{pair[1].name}", list(pair), StructuralState.empty()
    for style in ("early", "chaotic", "mixed", "2pl"):
        for shared in (False, True):
            for seed in range(3):
                txns = random_locked_system(
                    2, 2, 2, style=style, seed=seed, use_shared=shared
                )
                yield f"2x2x2-{style}-{shared}-{seed}", txns, corpus_initial_state(2)


ORACLE_SYSTEMS = {name: (txns, initial) for name, txns, initial in _oracle_systems()}


class TestWalkersMatchReferenceChecks:
    """The walkers step through one legality/properness rule; the
    reference is ``Schedule.is_legal`` and ``is_proper``."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
    def test_walks_equal_the_accepted_orders(self, name, reference_prefixes):
        txns, initial = ORACLE_SYSTEMS[name]
        accepted = {
            p.events for p in reference_prefixes(txns, initial) if p.is_complete
        }
        assert count_schedules(txns, initial) == len(accepted)
        walked = [s.events for s in enumerate_schedules(txns, initial)]
        assert len(walked) == len(set(walked))
        assert set(walked) == accepted
        drawn = random_schedule(txns, initial, seed=0)
        assert (drawn is None) == (not accepted)
        assert drawn is None or drawn.events in accepted

    @pytest.mark.parametrize(
        "name", sorted(n for n in ORACLE_SYSTEMS if not n.startswith("fig2"))
    )
    def test_growing_drops_no_accepted_order(self, name, reference_prefixes):
        """Growing prefixes accepts exactly the orderings that filtering
        every ordering does.  (A Fig. 2 pair has C(24, 12) = 2,704,156
        orderings, too many to filter one by one.)"""
        txns, initial = ORACLE_SYSTEMS[name]
        grown = {
            p.events for p in reference_prefixes(txns, initial) if p.is_complete
        }
        assert grown == {
            s.events for s in _all_orders(*txns)
            if s.is_legal() and s.is_proper(initial)
        }


class TestEnumeration:
    def test_counts_match_interleaving_formula_without_filters(self):
        # Two disjoint transactions of lengths 3 and 3: every one of the
        # C(6,3) = 20 orders is legal and proper.
        t1 = Transaction.from_text("T1", "(LX a) (I a) (UX a)")
        t2 = Transaction.from_text("T2", "(LX b) (I b) (UX b)")
        assert count_schedules([t1, t2]) == math.comb(6, 3)

    def test_legality_prunes(self, simple_locked_pair):
        assert 0 < count_schedules(simple_locked_pair) < math.comb(6, 3)

    def test_enumerate_yields_valid_schedules(self, simple_locked_pair):
        for s in enumerate_schedules(simple_locked_pair):
            assert s.is_complete
            assert s.is_legal()
            assert s.is_proper()

    def test_enumerate_limit(self, simple_locked_pair):
        out = list(enumerate_schedules(simple_locked_pair, limit=1))
        assert len(out) == 1

    def test_a_dead_end_is_walked_once(self, monkeypatch):
        """This system has no complete schedule, and its tree reaches the
        same dead progress vectors by millions of orders; the walk
        remembers each dead vector, so it stops after a few hundred
        steps (882 when this was written; 13.6 million without it)."""
        pushes = 0
        push = Interleaving.push

        def counting_push(cursor, event):
            nonlocal pushes
            pushes += 1
            push(cursor, event)

        monkeypatch.setattr(Interleaving, "push", counting_push)
        system = random_locked_system(3, 4, 4, style="early", seed=2)
        walk = enumerate_schedules(system, corpus_initial_state(4), limit=1)
        assert next(walk, None) is None
        assert pushes <= 5_000

    def test_budget_guard(self):
        txns = [
            Transaction.from_text(f"T{i}", f"(LX e{i}) (I e{i}) (UX e{i})")
            for i in range(7)
        ]
        with pytest.raises(SearchBudgetExceeded):
            count_schedules(txns, budget=100)

    def test_random_schedule_valid(self, simple_locked_pair):
        s = random_schedule(simple_locked_pair, seed=5)
        assert s is not None
        assert s.is_complete and s.is_legal() and s.is_proper()

    def test_random_schedule_none_when_impossible(self):
        t = Transaction.from_text("T", "(LX z) (W z) (UX z)")
        assert random_schedule([t], seed=0) is None


class TestGenerators:
    def test_lock_wrap_well_formed_all_styles(self):
        rng = random.Random(1)
        for style in ("2pl", "early", "chaotic"):
            for seed in range(10):
                rng = random.Random(seed)
                data = random_data_steps(["a", "b", "c"], 4, rng)
                txn = lock_wrap("T", data, style, rng)
                assert txn.is_well_formed(), (style, seed, str(txn))
                assert txn.locks_entity_at_most_once()
                assert txn.unlocked_projection().steps == tuple(data)

    def test_2pl_style_is_two_phase(self):
        rng = random.Random(2)
        data = random_data_steps(["a", "b"], 4, rng)
        assert lock_wrap("T", data, "2pl", rng).is_two_phase()

    def test_random_locked_system_deterministic(self):
        a = random_locked_system(2, 2, 3, style="mixed", seed=7)
        b = random_locked_system(2, 2, 3, style="mixed", seed=7)
        assert [str(t) for t in a] == [str(t) for t in b]

    def test_corpus_initial_state(self):
        assert corpus_initial_state(3).entities == frozenset({"a", "b", "c"})


class TestFig2System:
    def test_sp_is_legal_proper_nonserializable(self, fig2_sp):
        from repro import is_serializable

        assert fig2_sp.is_legal()
        assert fig2_sp.is_proper()
        assert not is_serializable(fig2_sp)

    def test_transactions_well_formed(self, fig2_txns):
        for t in fig2_txns:
            assert t.is_well_formed()
            assert t.locks_entity_at_most_once()
            assert not t.is_two_phase()  # condition 1 material

    def test_no_proper_pair_schedules(self, fig2_txns):
        # Every two-transaction subsystem is improper from the empty DB.
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                pair = [fig2_txns[i], fig2_txns[j]]
                assert count_schedules(pair) == 0
