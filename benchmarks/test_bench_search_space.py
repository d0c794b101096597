"""Section 3.1's payoff — canonical schedules are a "small and highly
structured set".

Paper: the benefit of Theorem 1 is that a correctness proof need only
consider canonical schedules — serial executions of prefixes plus one lock
step — instead of arbitrary interleavings.

Measured, in two parts:

1. **Two-phase systems** — the space of complete legal & proper
   interleavings explodes combinatorially with system size, while the
   canonical candidate space is *empty* (condition 1 of Theorem 1 rules out
   every ``T_c``): safety follows with zero search.
2. **Early-release (unsafe) systems** — the work to *find* the
   counterexample: brute-force nodes explored vs canonical candidates
   considered before a witness is found.
"""

from conftest import banner

from repro.core.canonical import WitnessSearchStats, find_canonical_witness
from repro.core.safety import SearchStats, find_nonserializable_schedule
from repro.core.states import StructuralState
from repro.core.steps import Step
from repro.core.operations import Operation
from repro.enumeration import count_schedules, lock_wrap
from repro.exceptions import SearchBudgetExceeded

import random


def _entities(n):
    return [chr(ord("a") + i) for i in range(n)]


def _initial(n):
    return StructuralState(frozenset(_entities(n)))


def _disjoint_system(num_txns: int, steps: int):
    """W-only transactions over disjoint entities, strict-2PL wrapped: every
    interleaving is legal and proper, so the schedule count is the raw
    multinomial of the step sequences."""
    rng = random.Random(0)
    txns = []
    for i in range(num_txns):
        ents = [f"{chr(ord('a') + i)}{k}" for k in range(steps)]
        data = [Step(Operation.WRITE, e) for e in ents]
        txns.append(lock_wrap(f"T{i + 1}", data, "2pl", rng))
    return txns


def _disjoint_initial(num_txns: int, steps: int):
    ents = {f"{chr(ord('a') + i)}{k}" for i in range(num_txns) for k in range(steps)}
    return StructuralState(frozenset(ents))


def _opposed_system(num_txns: int, steps: int):
    """Transactions over one shared entity pool, odd ones in reverse order,
    early-release wrapped: classically unsafe."""
    rng = random.Random(0)
    pool = _entities(steps)
    txns = []
    for i in range(num_txns):
        order = list(reversed(pool)) if i % 2 else list(pool)
        data = [Step(Operation.WRITE, e) for e in order]
        txns.append(lock_wrap(f"T{i + 1}", data, "early", rng))
    return txns


def test_search_space_two_phase_table():
    banner("Two-phase systems: interleavings explode, canonical set is empty")
    print(f"{'txns x steps':>12} {'complete legal+proper':>22} "
          f"{'canonical candidates':>21}")
    counts = []
    for num_txns, steps in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        txns = _disjoint_system(num_txns, steps)
        initial = _disjoint_initial(num_txns, steps)
        try:
            schedules = count_schedules(txns, initial, budget=5_000_000)
            shown = str(schedules)
        except SearchBudgetExceeded:
            schedules = None
            shown = "> 5e6 (budget)"
        stats = WitnessSearchStats()
        witness = find_canonical_witness(txns, initial, stats=stats)
        assert witness is None
        print(f"{num_txns}x{steps:>10} {shown:>22} "
              f"{stats.candidates_considered:>21}")
        assert stats.candidates_considered == 0  # condition 1 prunes all
        counts.append(schedules)
    grown = [c for c in counts if c is not None]
    assert all(x < y for x, y in zip(grown, grown[1:]))
    print("\npaper: 'if all transactions obey two-phase locking we can "
          "immediately\nconclude that the transaction system is safe' — "
          "measured: zero candidates")


def test_search_space_unsafe_effort():
    banner("Unsafe early-release systems: effort to find the counterexample")
    print(f"{'txns x steps':>12} {'bruteforce nodes':>17} "
          f"{'canonical candidates':>21}")
    for num_txns, steps in [(2, 2), (2, 3), (3, 3)]:
        txns = _opposed_system(num_txns, steps)
        bf = SearchStats()
        schedule = find_nonserializable_schedule(
            txns, _initial(steps), budget=2_000_000, stats=bf
        )
        cn = WitnessSearchStats()
        witness = find_canonical_witness(txns, _initial(steps), stats=cn)
        assert schedule is not None and witness is not None
        print(f"{num_txns}x{steps:>10} {bf.nodes_explored:>17} "
              f"{cn.candidates_considered:>21}")
    print("\nshape: the canonical search touches a small, structured candidate"
          "\nspace; brute force walks the interleaving tree")


def test_two_phase_2x3_interleavings_counted():
    """The complete legal+proper interleavings of a 2x3 2PL system count."""
    txns = _disjoint_system(2, 3)
    initial = _disjoint_initial(2, 3)
    assert count_schedules(txns, initial, budget=5_000_000) > 0


def test_opposed_2x3_system_has_canonical_witness():
    """The canonical candidate sweep finds a witness on an unsafe 2x3 system."""
    txns = _opposed_system(2, 3)
    assert find_canonical_witness(txns, _initial(3)) is not None
