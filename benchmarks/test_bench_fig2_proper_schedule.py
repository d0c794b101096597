"""Fig. 2 — the proper nonserializable schedule S_p and the failure of the
static chordless-cycle heuristic.

Paper: a three-transaction system where (i) the interaction graph has a pair
of edges between every two transactions, so the only chordless cycles have
two nodes; (ii) no schedule involving only two of the three transactions is
proper; and yet (iii) a legal, proper, nonserializable schedule of all three
exists.  Restricting attention to chordless cycles would wrongly pronounce
the system safe.

Measured: exactly those three facts, plus the sound deciders (brute force
and Theorem 1) both flagging the system unsafe.
"""

from conftest import banner

from repro import (
    InteractionGraph,
    canonicalize,
    find_canonical_witness,
    is_serializable,
    static_chordless_heuristic,
)
from repro.core.safety import find_nonserializable_schedule
from repro.enumeration import count_schedules, fig2_proper_schedule, fig2_system
from repro.viz import render_schedule


def test_fig2_sp_is_proper_legal_nonserializable():
    banner("Fig. 2 — the schedule S_p")
    sp = fig2_proper_schedule()
    print(render_schedule(sp, ["T1", "T2", "T3"]))
    assert sp.is_legal()
    assert sp.is_proper()
    assert not is_serializable(sp)
    print("\nlegal: True | proper: True | serializable: False  (paper: same)")


def test_fig2_pairs_have_no_proper_schedules():
    banner("Fig. 2 — two-transaction subsystems are never proper")
    txns = fig2_system()
    for i in range(3):
        for j in range(i + 1, 3):
            pair = [txns[i], txns[j]]
            n = count_schedules(pair)
            print(f"  {{{pair[0].name}, {pair[1].name}}}: "
                  f"{n} complete legal+proper schedules")
            assert n == 0


def test_fig2_chordless_cycles_are_pairs_only():
    banner("Fig. 2 — interaction graph: only 2-node chordless cycles")
    graph = InteractionGraph.of(fig2_system())
    cycles = graph.chordless_cycles()
    for pair, count in graph.multiplicity:
        print(f"  {pair}: {count} conflicting data-step pairs")
    print(f"  chordless cycles: {cycles}")
    assert all(len(c) == 2 for c in cycles)


def test_fig2_heuristic_vs_sound_deciders():
    banner("Fig. 2 — static heuristic says SAFE; sound deciders say UNSAFE")
    txns = fig2_system()
    verdict = static_chordless_heuristic(txns)
    schedule = find_nonserializable_schedule(txns)
    witness = find_canonical_witness(txns)
    print(f"  chordless-cycle heuristic: "
          f"{'safe' if verdict.declared_safe else 'unsafe'}  (paper: safe — wrongly)")
    print(f"  brute-force decider:       "
          f"{'safe' if schedule is None else 'unsafe'}  (paper: unsafe)")
    print(f"  canonical decider (Thm 1): "
          f"{'safe' if witness is None else 'unsafe'}  (paper: unsafe)")
    assert verdict.declared_safe
    assert schedule is not None and witness is not None
    canonical = canonicalize(schedule)
    assert canonical.is_valid()
    print("\n  canonicalised brute-force witness:")
    print("  " + "\n  ".join(canonical.describe().splitlines()))


def test_fig2_bruteforce_decider_finds_unsafe_schedule():
    """The brute-force decider finds a non-serializable schedule of Fig. 2."""
    assert find_nonserializable_schedule(fig2_system()) is not None
