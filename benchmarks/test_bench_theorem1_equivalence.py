"""Theorem 1 — empirical equivalence of the two safety deciders.

Paper: a locked transaction system is unsafe iff a canonical nonserializable
schedule exists (conditions 1, 2a, 2b); with exclusive locks only, D(S') has
a unique sink (Section 3.3).

Measured: over a deterministic corpus of random systems, the brute-force
decider (exhaustive interleavings) and the canonical decider (witness
search) return identical verdicts; every brute-force counterexample
canonicalises into a valid witness; every witness realises into a
nonserializable schedule; every exclusive-only witness has a unique sink.
"""

from conftest import banner

from repro import canonicalize, find_canonical_witness
from repro.core.safety import find_nonserializable_schedule
from repro.enumeration import corpus_initial_state, random_locked_system

INITIAL = corpus_initial_state(3)
SEEDS = range(30)
STYLES = ("early", "chaotic", "mixed", "2pl")


def _corpus():
    for style in STYLES:
        for seed in SEEDS:
            yield style, seed, random_locked_system(
                num_txns=2, num_entities=3, steps_per_txn=3, style=style, seed=seed
            )


def test_theorem1_decider_agreement_table():
    banner("Theorem 1 — decider agreement over the random-system corpus")
    rows = []
    for style in STYLES:
        safe = unsafe = disagree = 0
        for _, seed, txns in ((s, x, t) for s, x, t in _corpus() if s == style):
            schedule = find_nonserializable_schedule(txns, INITIAL, budget=400_000)
            witness = find_canonical_witness(txns, INITIAL, budget=400_000)
            if (schedule is None) != (witness is None):
                disagree += 1
            elif schedule is None:
                safe += 1
            else:
                unsafe += 1
        rows.append((style, safe, unsafe, disagree))
    print(f"{'style':<10} {'safe':>6} {'unsafe':>7} {'disagreements':>14}")
    for style, safe, unsafe, disagree in rows:
        print(f"{style:<10} {safe:>6} {unsafe:>7} {disagree:>14}")
    assert all(r[3] == 0 for r in rows), "deciders must agree (Theorem 1)"
    assert any(r[2] > 0 for r in rows), "corpus must include unsafe systems"
    assert dict((r[0], r[2]) for r in rows)["2pl"] == 0
    print("\npaper: agreement is exact (it is a theorem); measured: exact")


def test_theorem1_constructive_directions():
    banner("Theorem 1 — constructive Only-If (canonicalise) and If (realise)")
    canonicalised = realised = 0
    for style, seed, txns in _corpus():
        if style == "2pl":
            continue
        schedule = find_nonserializable_schedule(txns, INITIAL, budget=400_000)
        if schedule is None:
            continue
        witness = canonicalize(schedule)
        assert witness.problems(INITIAL) == []
        canonicalised += 1
        from repro.core.serializability import is_serializable

        realized = witness.realize(INITIAL)
        assert not is_serializable(realized)
        realised += 1
    print(f"brute-force counterexamples canonicalised: {canonicalised}")
    print(f"witnesses realised into nonserializable schedules: {realised}")
    assert canonicalised > 0 and realised == canonicalised


def test_theorem1_exclusive_unique_sink():
    banner("Section 3.3 — exclusive-only witnesses have a unique sink")
    checked = 0
    for style, seed, txns in _corpus():
        if style == "2pl":
            continue
        witness = find_canonical_witness(txns, INITIAL, budget=400_000)
        if witness is None:
            continue
        assert witness.satisfies_exclusive_variant(), witness.describe()
        checked += 1
    print(f"witnesses checked for the unique-sink property: {checked}")
    assert checked > 0


def test_canonical_decider_clears_early_seed4_system():
    """The canonical decider finds no witness on the safe ``early`` seed-4
    system."""
    txns = random_locked_system(2, 3, 3, style="early", seed=4)
    assert find_canonical_witness(txns, INITIAL, budget=400_000) is None


def test_bruteforce_decider_clears_early_seed4_system():
    """The brute-force decider agrees: no unsafe schedule on that system."""
    txns = random_locked_system(2, 3, 3, style="early", seed=4)
    assert find_nonserializable_schedule(txns, INITIAL, budget=400_000) is None
