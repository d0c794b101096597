"""Using Theorem 1 as a working tool: verify a locking policy.

Demonstrates the full verification workflow on a *broken* policy (altruistic
locking with rule AL2 removed): the dynamic verifier finds a nonserializable
run, and the canonicalisation pipeline of Theorem 1 compresses it into a
canonical witness — a serial schedule of prefixes plus one lock step — that
a human can actually read.

Run:  python examples/policy_verifier.py
"""

from repro.core import StructuralState
from repro.policies import (
    Access,
    AltruisticPolicy,
    BrokenAltruisticPolicy,
    check_altruistic_schedule,
)
from repro.sim import WorkloadItem
from repro.verify import verify_policy, verify_system
from repro.viz import render_schedule


def factory(seed):
    items = [
        WorkloadItem("LONG", [Access("a"), Access("b"), Access("c")]),
        WorkloadItem("S", [Access("c"), Access("a")]),
    ]
    return items, StructuralState.of("a", "b", "c"), {}


def main() -> None:
    print("=" * 70)
    print("Verifying altruistic locking (the real one)")
    print("=" * 70)
    report = verify_policy(
        AltruisticPolicy(),
        factory,
        seeds=range(60),
        auditors=[lambda r: check_altruistic_schedule(r.schedule)],
    )
    print(report.summary())

    print("\n" + "=" * 70)
    print("Verifying the broken variant (rule AL2 removed)")
    print("=" * 70)
    report = verify_policy(BrokenAltruisticPolicy(), factory, seeds=range(60))
    print(report.summary())
    if report.counterexample is not None:
        print("\nThe offending schedule:")
        print(render_schedule(report.counterexample))

    print("\n" + "=" * 70)
    print("Exact check of a fixed transaction system (both deciders)")
    print("=" * 70)
    if report.counterexample is not None:
        txns = list(report.counterexample.transactions.values())
        verdict = verify_system(txns, StructuralState.of("a", "b", "c"))
        print("brute-force safe:", verdict.safe_bruteforce)
        print("canonical safe:  ", verdict.safe_canonical)
        print("agree (Theorem 1):", verdict.agree)


if __name__ == "__main__":
    main()
