"""The policy verifier: empirical safety checking for locking policies.

Theorem statements in the paper are per-policy universal claims ("every legal
and proper schedule any DDAG-locked system can produce is serializable").
The verifier attacks them from two sides:

* :func:`verify_policy` — **dynamic testing**: run the policy in the
  simulator over many seeded workloads, validating every recorded schedule
  (legal, proper, rule-compliant, serializable).  A single nonserializable
  schedule refutes the policy; its canonicalisation (Theorem 1's Only-If
  construction) is attached to the report as the counterexample witness.
* :func:`verify_system` — **exact checking** for a fixed finite system of
  locked transactions: brute force and the canonical-witness search, which
  Theorem 1 says must agree.

The deliberately broken policies in :mod:`repro.policies.unsafe` keep the
verifier honest: they must fail here, with witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..core.canonical import CanonicalWitness
from ..core.safety import SafetyVerdict, decide_safety
from ..core.schedules import Schedule
from ..core.serializability import is_serializable
from ..core.states import StructuralState
from ..core.transactions import Transaction
from ..core.transforms import canonicalize
from ..exceptions import ModelError, SimulationError
from ..policies.base import LockingPolicy
from ..sim.runner import WorkloadFactory
from ..sim.scheduler import SimResult, Simulator

#: Optional per-run rule auditor: (result) -> violation strings.
RuleAuditor = Callable[[SimResult], List[str]]


@dataclass
class PolicyReport:
    """Outcome of dynamic policy verification."""

    policy: str
    runs: int = 0
    schedules_checked: int = 0
    failures: List[str] = field(default_factory=list)
    counterexample: Optional[Schedule] = None
    witness: Optional[CanonicalWitness] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "SAFE (no violation found)" if self.ok else "UNSAFE/BROKEN"
        lines = [
            f"policy {self.policy}: {status} over {self.runs} runs "
            f"({self.schedules_checked} schedules checked)"
        ]
        lines.extend(f"  - {f}" for f in self.failures[:10])
        if self.witness is not None:
            lines.append("  canonical witness:")
            lines.extend("    " + l for l in self.witness.describe().splitlines())
        return "\n".join(lines)


def verify_policy(
    policy: LockingPolicy,
    factory: WorkloadFactory,
    seeds: Sequence[int],
    auditors: Sequence[RuleAuditor] = (),
    max_ticks: int = 200_000,
    stop_at_first_failure: bool = True,
) -> PolicyReport:
    """Run the policy over seeded workloads and validate every schedule.

    Checks, per run: the recorded schedule is legal and proper (the
    simulator asserts this), every auditor passes, and the schedule is
    conflict serializable.  On a serializability failure the schedule is
    canonicalised into a Theorem-1 witness for the report.
    """
    report = PolicyReport(policy=policy.name)
    for seed in seeds:
        items, initial, context_kwargs = factory(seed)
        sim = Simulator(
            policy, seed=seed, max_ticks=max_ticks,
            context_kwargs=context_kwargs,
        )
        try:
            result = sim.run(items, initial)
        except SimulationError as exc:
            report.failures.append(f"seed {seed}: simulation failed: {exc}")
            if stop_at_first_failure:
                return report
            continue
        report.runs += 1
        report.schedules_checked += 1
        for audit in auditors:
            for violation in audit(result):
                report.failures.append(f"seed {seed}: rule violation: {violation}")
        if not is_serializable(result.schedule):
            report.failures.append(
                f"seed {seed}: NONSERIALIZABLE schedule of "
                f"{len(result.schedule)} events"
            )
            report.counterexample = result.schedule
            try:
                report.witness = canonicalize(result.schedule)
            except ModelError:
                report.witness = None
            if stop_at_first_failure:
                return report
        if report.failures and stop_at_first_failure:
            return report
    return report


def verify_system(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = 200_000,
) -> SafetyVerdict:
    """Exact safety decision for a finite locked transaction system, via both
    Theorem-1 routes (see :func:`repro.core.safety.decide_safety`)."""
    return decide_safety(transactions, initial, budget)
