"""Deliberately unsafe locking policies — negative controls.

Every safety claim in the reproduction is paired with a control that *must*
fail: the verifier has to flag these policies as unsafe and produce canonical
witnesses for them, otherwise it is vacuous.  Three controls:

* :class:`FreeForAllPolicy` — lock each entity only around its own step
  (non-two-phase, no structure).  The textbook lost-update anomaly.
* :class:`BrokenDdagPolicy` — DDAG with rule **L5 removed**: transactions
  traverse the graph but may lock any node whenever they like, killing the
  dominator argument of Lemma 3.
* :class:`BrokenAltruisticPolicy` — altruistic locking with rule **AL2
  removed**: transactions may pick up donated items while holding arbitrary
  other items, so the wake-containment induction of Theorem 3 fails.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.operations import Operation
from ..core.steps import Step
from ..exceptions import PolicyViolation
from .altruistic import AltruisticContext, AltruisticPolicy, AltruisticSession
from .base import (
    Access,
    AdmissionResult,
    Intent,
    LockingPolicy,
    PolicyContext,
    PolicySession,
    PROCEED,
    Read,
    ScriptedSession,
    Write,
    access_steps,
)
from .ddag import DdagContext, DdagPolicy, DdagSession


class FreeForAllContext(PolicyContext):
    """No shared state: each session simply wraps each op in a lock pair."""

    def begin(self, name: str, intents: Sequence[Intent]) -> PolicySession:
        steps: List[Step] = []
        for intent in intents:
            if isinstance(intent, Access):
                steps.append(Step(Operation.LOCK_EXCLUSIVE, intent.entity))
                steps.extend(access_steps(intent.entity))
                steps.append(Step(Operation.UNLOCK_EXCLUSIVE, intent.entity))
            elif isinstance(intent, Read):
                steps.append(Step(Operation.LOCK_EXCLUSIVE, intent.entity))
                steps.append(Step(Operation.READ, intent.entity))
                steps.append(Step(Operation.UNLOCK_EXCLUSIVE, intent.entity))
            elif isinstance(intent, Write):
                steps.append(Step(Operation.LOCK_EXCLUSIVE, intent.entity))
                steps.append(Step(Operation.WRITE, intent.entity))
                steps.append(Step(Operation.UNLOCK_EXCLUSIVE, intent.entity))
            else:
                raise PolicyViolation(
                    "FFA", f"free-for-all supports access/read/write, not {intent!r}"
                )
        return ScriptedSession(name, steps)


class FreeForAllPolicy(LockingPolicy):
    """Short locks around individual steps: well-formed and legal, yet
    trivially unsafe (any read-modify-write race interleaves)."""

    name = "FreeForAll"

    def create_context(self, **kwargs) -> FreeForAllContext:
        return FreeForAllContext()


class _LawlessDdagSession(DdagSession):
    """DDAG session with the L5 admission check disabled."""

    def admission(self) -> AdmissionResult:
        return PROCEED


class BrokenDdagContext(DdagContext):
    def begin(self, name: str, intents: Sequence[Intent]) -> DdagSession:
        return _LawlessDdagSession(
            name, self, intents, auto_release=self.auto_release
        )


class BrokenDdagPolicy(DdagPolicy):
    """DDAG without rule L5 — the structural rule whose removal breaks
    Theorem 2's dominator argument.  Sessions skip the predecessor check
    entirely (their *plans* also ignore L5 ordering when scripted manually).
    """

    name = "DDAG-noL5"

    def create_context(self, dag=None, **kwargs) -> BrokenDdagContext:
        if dag is None:
            raise ValueError("BrokenDdagPolicy.create_context requires dag=...")
        return BrokenDdagContext(dag, auto_release=self.auto_release)


class _LawlessAltruisticSession(AltruisticSession):
    """Altruistic session with the AL2 wake check disabled."""

    def admission(self) -> AdmissionResult:
        return PROCEED


class BrokenAltruisticContext(AltruisticContext):
    def begin(self, name: str, intents: Sequence[Intent]) -> AltruisticSession:
        session = _LawlessAltruisticSession(
            name, self, intents, donate_immediately=self.donate_immediately
        )
        self.sessions[name] = session
        return session


class BrokenAltruisticPolicy(AltruisticPolicy):
    """Altruistic locking without rule AL2: donated items may be mixed with
    arbitrary other locks, so a transaction can slip 'between the phases' of
    a donor and orderings can cycle."""

    name = "Altruistic-noAL2"

    def create_context(self, **kwargs) -> BrokenAltruisticContext:
        return BrokenAltruisticContext(donate_immediately=self.donate_immediately)
