"""Two-phase locking baselines.

Strict two-phase locking is the classic safe policy — all locks precede all
unlocks — and the natural baseline against which the paper's policies trade
concurrency for structure.  Condition 1 of Theorem 1 shows immediately that
any 2PL system is safe; the simulator uses this policy both as a correctness
control and as the performance baseline the altruistic/DDAG benchmarks
compare against (long transactions under 2PL hold everything to the end,
which is precisely the problem altruistic locking attacks).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ..core.operations import Operation
from ..core.steps import Entity, Step
from .base import (
    Access,
    DeleteEdge,
    DeleteNode,
    InsertEdge,
    InsertNode,
    Intent,
    LockingPolicy,
    PolicyContext,
    PolicySession,
    Read,
    ScriptedSession,
    Write,
    access_steps,
    edge_entity,
)


def _classify(intents: Sequence[Intent], use_shared: bool) -> Tuple[List[Entity], List[Entity]]:
    """Split touched entities into (exclusive, shared) lock lists, in first
    use order (membership is tested on a set beside each list)."""
    exclusive: List[Entity] = []
    shared: List[Entity] = []
    exclusive_set: Set[Entity] = set()
    shared_set: Set[Entity] = set()

    def need_x(e: Entity) -> None:
        if e in shared_set:
            shared_set.discard(e)
            shared.remove(e)
        if e not in exclusive_set:
            exclusive_set.add(e)
            exclusive.append(e)

    def need_s(e: Entity) -> None:
        if e not in shared_set and e not in exclusive_set:
            shared_set.add(e)
            shared.append(e)

    for intent in intents:
        if isinstance(intent, Read):
            (need_s if use_shared else need_x)(intent.entity)
        elif isinstance(intent, (Access, Write)):
            need_x(intent.entity)
        elif isinstance(intent, InsertNode):
            need_x(intent.node)
            for p in intent.parents:
                need_x(edge_entity(p, intent.node))
                need_x(p)
        elif isinstance(intent, DeleteNode):
            need_x(intent.node)
        elif isinstance(intent, (InsertEdge, DeleteEdge)):
            need_x(edge_entity(intent.u, intent.v))
            need_x(intent.u)
            need_x(intent.v)
        else:
            raise TypeError(f"unknown intent {intent!r}")
    return exclusive, shared


def _data_steps(intent: Intent) -> Tuple[Step, ...]:
    """The data steps realising one intent."""
    if isinstance(intent, Access):
        return access_steps(intent.entity)
    if isinstance(intent, Read):
        return (Step(Operation.READ, intent.entity),)
    if isinstance(intent, Write):
        return (Step(Operation.WRITE, intent.entity),)
    if isinstance(intent, InsertNode):
        steps = [Step(Operation.INSERT, intent.node)]
        steps.extend(
            Step(Operation.INSERT, edge_entity(p, intent.node)) for p in intent.parents
        )
        return tuple(steps)
    if isinstance(intent, DeleteNode):
        return (Step(Operation.DELETE, intent.node),)
    if isinstance(intent, InsertEdge):
        return (Step(Operation.INSERT, edge_entity(intent.u, intent.v)),)
    if isinstance(intent, DeleteEdge):
        return (Step(Operation.DELETE, edge_entity(intent.u, intent.v)),)
    raise TypeError(f"unknown intent {intent!r}")


class TwoPhaseContext(PolicyContext):
    """Stateless context: strict 2PL needs no shared policy state."""

    def __init__(self, use_shared_locks: bool, conservative: bool):
        self.use_shared_locks = use_shared_locks
        self.conservative = conservative

    def begin(self, name: str, intents: Sequence[Intent]) -> PolicySession:
        exclusive, shared = _classify(intents, self.use_shared_locks)
        steps: List[Step] = []
        if self.conservative:
            # Acquire everything up front (deadlock-averse variant).
            steps.extend(Step(Operation.LOCK_EXCLUSIVE, e) for e in exclusive)
            steps.extend(Step(Operation.LOCK_SHARED, e) for e in shared)
            for intent in intents:
                steps.extend(_data_steps(intent))
        else:
            # Incremental strict 2PL: lock at first use, hold to commit —
            # the classic baseline whose long-transaction blocking the
            # altruistic policy was designed to relieve.
            shared_set = set(shared)
            locked: Set[Entity] = set()
            for intent in intents:
                for data in _data_steps(intent):
                    if data.entity not in locked:
                        mode = (
                            Operation.LOCK_SHARED
                            if data.entity in shared_set
                            else Operation.LOCK_EXCLUSIVE
                        )
                        steps.append(Step(mode, data.entity))
                        locked.add(data.entity)
                    steps.append(data)
        steps.extend(Step(Operation.UNLOCK_EXCLUSIVE, e) for e in exclusive)
        steps.extend(Step(Operation.UNLOCK_SHARED, e) for e in shared)
        return ScriptedSession(name, steps)


class TwoPhasePolicy(LockingPolicy):
    """Strict two-phase locking.

    ``conservative`` pre-acquires every lock before the first data step
    (deadlock-free against other conservative transactions); the default is
    the classic incremental variant (lock at first use, hold until commit).
    ``use_shared_locks`` grants READ intents shared locks; the default
    matches the paper's exclusive-only setting so the baseline is comparable
    with DDAG/altruistic/DTR runs.
    """

    def __init__(self, use_shared_locks: bool = False, conservative: bool = False):
        self.use_shared_locks = use_shared_locks
        self.conservative = conservative
        self.name = "2PL" + ("-S" if use_shared_locks else "") + (
            "-cons" if conservative else ""
        )

    def create_context(self, **kwargs) -> TwoPhaseContext:
        return TwoPhaseContext(self.use_shared_locks, self.conservative)
