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

from typing import Dict, List, Optional, Sequence

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
    edge_entity,
)

_LX = Operation.LOCK_EXCLUSIVE
_LS = Operation.LOCK_SHARED
_UX = Operation.UNLOCK_EXCLUSIVE
_US = Operation.UNLOCK_SHARED
_READ = Operation.READ
_WRITE = Operation.WRITE
_INSERT = Operation.INSERT
_DELETE = Operation.DELETE


def _upgrade(
    steps: List[Step],
    held: Dict[Entity, Optional[Operation]],
    entity: Entity,
    incremental: bool,
) -> None:
    """An exclusive need of an entity the script so far locks shared: its
    lock is exclusive from the start (a lock's mode is the strongest the
    script needs), and its unlock moves to the exclusive ones, after those
    needed exclusively before it."""
    del held[entity]
    held[entity] = _LX
    if incremental:
        steps[steps.index(Step(_LS, entity))] = Step(_LX, entity)


class TwoPhaseContext(PolicyContext):
    """Stateless context: strict 2PL needs no shared policy state."""

    def __init__(self, use_shared_locks: bool, conservative: bool):
        self.use_shared_locks = use_shared_locks
        self.conservative = conservative

    def begin(self, name: str, intents: Sequence[Intent]) -> PolicySession:
        """Script the locked transaction in one pass over ``intents``.

        Every intent names one entity its data steps act on (an edge
        intent's edge entity, an inserted node) and may need exclusive
        locks on more: an edge's endpoints, and an inserted node's parents
        and its edges to them.  ``held`` maps each entity the script locks
        to its lock operation in first-need order (an upgrade moves the
        entity to the end), and the unlocks are read from it: the
        exclusive ones, then the shared ones.  In the incremental
        variants ``None`` marks an inserted node's edge between its need
        and its insert.  The incremental variant (the default, the classic
        baseline whose long-transaction blocking the altruistic policy was
        designed to relieve) locks an entity just before its first data
        step, and an edge's endpoints and an inserted node's parents just
        before the intent's first data step; the conservative
        (deadlock-averse) variant takes every lock up front.  Either way
        every lock is held to commit."""
        incremental = not self.conservative
        read_lock = _LS if self.use_shared_locks else _LX
        steps: List[Step] = []
        append = steps.append
        held: Dict[Entity, Optional[Operation]] = {}
        for intent in intents:
            kind = type(intent)
            second: Optional[Operation] = None
            also: Sequence[Entity] = ()
            if kind is Access:
                entity, lock, first, second = intent.entity, _LX, _READ, _WRITE
            elif kind is Read:
                entity, lock, first = intent.entity, read_lock, _READ
            elif kind is Write:
                entity, lock, first = intent.entity, _LX, _WRITE
            elif kind is DeleteNode:
                entity, lock, first = intent.node, _LX, _DELETE
            elif kind is InsertNode:
                entity, lock, first, also = intent.node, _LX, _INSERT, intent.parents
            elif kind is InsertEdge or kind is DeleteEdge:
                u, v = intent.u, intent.v
                entity, lock, also = edge_entity(u, v), _LX, (u, v)
                first = _INSERT if kind is InsertEdge else _DELETE
            else:
                raise TypeError(f"unknown intent {intent!r}")
            have = held.get(entity)
            if have is None:
                held[entity] = lock
                if incremental:
                    append(Step(lock, entity))
            elif have is not lock and lock is _LX:
                _upgrade(steps, held, entity, incremental)
            if also:  # empty for most intents: no iterator to build
                for other in also:
                    if kind is InsertNode:
                        edge = edge_entity(other, entity)
                        if edge not in held:
                            held[edge] = None if incremental else _LX
                        elif held[edge] is _LS:
                            _upgrade(steps, held, edge, incremental)
                    have = held.get(other)
                    if have is None:
                        held[other] = _LX
                        if incremental:
                            append(Step(_LX, other))
                    elif have is _LS:
                        _upgrade(steps, held, other, incremental)
            append(Step(first, entity))
            if second is not None:
                append(Step(second, entity))
            if also and kind is InsertNode:
                for parent in also:
                    edge = edge_entity(parent, entity)
                    if held[edge] is None:
                        held[edge] = _LX
                        append(Step(_LX, edge))
                    append(Step(_INSERT, edge))
        if not incremental:
            locks = [Step(_LX, e) for e, op in held.items() if op is _LX]
            if read_lock is _LS:
                locks.extend(Step(_LS, e) for e, op in held.items() if op is _LS)
            steps[:0] = locks
        if read_lock is _LX:
            for e in held:
                append(Step(_UX, e))
        else:
            for e, op in held.items():
                if op is _LX:
                    append(Step(_UX, e))
            for e, op in held.items():
                if op is _LS:
                    append(Step(_US, e))
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
