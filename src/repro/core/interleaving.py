"""One cursor over the legal and proper interleavings of a transaction system.

Every search that checks Theorem 1 walks the same tree: a node is a legal,
proper partial schedule, and its children are the next steps that keep it
legal and proper.  :class:`Interleaving` owns that stepping rule — which next
step is admissible, how executing it changes the lock holders and the
structural state, and how to undo it — for the brute-force unsafety search
(:mod:`repro.core.safety`), the completion search
(:mod:`repro.core.completion`) and the schedule enumerator
(:mod:`repro.enumeration.interleavings`).

The rule restates, one event at a time, the reference checks
:meth:`Schedule.legality_violation` and :meth:`Schedule.properness_violation`;
the tests hold the walks to those checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .operations import LockMode
from .schedules import Event, Schedule
from .states import StructuralState
from .steps import Entity
from .transactions import Transaction


class Interleaving:
    """A legal, proper partial schedule that grows and shrinks by one event.

    It holds each transaction's progress, the lock holders per entity (a
    transaction holding both modes on an entity counts as exclusive, as in
    :meth:`Transaction.held_locks`), the structural state and the event
    stack.  :meth:`push` executes an event that :meth:`next_event` offered;
    :meth:`pop` undoes the last one.
    """

    def __init__(self, transactions: Iterable[Transaction], initial: StructuralState):
        self.transactions: Dict[str, Transaction] = {t.name: t for t in transactions}
        self.names: List[str] = sorted(self.transactions)
        self.total = sum(len(t.steps) for t in self.transactions.values())
        self.progress: Dict[str, int] = {name: 0 for name in self.names}
        self.holders: Dict[Entity, Dict[str, LockMode]] = {}
        self.state = initial
        self.events: List[Event] = []
        self._undo: List[Tuple[Optional[LockMode], StructuralState]] = []
        self._steps: Dict[str, Tuple[Event, ...]] = {
            name: tuple(Event(name, i, s) for i, s in enumerate(t.steps))
            for name, t in self.transactions.items()
        }

    def next_event(self, txn: str) -> Optional[Event]:
        """The next event of ``txn`` if executing it now keeps the schedule
        legal and proper; ``None`` otherwise, or when ``txn`` is finished."""
        steps = self._steps[txn]
        idx = self.progress[txn]
        if idx == len(steps):
            return None
        event = steps[idx]
        step = event.step
        op = step.op
        if op.requires_present:
            if step.entity not in self.state.entities:
                return None
        elif op.requires_absent:
            if step.entity in self.state.entities:
                return None
        elif op.is_lock:
            mode = op.lock_mode
            for other, held in self.holders.get(step.entity, {}).items():
                if other != txn and mode.conflicts_with(held):
                    return None
        return event

    def admissible(self) -> List[Event]:
        """Every transaction's admissible next event, in sorted-name order."""
        out = []
        for name in self.names:
            event = self.next_event(name)
            if event is not None:
                out.append(event)
        return out

    def push(self, event: Event) -> None:
        """Execute ``event``, which :meth:`next_event` must have offered."""
        step = event.step
        op = step.op
        mode = op.lock_mode
        prior = None
        if mode is not None:
            held = self.holders.setdefault(step.entity, {})
            prior = held.get(event.txn)
            if op.is_lock:
                if prior is not LockMode.EXCLUSIVE:
                    held[event.txn] = mode
            elif prior is mode:
                del held[event.txn]
        self._undo.append((prior, self.state))
        if op.is_structural:
            self.state = self.state.apply(step)
        self.progress[event.txn] += 1
        self.events.append(event)

    def pop(self) -> None:
        """Undo the last executed event."""
        event = self.events.pop()
        self.progress[event.txn] -= 1
        prior, self.state = self._undo.pop()
        if event.step.op.lock_mode is not None:
            held = self.holders[event.step.entity]
            if prior is None:
                held.pop(event.txn, None)
            else:
                held[event.txn] = prior

    def schedule(self) -> Schedule:
        """The executed events as a schedule of the whole system."""
        return Schedule(self.transactions.values(), tuple(self.events))
