"""Schedules: interleavings of transactions (Section 2 of the paper).

A **schedule** of a transaction system is an ordering of the steps of some
transactions that preserves each transaction's internal order.  This module
represents schedules as sequences of :class:`Event` objects — a step tagged
with the transaction it belongs to and its position within that transaction —
so that steps keep their identity under the permutations of Lemmas 1 and 2.

Key predicates, straight from the paper:

* **legal** — no prefix exists in which two distinct transactions hold
  conflicting locks on the same entity;
* **proper for G** — every step is defined in the structural state in which
  it executes, starting from ``G`` (READ/WRITE/DELETE need the entity
  present, INSERT needs it absent);
* **complete** — every participating transaction has contributed all of its
  steps; otherwise the schedule is *partial* (a prefix of a schedule).

Schedules are immutable; all mutators return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import (
    IllegalScheduleError,
    ImproperScheduleError,
    MalformedScheduleError,
)
from .operations import LockMode, Operation
from .states import StructuralState
from .steps import Entity, Step
from .transactions import Transaction, transactions_by_name


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """One scheduled step: step ``index`` of transaction ``txn``.

    Two events are equal iff they are the *same* step of the *same*
    transaction — this identity is what the ``move``/transpose machinery
    permutes.  Like :class:`~repro.core.steps.Step`, an event is a slotted
    frozen record hashed as its field tuple ``(txn, index, step)``.
    """

    txn: str
    index: int
    step: Step

    def __init__(self, txn: str, index: int, step: Step) -> None:
        _set_txn(self, txn)
        _set_index(self, index)
        _set_step(self, step)

    def __str__(self) -> str:
        return f"{self.txn}:{self.step}"

    def conflicts_with(self, other: "Event") -> bool:
        """Events conflict iff they belong to *different* transactions and
        their steps conflict (share an entity, ops not both in {R, LS, US})."""
        return self.txn != other.txn and self.step.conflicts_with(other.step)


_set_txn = Event.__dict__["txn"].__set__
_set_index = Event.__dict__["index"].__set__
_set_step = Event.__dict__["step"].__set__


class Schedule:
    """An immutable (possibly partial) schedule over a transaction system.

    ``transactions`` maps names to the *full* transactions of the system;
    the event list may cover any prefix of each.  Construction validates that
    per-transaction events appear in order 0, 1, 2, … without gaps.
    """

    __slots__ = ("_events", "_transactions", "_progress")

    def __init__(
        self,
        transactions: Iterable[Transaction],
        events: Iterable[Event] = (),
    ):
        self._transactions: Dict[str, Transaction] = transactions_by_name(
            list(transactions)
        )
        evts = tuple(events)
        progress: Dict[str, int] = {name: 0 for name in self._transactions}
        for e in evts:
            txn = self._transactions.get(e.txn)
            if txn is None:
                raise MalformedScheduleError(
                    f"event {e} references unknown transaction {e.txn!r}"
                )
            expected = progress[e.txn]
            if e.index != expected:
                raise MalformedScheduleError(
                    f"event {e} out of order: expected step {expected} of {e.txn}"
                )
            steps = txn.steps
            # A logged step is usually the transaction's own object, which
            # identity settles before the field-by-field compare.
            if e.index >= len(steps) or (
                steps[e.index] is not e.step and steps[e.index] != e.step
            ):
                raise MalformedScheduleError(
                    f"event {e} does not match step {e.index} of {e.txn}"
                )
            progress[e.txn] = expected + 1
        self._events = evts
        self._progress = progress

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_order(
        cls, transactions: Sequence[Transaction], order: Sequence[str]
    ) -> "Schedule":
        """Build a schedule by naming, for each successive event, the
        transaction whose next step executes.

        This is how the paper's two-row figures translate to code::

            Schedule.from_order([t1, t2], ["T1", "T2", "T1", "T2", ...])
        """
        by_name = transactions_by_name(list(transactions))
        cursor = {name: 0 for name in by_name}
        events: List[Event] = []
        for name in order:
            if name not in by_name:
                raise MalformedScheduleError(f"unknown transaction {name!r} in order")
            idx = cursor[name]
            steps = by_name[name].steps
            if idx >= len(steps):
                raise MalformedScheduleError(
                    f"order schedules more steps of {name} than it has ({len(steps)})"
                )
            events.append(Event(name, idx, steps[idx]))
            cursor[name] = idx + 1
        return cls(transactions, events)

    @classmethod
    def serial(
        cls,
        transactions: Sequence[Transaction],
        order: Optional[Sequence[str]] = None,
    ) -> "Schedule":
        """The serial schedule executing the (complete) transactions one
        after another, in ``order`` (default: given sequence order)."""
        by_name = transactions_by_name(list(transactions))
        names = list(order) if order is not None else [t.name for t in transactions]
        events: List[Event] = []
        for name in names:
            txn = by_name[name]
            events.extend(Event(name, i, s) for i, s in enumerate(txn.steps))
        return cls(transactions, events)

    @classmethod
    def serial_prefixes(
        cls,
        transactions: Sequence[Transaction],
        prefix_lengths: Mapping[str, int],
        order: Sequence[str],
    ) -> "Schedule":
        """The partial schedule ``T'_1 T'_2 … T'_k`` executing a *prefix* of
        each transaction serially — the shape of the canonical schedules of
        Theorem 1."""
        by_name = transactions_by_name(list(transactions))
        events: List[Event] = []
        for name in order:
            txn = by_name[name]
            n = prefix_lengths.get(name, len(txn.steps))
            if not 0 <= n <= len(txn.steps):
                raise MalformedScheduleError(
                    f"prefix length {n} out of range for {name}"
                )
            events.extend(Event(name, i, txn.steps[i]) for i in range(n))
        return cls(transactions, events)

    # ------------------------------------------------------------------
    # Sequence protocol and basic accessors
    # ------------------------------------------------------------------

    @property
    def events(self) -> Tuple[Event, ...]:
        return self._events

    @property
    def transactions(self) -> Dict[str, Transaction]:
        return dict(self._transactions)

    def transaction(self, name: str) -> Transaction:
        return self._transactions[name]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, idx: int) -> Event:
        return self._events[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self._events == other._events
            and self._transactions == other._transactions
        )

    def __hash__(self) -> int:
        return hash((self._events, tuple(sorted(self._transactions.items(),
                                                key=lambda kv: kv[0]))))

    def __str__(self) -> str:
        return " ".join(str(e) for e in self._events)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    def progress(self) -> Dict[str, int]:
        """How many steps of each transaction have executed."""
        return dict(self._progress)

    @property
    def is_complete(self) -> bool:
        """True iff every participating transaction has executed fully."""
        return all(
            self._progress[name] == len(txn.steps)
            for name, txn in self._transactions.items()
        )

    def is_serial(self) -> bool:
        """True iff the events form blocks: once a transaction's events stop,
        they never resume.  Partial serial schedules (serial executions of
        prefixes) also count."""
        seen_done: Set[str] = set()
        current: Optional[str] = None
        for e in self._events:
            if e.txn != current:
                if e.txn in seen_done:
                    return False
                if current is not None:
                    seen_done.add(current)
                current = e.txn
        return True

    def active_transactions(self) -> Tuple[str, ...]:
        """Names of transactions that have executed at least one step."""
        return tuple(n for n, k in self._progress.items() if k > 0)

    def prefix(self, length: int) -> "Schedule":
        """The schedule consisting of the first ``length`` events."""
        if not 0 <= length <= len(self._events):
            raise ValueError(f"prefix length {length} out of range")
        return Schedule(self._transactions.values(), self._events[:length])

    def extended(self, event: Event) -> "Schedule":
        """This schedule with one more event appended."""
        return Schedule(self._transactions.values(), self._events + (event,))

    def extended_by_steps(self, txn_name: str, count: int = 1) -> "Schedule":
        """Append the next ``count`` steps of ``txn_name``."""
        sched = self
        for _ in range(count):
            idx = sched._progress[txn_name]
            step = sched._transactions[txn_name].steps[idx]
            sched = sched.extended(Event(txn_name, idx, step))
        return sched

    def next_event_of(self, txn_name: str) -> Optional[Event]:
        """The next unexecuted step of ``txn_name`` as an event, or None."""
        idx = self._progress[txn_name]
        txn = self._transactions[txn_name]
        if idx >= len(txn.steps):
            return None
        return Event(txn_name, idx, txn.steps[idx])

    def projection(self, txn_name: str) -> Transaction:
        """The executed prefix of ``txn_name`` as a transaction (the paper's
        ``T'_i``)."""
        return self._transactions[txn_name].prefix(self._progress[txn_name])

    def with_events(self, events: Sequence[Event]) -> "Schedule":
        """A schedule over the same transaction system with a different event
        sequence (used by the transform machinery)."""
        return Schedule(self._transactions.values(), events)

    # ------------------------------------------------------------------
    # Legality
    # ------------------------------------------------------------------

    def legality_violation(self) -> Optional[str]:
        """Describe the first legality violation, or None if legal.

        A schedule is legal iff there is no prefix in which one transaction
        holds an exclusive lock on an entity while another holds a shared or
        exclusive lock on it.  A violation can only first arise at a LOCK
        step, so it suffices to check conflicts when locks are acquired.
        """
        holders: Dict[Entity, Dict[str, LockMode]] = {}
        for pos, e in enumerate(self._events):
            op = e.step.op
            mode = op.lock_mode
            if mode is None:
                continue
            if op.is_lock:
                current = holders.setdefault(e.step.entity, {})
                for other, other_mode in current.items():
                    if other != e.txn and mode.conflicts_with(other_mode):
                        return (
                            f"event {pos} {e}: {e.txn} acquires {mode} lock on "
                            f"{e.step.entity!r} while {other} holds {other_mode}"
                        )
                prev = current.get(e.txn)
                if prev is None or mode is LockMode.EXCLUSIVE:
                    current[e.txn] = mode
            else:
                current = holders.get(e.step.entity, {})
                if current.get(e.txn) is mode:
                    del current[e.txn]
        return None

    def is_legal(self) -> bool:
        """True iff no two transactions ever hold conflicting locks."""
        return self.legality_violation() is None

    def assert_legal(self) -> None:
        violation = self.legality_violation()
        if violation is not None:
            raise IllegalScheduleError(violation)

    def held_locks(self) -> Dict[str, Dict[Entity, LockMode]]:
        """Locks held by each transaction at the end of the schedule."""
        return {
            name: self.projection(name).held_locks()
            for name in self._transactions
        }

    def lock_holders(self) -> Dict[Entity, Dict[str, LockMode]]:
        """Current holders per entity at the end of the schedule."""
        out: Dict[Entity, Dict[str, LockMode]] = {}
        for name, locks in self.held_locks().items():
            for entity, mode in locks.items():
                out.setdefault(entity, {})[name] = mode
        return out

    # ------------------------------------------------------------------
    # Properness
    # ------------------------------------------------------------------

    def properness_violation(
        self, initial: StructuralState = StructuralState.empty()
    ) -> Optional[str]:
        """Describe the first improper step, or None if the schedule is
        proper for ``initial``."""
        # Folding StructuralState.apply would copy the whole entity set at
        # every INSERT / DELETE -- quadratic on a database that keeps
        # growing -- so this folds over one mutable presence set.
        present = set(initial.entities)
        for pos, e in enumerate(self._events):
            op = e.step.op
            if op.is_lock or op.is_unlock:
                continue  # defined in every state
            entity = e.step.entity
            inserting = op is Operation.INSERT  # R/W/D need it present instead
            if (entity in present) == inserting:
                state = StructuralState(frozenset(present))
                detail = "entity present" if inserting else "entity absent"
                return f"event {pos} {e}: step undefined in state {state} ({detail})"
            if inserting:
                present.add(entity)
            elif op is Operation.DELETE:
                present.remove(entity)
        return None

    def is_proper(self, initial: StructuralState = StructuralState.empty()) -> bool:
        """True iff every step is defined in the structural state in which it
        executes, starting from ``initial``."""
        return self.properness_violation(initial) is None

    def assert_proper(self, initial: StructuralState = StructuralState.empty()) -> None:
        violation = self.properness_violation(initial)
        if violation is not None:
            raise ImproperScheduleError(violation)

    def final_state(
        self, initial: StructuralState = StructuralState.empty()
    ) -> StructuralState:
        """The structural state after executing the whole schedule (raises if
        the schedule is improper)."""
        state = initial
        for e in self._events:
            state = state.apply(e.step)
        return state

    def structural_trace(
        self, initial: StructuralState = StructuralState.empty()
    ) -> List[StructuralState]:
        """States ``[G_0, …, G_n]`` before/after each event (raises if
        improper)."""
        states = [initial]
        for e in self._events:
            states.append(states[-1].apply(e.step))
        return states

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def format_rows(self, order: Optional[Sequence[str]] = None) -> str:
        """Render the schedule in the paper's two-row figure style: one row
        per transaction, one column per event, time flowing left to right."""
        names = list(order) if order is not None else sorted(self._transactions)
        cells = {name: [] for name in names}
        width = []
        for e in self._events:
            text = str(e.step)
            width.append(max(len(text), 1))
            for name in names:
                cells[name].append(text if name == e.txn else "")
        lines = []
        label_w = max((len(n) for n in names), default=0) + 1
        for name in names:
            row = [f"{name}:".ljust(label_w)]
            for w, cell in zip(width, cells[name]):
                row.append(cell.ljust(w))
            lines.append(" ".join(row).rstrip())
        return "\n".join(lines)


def validate_schedule(
    schedule: Schedule,
    initial: StructuralState = StructuralState.empty(),
    require_complete: bool = False,
) -> None:
    """One-stop validation: legality + properness (+ completeness).

    Raises the appropriate :mod:`repro.exceptions` error on failure; returns
    None on success.
    """
    schedule.assert_legal()
    schedule.assert_proper(initial)
    if require_complete and not schedule.is_complete:
        raise MalformedScheduleError("schedule is not complete")
