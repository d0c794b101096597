"""Transactions and locked transactions (Section 2 of the paper).

A **transaction** is a finite sequence of steps over ``O × U`` (data steps
only).  A **locked transaction** additionally contains lock and unlock steps,
i.e. a sequence over ``OL × U``.

A locked transaction is **well formed** when

* every INSERT/DELETE/WRITE on an entity ``A`` happens while the transaction
  holds an *exclusive* lock on ``A`` in the prefix up to that point, and
* every READ on ``A`` happens while it holds a *shared or exclusive* lock.

The paper additionally assumes throughout that a transaction **locks an
entity at most once** (a policy allowing double locking is trivially unsafe
[Yan82]); :meth:`Transaction.locks_entity_at_most_once` checks that
assumption, and :func:`assert_well_formed` can enforce both at once.

The class also exposes the lock-theoretic vocabulary the proofs use: held
locks after a prefix, unlock positions, the *locked point* (the instant the
transaction acquires its last lock — central to altruistic locking), and
two-phase-ness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import MalformedTransactionError
from .operations import LockMode, Operation
from .steps import Entity, Step, parse_steps


@dataclass(frozen=True, slots=True, init=False)
class Transaction:
    """An immutable, named sequence of steps.

    ``name`` identifies the transaction inside schedules (the paper's
    ``T_1, T_2, …``).  The same class represents both plain and locked
    transactions; :meth:`is_locked` distinguishes them.  ``steps`` may be
    given as any iterable and is stored as a tuple.
    """

    name: str
    steps: Tuple[Step, ...]

    def __init__(self, name: str, steps: Iterable[Step]) -> None:
        _set_name(self, name)
        _set_steps(self, tuple(steps))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, name: str, text: str) -> "Transaction":
        """Build a transaction from the paper's notation::

            Transaction.from_text("T1", "(I a) (I b) (W c) (I d)")
        """
        return cls(name, tuple(parse_steps(text)))

    @classmethod
    def of(cls, name: str, steps: Iterable[Step]) -> "Transaction":
        return cls(name, tuple(steps))

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, idx: int) -> Step:
        return self.steps[idx]

    def __str__(self) -> str:
        body = " ".join(str(s) for s in self.steps)
        return f"{self.name}: {body}"

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    def prefix(self, length: int) -> "Transaction":
        """The prefix consisting of the first ``length`` steps, named
        ``{name}'`` in keeping with the paper's ``T'_i`` notation when proper,
        or keeping the name when the prefix is the whole transaction."""
        if not 0 <= length <= len(self.steps):
            raise ValueError(
                f"prefix length {length} out of range for {self.name} "
                f"with {len(self.steps)} steps"
            )
        if length == len(self.steps):
            return self
        return Transaction(self.name, self.steps[:length])

    def is_prefix_of(self, other: "Transaction") -> bool:
        """True iff this transaction's steps form a prefix of ``other``'s."""
        return self.steps == other.steps[: len(self.steps)]

    def is_subsequence_of(self, other: "Transaction") -> bool:
        """True iff this transaction's steps embed order-preservingly into
        ``other``'s steps.  A locking policy ``P(T, T̄)`` requires ``T`` to be
        a subsequence of the well-formed locked transaction ``T̄``."""
        it = iter(other.steps)
        return all(any(mine == theirs for theirs in it) for mine in self.steps)

    @property
    def data_steps(self) -> Tuple[Step, ...]:
        """The subsequence of READ/WRITE/INSERT/DELETE steps."""
        return tuple(s for s in self.steps if s.is_data)

    def unlocked_projection(self, name: Optional[str] = None) -> "Transaction":
        """The plain transaction obtained by erasing lock/unlock steps."""
        return Transaction(name or self.name, self.data_steps)

    @property
    def entities(self) -> frozenset:
        """All entities mentioned by any step."""
        return frozenset(s.entity for s in self.steps)

    @property
    def is_locked(self) -> bool:
        """True if the transaction contains at least one lock/unlock step."""
        return any(not s.is_data for s in self.steps)

    # ------------------------------------------------------------------
    # Lock accounting
    # ------------------------------------------------------------------

    def held_locks(self, upto: Optional[int] = None) -> Dict[Entity, LockMode]:
        """Locks held after executing the prefix of length ``upto``
        (default: the whole transaction).

        A transaction *holds* an exclusive (shared) lock on ``A`` in a prefix
        if the prefix contains an ``(LX A)`` (``(LS A)``) step not followed by
        the matching unlock (§2).  If a transaction both shared- and
        exclusive-locks the same entity (possible only when the lock-once
        assumption is waived) the exclusive mode wins.
        """
        end = len(self.steps) if upto is None else upto
        held: Dict[Entity, LockMode] = {}
        for s in self.steps[:end]:
            mode = s.lock_mode
            if s.is_lock and mode is not None:
                if s.entity in held and held[s.entity] is LockMode.EXCLUSIVE:
                    continue
                held[s.entity] = mode
            elif s.is_unlock and mode is not None:
                if held.get(s.entity) is mode:
                    del held[s.entity]
        return held

    def lock_positions(self, entity: Entity) -> List[int]:
        """Indices of all LS/LX steps on ``entity``."""
        return [i for i, s in enumerate(self.steps) if s.is_lock and s.entity == entity]

    def unlock_positions(self, entity: Entity) -> List[int]:
        """Indices of all US/UX steps on ``entity``."""
        return [i for i, s in enumerate(self.steps) if s.is_unlock and s.entity == entity]

    def locked_entities(self) -> frozenset:
        """Entities on which the transaction takes any lock."""
        return frozenset(s.entity for s in self.steps if s.is_lock)

    def lock_mode_of(self, entity: Entity) -> Optional[LockMode]:
        """The mode of the first lock taken on ``entity``, or None."""
        for s in self.steps:
            if s.is_lock and s.entity == entity:
                return s.lock_mode
        return None

    def first_lock_index(self) -> Optional[int]:
        """Index of the first lock step, or None if the transaction never
        locks.  The first-locked entity is the ``B_i`` of the DDAG/DTR
        proofs."""
        for i, s in enumerate(self.steps):
            if s.is_lock:
                return i
        return None

    def first_locked_entity(self) -> Optional[Entity]:
        """The first entity locked (``B`` in Lemma 3), or None."""
        i = self.first_lock_index()
        return None if i is None else self.steps[i].entity

    def locked_point(self) -> Optional[int]:
        """Index of the transaction's last LOCK step — its *locked point*
        (Section 5).  ``None`` when the transaction takes no locks."""
        last = None
        for i, s in enumerate(self.steps):
            if s.is_lock:
                last = i
        return last

    def locks_entity_at_most_once(self) -> bool:
        """Check the paper's standing lock-once assumption."""
        seen = set()
        for s in self.steps:
            if s.is_lock:
                if s.entity in seen:
                    return False
                seen.add(s.entity)
        return True

    def is_two_phase(self) -> bool:
        """True iff no LOCK step follows an UNLOCK step (classic 2PL).

        Condition 1 of Theorem 1 requires the distinguished transaction
        ``T_c`` to violate exactly this; a system of two-phase transactions
        is immediately safe.
        """
        unlocked = False
        for s in self.steps:
            if s.is_unlock:
                unlocked = True
            elif s.is_lock and unlocked:
                return False
        return True

    # ------------------------------------------------------------------
    # Well-formedness
    # ------------------------------------------------------------------

    def well_formedness_violation(self) -> Optional[str]:
        """Describe the first well-formedness violation, or None if well
        formed.

        Checks, per Section 2: I/D/W under an exclusive lock; R under a
        shared or exclusive lock.  Additionally flags unlocks of locks not
        held (in the mode being released), which the model implies (an
        unlock step that releases nothing could never make the transaction
        "hold" or "not hold" coherently).
        """
        held: Dict[Entity, LockMode] = {}
        shared_also: set = set()
        for i, s in enumerate(self.steps):
            mode = s.lock_mode
            if s.is_lock and mode is not None:
                prev = held.get(s.entity)
                if prev is mode:
                    return f"step {i} {s}: already holds {mode} lock on {s.entity!r}"
                if prev is not None:
                    # Holding both modes simultaneously (upgrade); track both.
                    shared_also.add(s.entity)
                    held[s.entity] = LockMode.EXCLUSIVE
                else:
                    held[s.entity] = mode
            elif s.is_unlock and mode is not None:
                prev = held.get(s.entity)
                if prev is None:
                    return f"step {i} {s}: unlocks {s.entity!r} which is not locked"
                if prev is not mode and not (
                    s.entity in shared_also and mode is LockMode.SHARED
                ):
                    return (
                        f"step {i} {s}: unlocks {s.entity!r} in mode {mode} "
                        f"but holds it in mode {prev}"
                    )
                if s.entity in shared_also and mode is LockMode.SHARED:
                    shared_also.discard(s.entity)
                elif s.entity in shared_also and mode is LockMode.EXCLUSIVE:
                    shared_also.discard(s.entity)
                    held[s.entity] = LockMode.SHARED
                else:
                    del held[s.entity]
            elif s.op in (Operation.INSERT, Operation.DELETE, Operation.WRITE):
                if held.get(s.entity) is not LockMode.EXCLUSIVE:
                    return (
                        f"step {i} {s}: {s.op.name} on {s.entity!r} without an "
                        f"exclusive lock"
                    )
            elif s.op is Operation.READ:
                if s.entity not in held:
                    return f"step {i} {s}: READ of {s.entity!r} without any lock"
        return None

    def is_well_formed(self) -> bool:
        """True iff the locked transaction satisfies the §2 well-formedness
        rules.  A plain (lock-free) transaction with data steps is *not* well
        formed unless it is empty."""
        return self.well_formedness_violation() is None


_set_name = Transaction.__dict__["name"].__set__
_set_steps = Transaction.__dict__["steps"].__set__


def assert_well_formed(txn: Transaction, lock_once: bool = True) -> None:
    """Raise :class:`MalformedTransactionError` unless ``txn`` is well formed
    (and, when ``lock_once``, obeys the lock-once assumption)."""
    violation = txn.well_formedness_violation()
    if violation is not None:
        raise MalformedTransactionError(f"{txn.name}: {violation}")
    if lock_once and not txn.locks_entity_at_most_once():
        raise MalformedTransactionError(f"{txn.name}: locks an entity more than once")


def two_phase_locked(txn: Transaction, name: Optional[str] = None) -> Transaction:
    """Wrap a plain transaction in strict two-phase locking.

    All needed locks are acquired (in first-use order) before the data steps,
    and all are released afterwards.  READ-only entities get shared locks;
    anything written/inserted/deleted gets an exclusive lock.  The result is
    well formed and two-phase, the canonical *safe* baseline.
    """
    exclusive: List[Entity] = []
    shared: List[Entity] = []
    for s in txn.steps:
        if not s.is_data:
            raise MalformedTransactionError(
                f"{txn.name}: two_phase_locked expects a plain transaction"
            )
        if s.op is Operation.READ:
            if s.entity not in shared and s.entity not in exclusive:
                shared.append(s.entity)
        else:
            if s.entity in shared:
                shared.remove(s.entity)
            if s.entity not in exclusive:
                exclusive.append(s.entity)
    # Entities read before being written must still end up exclusive.
    shared = [e for e in shared if e not in exclusive]
    steps: List[Step] = []
    for e in exclusive:
        steps.append(Step(Operation.LOCK_EXCLUSIVE, e))
    for e in shared:
        steps.append(Step(Operation.LOCK_SHARED, e))
    steps.extend(txn.steps)
    for e in exclusive:
        steps.append(Step(Operation.UNLOCK_EXCLUSIVE, e))
    for e in shared:
        steps.append(Step(Operation.UNLOCK_SHARED, e))
    return Transaction(name or txn.name, tuple(steps))


def transactions_by_name(txns: Sequence[Transaction]) -> Dict[str, Transaction]:
    """Index a collection of transactions by name, rejecting duplicates."""
    out: Dict[str, Transaction] = {}
    for t in txns:
        if t.name in out:
            raise MalformedTransactionError(f"duplicate transaction name {t.name!r}")
        out[t.name] = t
    return out
