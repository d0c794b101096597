"""Operations of the dynamic-database model (Section 2 of the paper).

The paper's plain transactions draw operations from ``O = {R, W, I, D}``
(READ, WRITE, INSERT, DELETE).  Locked transactions extend this with four
locking operations, giving ``OL = {R, W, I, D, LS, LX, US, UX}``:

* ``LS`` / ``LX`` — LOCK-SHARED / LOCK-EXCLUSIVE,
* ``US`` / ``UX`` — UNLOCK-SHARED / UNLOCK-EXCLUSIVE.

This module defines the :class:`Operation` enumeration, the :class:`LockMode`
enumeration, and the *conflict* relation between operations:

    Two steps conflict if they operate on a common entity and the operations
    of the two steps are not both in ``{R, LS, US}``.       (paper, Section 2)

The INSERT and DELETE operations change the *structural* state of the
database; WRITE changes the *value* state; READ changes nothing.
"""

from __future__ import annotations

import enum
from typing import FrozenSet


class LockMode(enum.Enum):
    """Shared or exclusive lock mode."""

    SHARED = "S"
    EXCLUSIVE = "X"

    # Members are singletons and equality is identity, so identity hashing
    # is consistent with it; it goes through the C slot, where
    # ``Enum.__hash__`` is a Python call on every set or dict lookup (the
    # lock table's mode sets on every lock and unlock).
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    def conflicts_with(self, other: "LockMode") -> bool:
        """Lock-mode compatibility: only SHARED/SHARED is compatible."""
        return self is LockMode.EXCLUSIVE or other is LockMode.EXCLUSIVE

    @property
    def lock_op(self) -> Operation:
        """The LOCK operation acquiring this mode."""
        return LX if self is LockMode.EXCLUSIVE else LS

    @property
    def unlock_op(self) -> Operation:
        """The UNLOCK operation releasing this mode."""
        return UX if self is LockMode.EXCLUSIVE else US


class Operation(enum.Enum):
    """One of the eight operations of ``OL``.

    The enum value is the paper's abbreviation, which is also what
    :meth:`__str__` returns so that schedules print exactly like the paper's
    figures, e.g. ``(I a)`` or ``(LX 4)``.

    Seven predicates are fixed per member, so they are filled in once at
    member creation and read as plain attributes — every scheduler
    decision and every schedule check asks them about every step:

    * ``is_data`` — one of the data operations ``O = {R, W, I, D}``;
    * ``is_structural`` — ``I`` or ``D``, the operations that change which
      entities exist (the structural state);
    * ``requires_present`` — defined only on an entity present in the
      structural state (``R``, ``W``, ``D``);
    * ``requires_absent`` — defined only on an absent entity (``I``);
    * ``is_lock`` — ``LS`` or ``LX``;
    * ``is_unlock`` — ``US`` or ``UX``;
    * ``lock_mode`` — the :class:`LockMode` of a lock/unlock operation,
      else ``None``.
    """

    READ = "R"
    WRITE = "W"
    INSERT = "I"
    DELETE = "D"
    LOCK_SHARED = "LS"
    LOCK_EXCLUSIVE = "LX"
    UNLOCK_SHARED = "US"
    UNLOCK_EXCLUSIVE = "UX"

    is_data: bool
    is_structural: bool
    requires_present: bool
    requires_absent: bool
    is_lock: bool
    is_unlock: bool
    lock_mode: LockMode | None

    # As for LockMode: identity hashing through the C slot (``op in
    # NON_CONFLICTING`` runs on every event of a serializability check).
    __hash__ = object.__hash__

    def __init__(self, abbreviation: str) -> None:
        # The data operations are the one-letter abbreviations; the
        # locking ones spell it out: L/U, then the mode S/X.
        locking = len(abbreviation) == 2
        self.is_data = not locking
        self.is_structural = abbreviation in ("I", "D")
        self.requires_present = abbreviation in ("R", "W", "D")
        self.requires_absent = abbreviation == "I"
        self.is_lock = locking and abbreviation[0] == "L"
        self.is_unlock = locking and abbreviation[0] == "U"
        self.lock_mode = LockMode(abbreviation[1]) if locking else None

    def __str__(self) -> str:
        return self.value


# Short aliases matching the paper's notation.
R = Operation.READ
W = Operation.WRITE
I = Operation.INSERT  # noqa: E741 - deliberately named after the paper's abbreviation
D = Operation.DELETE
LS = Operation.LOCK_SHARED
LX = Operation.LOCK_EXCLUSIVE
US = Operation.UNLOCK_SHARED
UX = Operation.UNLOCK_EXCLUSIVE

#: Operations that never conflict with each other: a pair of steps on a common
#: entity conflicts unless *both* operations are in this set (paper, §2).
NON_CONFLICTING: FrozenSet[Operation] = frozenset({R, LS, US})

#: The plain-transaction alphabet ``O``.
DATA_OPERATIONS: FrozenSet[Operation] = frozenset({R, W, I, D})

#: The locked-transaction alphabet ``OL``.
ALL_OPERATIONS: FrozenSet[Operation] = frozenset(Operation)


def operations_conflict(op1: Operation, op2: Operation) -> bool:
    """Return True if two operations conflict when applied to a common entity.

    Implements the paper's definition verbatim: the operations conflict unless
    both belong to ``{R, LS, US}``.  Note that this makes, e.g., ``LX``
    conflict with ``LS`` and ``W`` conflict with ``R`` — and also makes the
    structural operations ``I``/``D`` conflict with everything, which is what
    forces insertions and deletions to serialize against all access to the
    affected entity.
    """
    return not (op1 in NON_CONFLICTING and op2 in NON_CONFLICTING)


def parse_operation(text: str) -> Operation:
    """Parse the paper's abbreviation (``"R"``, ``"LX"``, …) into an
    :class:`Operation`.

    Raises ``ValueError`` for unknown abbreviations.  Parsing is
    case-insensitive so that ``"lx"`` also works in hand-written tests.
    """
    try:
        return Operation(text.upper())
    except ValueError:
        valid = ", ".join(sorted(op.value for op in Operation))
        raise ValueError(f"unknown operation {text!r}; expected one of: {valid}") from None
