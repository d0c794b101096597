"""Steps: the atoms of transactions and schedules (Section 2 of the paper).

A *step* is a pair ``(a, e)`` where ``a`` is an operation and ``e`` an
entity.  Entities are arbitrary hashable Python values; the examples and
tests use short strings (``"a"``, ``"b"``) or integers matching the paper's
figures, while the DDAG policy uses tuples to model edges.

The module also provides the step-level conflict predicate and a small
parser for the compact textual notation used throughout the tests, e.g.
``"(I a)"`` or ``"LX 4"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, List, Tuple

from .operations import LockMode, Operation, operations_conflict, parse_operation

#: Entities may be any hashable value.  Strings/ints in most code; the DDAG
#: policy uses ``("edge", u, v)`` tuples for edge entities.
Entity = Hashable


@dataclass(frozen=True, slots=True, init=False)
class Step:
    """A single step ``(op, entity)``.

    Instances are slotted, immutable and hashable so they can be used in
    sets and as dict keys: assigning or deleting a field raises
    :class:`dataclasses.FrozenInstanceError`, and the hash is that of the
    field tuple ``(op, entity)``.  Equality is structural: two ``(R a)``
    steps are equal even if they belong to different transactions —
    schedule-level identity is provided by
    :class:`repro.core.schedules.Event`, which pairs a step with its
    transaction and position.  A step never equals a plain tuple.
    """

    op: Operation
    entity: Entity

    def __init__(self, op: Operation, entity: Entity) -> None:
        # The slot setters bypass the frozen ``__setattr__`` that the
        # generated ``__init__`` would go through once per field.
        _set_op(self, op)
        _set_entity(self, entity)

    def __str__(self) -> str:
        return f"({self.op} {self.entity})"

    def __repr__(self) -> str:
        return f"Step({self.op.name}, {self.entity!r})"

    # ------------------------------------------------------------------
    # Classification (delegates to Operation)
    # ------------------------------------------------------------------

    @property
    def is_data(self) -> bool:
        """True for READ/WRITE/INSERT/DELETE steps."""
        return self.op.is_data

    @property
    def is_lock(self) -> bool:
        """True for LS/LX steps."""
        return self.op.is_lock

    @property
    def is_unlock(self) -> bool:
        """True for US/UX steps."""
        return self.op.is_unlock

    @property
    def lock_mode(self) -> LockMode | None:
        """The lock mode of a lock/unlock step, else ``None``."""
        return self.op.lock_mode

    def conflicts_with(self, other: "Step") -> bool:
        """Two steps conflict iff they share an entity and their operations
        are not both in ``{R, LS, US}`` (paper, §2)."""
        return self.entity == other.entity and operations_conflict(self.op, other.op)


_set_op = Step.__dict__["op"].__set__
_set_entity = Step.__dict__["entity"].__set__


def step(op: Operation | str, entity: Entity) -> Step:
    """Convenience constructor accepting either an :class:`Operation` or its
    textual abbreviation: ``step("LX", "a") == Step(LOCK_EXCLUSIVE, "a")``."""
    if isinstance(op, str):
        op = parse_operation(op)
    return Step(op, entity)


def steps_conflict(s1: Step, s2: Step) -> bool:
    """Module-level alias of :meth:`Step.conflicts_with` for functional use."""
    return s1.conflicts_with(s2)


def parse_step(text: str) -> Step:
    """Parse one step from the paper's notation.

    Accepts ``"(I a)"``, ``"I a"``, and ``"(LX 4)"`` forms.  Bare integers
    are converted to ``int`` entities so parsed steps compare equal to
    programmatically-built ones in the figure reproductions.
    """
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split()
    if len(parts) != 2:
        raise ValueError(f"cannot parse step from {text!r}; expected '(OP entity)'")
    op = parse_operation(parts[0])
    raw_entity = parts[1]
    entity: Entity = int(raw_entity) if raw_entity.lstrip("-").isdigit() else raw_entity
    return Step(op, entity)


def parse_steps(text: str) -> List[Step]:
    """Parse a whitespace-separated sequence of parenthesised steps.

    Example::

        parse_steps("(I a) (I b) (W c) (I d)")
        # [Step(INSERT, 'a'), Step(INSERT, 'b'), Step(WRITE, 'c'), Step(INSERT, 'd')]
    """
    out: List[Step] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "(":
            if depth == 0:
                current = []
            else:
                current.append(ch)
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            if depth == 0:
                out.append(parse_step("".join(current)))
            else:
                current.append(ch)
        elif depth > 0:
            current.append(ch)
        elif not ch.isspace():
            raise ValueError(f"unexpected character {ch!r} outside parentheses in {text!r}")
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    return out


def entities_of(steps: Iterable[Step]) -> frozenset:
    """The set of entities mentioned by a sequence of steps."""
    return frozenset(s.entity for s in steps)


def conflicting_pairs(
    steps_a: Iterable[Step], steps_b: Iterable[Step]
) -> Iterator[Tuple[Step, Step]]:
    """Yield every conflicting pair ``(sa, sb)`` with ``sa`` from the first
    sequence and ``sb`` from the second.

    Used to build interaction graphs and for brute-force cross-checks of the
    serializability graph.
    """
    bs = list(steps_b)
    for sa in steps_a:
        for sb in bs:
            if sa.conflicts_with(sb):
                yield sa, sb
