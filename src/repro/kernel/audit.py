"""Append-only audit log of kernel and service decisions.

Every state-mutating request — and every *refusal* to mutate — must leave
an audit entry (the boundary-enforcement-integrity contract: a denied
request produces no state change **and** an audit record with the
decision reason; there is no audit-free path through the kernel).  The
log assigns each entry a monotonically increasing sequence number at
append time, so concurrent client sessions funneled through one kernel
produce a single serializable audit order that tests can assert on.

Entries are immutable (tuple-backed: assigning a field raises); the log
exposes read-only views only — there is deliberately no
``remove``/``clear`` surface.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple


class AuditEntry(NamedTuple):
    """One audited decision."""

    #: Position in the log's total order (assigned at append).
    seq: int
    #: Operation name (``begin``/``acquire``/``release``/``commit``/
    #: ``abort``/``locks``/...).
    op: str
    #: The requesting principal (service actor, or the transaction name
    #: when the kernel is driven directly).
    actor: str
    #: Transaction the request addressed (may equal ``actor``).
    txn: Optional[str]
    #: Entity the request addressed, rendered with ``repr`` (``None`` for
    #: lifecycle ops).
    entity: Optional[str]
    #: The outcome's wire value (``granted``/``blocked``/``denied``/
    #: ``victim``/``error``).
    decision: str
    #: Human-readable decision reason (mandatory for every non-granted
    #: decision).
    reason: Optional[str] = None


class AuditLog:
    """Append-only, monotonically sequenced audit trail."""

    def __init__(self) -> None:
        self._entries: List[AuditEntry] = []

    def append(
        self,
        op: str,
        actor: str,
        decision: str,
        *,
        txn: Optional[str] = None,
        entity: Optional[object] = None,
        reason: Optional[str] = None,
    ) -> AuditEntry:
        entries = self._entries
        entry = AuditEntry(
            len(entries),
            op,
            actor,
            txn,
            None if entity is None else repr(entity),
            decision,
            reason,
        )
        entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AuditEntry]:
        return iter(tuple(self._entries))

    def entries(self) -> Tuple[AuditEntry, ...]:
        """Immutable snapshot of the whole trail, in sequence order."""
        return tuple(self._entries)

    def for_txn(self, txn: str) -> Tuple[AuditEntry, ...]:
        return tuple(e for e in self._entries if e.txn == txn)

    def decisions(self) -> Tuple[str, ...]:
        return tuple(e.decision for e in self._entries)
