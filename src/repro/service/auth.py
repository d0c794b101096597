"""Inline authorization for the lock service.

The policy is *owner-only*, the service-level analogue of a row-level
``lock_owner_only`` policy: the actor that successfully ``begin``-s a
transaction owns it, and every subsequent operation addressing that
transaction — mutating (``acquire``/``release``/``commit``/``abort``)
or read-only (``locks``, the holder-only visibility view) — must come
from the owner.  A non-owner's request is **denied before the kernel is
consulted**: no lock state changes, and the denial is audited with the
decision reason (the boundary-enforcement-integrity contract the kernel
enforces for its own refusals).

Ownership of a name persists after the transaction finishes, so a
finished transaction's name cannot be hijacked by a different actor
re-``begin``-ing it (the kernel independently refuses name reuse).
"""

from __future__ import annotations

from typing import Dict, Optional


class Authorizer:
    """Owner-only transaction authorization (see module docstring)."""

    def __init__(self) -> None:
        self._owner: Dict[str, str] = {}

    def register(self, txn: str, actor: str) -> None:
        """Record ``actor`` as the owner of ``txn`` (called by the service
        only after the kernel granted the ``begin``)."""
        self._owner[txn] = actor

    def check(self, op: str, actor: str, txn: str) -> Optional[str]:
        """``None`` if ``actor`` may address ``txn`` with ``op``, else the
        denial reason.  A transaction nobody owns yet is admitted here —
        the kernel's own misuse guard answers for unknown names (an
        ``ERROR`` that reads no holder state and mutates nothing)."""
        owner = self._owner.get(txn)
        if owner is None:
            return None
        if owner != actor:
            return (
                f"actor {actor!r} does not own transaction {txn!r} "
                f"(owner: {owner!r})"
            )
        return None
