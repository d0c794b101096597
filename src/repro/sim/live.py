"""The live-session table entry shared by both engines.

:class:`LiveEntry` is the one piece of scheduler state the naive
reference engine and the event engine must agree on field-for-field — the
commit scan, deadlock victim costing, and per-transaction records all
read it.  It lives in its own leaf module so ``sim/reference.py`` (the
executable specification) can use it without importing the event-engine
internals it is the oracle for (``scheduler``/``admission``/``waits_for``
— checked by ``tests/test_layering.py``).

It also caches the session's pending step (:meth:`LiveEntry.peek`):
``PolicySession.peek`` is idempotent between two ``executed()`` calls,
so the first peek after an admission or a step answers every later one
until the kernel executes that step and resets the cache.  A peek that
raises ``PolicyViolation`` is kept too: the kernel peeks right after an
admission, a restart or a step, and the phase-1 peek of the next tick
re-raises it, which is where the naive engine aborts the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.steps import Step
from ..exceptions import PolicyViolation
from ..policies.base import PolicySession
from .metrics import TxnRecord

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids an import cycle
    from .scheduler import WorkloadItem

# Cached classification states of one live session (event engine).
NEW = "new"
RUNNABLE = "runnable"
LOCK_WAIT = "lock-wait"
POLICY_WAIT = "policy-wait"

#: ``LiveEntry.peeked`` before the first peek of a step (``None`` is a
#: cached answer: the script has drained).
UNPEEKED = object()


@dataclass
class LiveEntry:
    """One live session's scheduling state (both engines)."""

    item: "WorkloadItem"
    session: PolicySession
    record: TxnRecord
    attempt: int = 1
    step_count: int = 0
    #: Admission order; stable across restarts so the commit scan visits
    #: sessions exactly as the naive engine's insertion-order scan does.
    seq: int = 0
    #: Cached classification (event engine).
    state: str = NEW
    #: Last tick for which blocked-time accounting has been recorded.
    accrued_to: int = -1
    #: Classification must evaluate the policy admission() verdict (the
    #: session is dynamic or overrides admission).
    needs_admission: bool = False
    #: The session declares invalidation channels (admission_dependencies
    #: is not None): it joins the event-driven engine and is re-examined
    #: on channel notifications instead of every tick.
    tracks_deps: bool = False
    #: The session's pending step as its last peek returned it, or
    #: :data:`UNPEEKED`; reset by the kernel right after ``executed()``.
    peeked: object = UNPEEKED
    #: The ``PolicyViolation`` a peek raised (the session executes no
    #: further step, so nothing resets it).
    violation: Optional[PolicyViolation] = None

    def peek(self) -> Optional[Step]:
        """The session's pending step, peeked once per step: the first
        call after an admission or a step asks the session, later ones
        read the cache.  A peek that raises ``PolicyViolation`` keeps it,
        and every later peek re-raises it (the session has already planned
        past the refused intent, so asking it again would not)."""
        step = self.peeked
        if step is UNPEEKED:
            if self.violation is not None:
                raise self.violation
            try:
                step = self.peeked = self.session.peek()
            except PolicyViolation as exc:
                self.violation = exc
                raise
        return step  # type: ignore[return-value]
