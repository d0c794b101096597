"""The live-session table entry shared by both engines.

:class:`LiveEntry` is the one piece of scheduler state the naive
reference engine and the event engine must agree on field-for-field — the
commit scan, deadlock victim costing, and per-transaction records all
read it.  It lives in its own leaf module so ``sim/reference.py`` (the
executable specification) can use it without importing the event-engine
internals it is the oracle for (``scheduler``/``admission``/``waits_for``
— enforced by lint rule RPR003).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..policies.base import PolicySession
from .metrics import TxnRecord

if TYPE_CHECKING:  # pragma: no cover - type-only, avoids an import cycle
    from .scheduler import WorkloadItem

# Cached classification states of one live session (event engine).
NEW = "new"
RUNNABLE = "runnable"
LOCK_WAIT = "lock-wait"
POLICY_WAIT = "policy-wait"


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
