"""Explicit outcomes of the kernel's request API.

Every request a front-end submits to :class:`repro.kernel.core.LockKernel`
resolves to exactly one :class:`Outcome`, carried on a
:class:`KernelResponse`; ``DENIED`` is the front-end's own answer, given
before the kernel sees the request:

``GRANTED``
    The request took effect — a lock was granted (or upgraded), a
    transaction began, a release/commit/abort completed.  ``GRANTED`` is
    the kernel's one success outcome, so a transport can branch on a
    single value.
``BLOCKED``
    The acquire conflicts with other holders; the transaction is queued
    and the registered wake-up callback fires with the final outcome
    (``GRANTED`` after a release unblocks it, ``VICTIM`` if deadlock
    resolution aborts it, ``ERROR`` if the kernel drains while it waits).
``DENIED``
    The service's authorization check rejected the request *before the
    kernel saw it* — the boundary-enforcement contract: a denied request
    leaves no lock state and only an audit entry.
``VICTIM``
    The transaction was aborted by deadlock resolution (its locks are
    released, its pending request cancelled).
``ERROR``
    Protocol misuse — unknown or finished transaction, release of an
    unheld lock, duplicate same-mode acquire, an operation while blocked
    — rejected with no state mutation.

The enum values are the wire strings of the service's JSON-line protocol.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple


class Outcome(enum.Enum):
    """The explicit result of one kernel request (see module docstring)."""

    GRANTED = "granted"
    BLOCKED = "blocked"
    DENIED = "denied"
    VICTIM = "victim"
    ERROR = "error"

    #: The wire string (the member's value).  Every reply and audit entry
    #: reads it, so it is a plain attribute: ``Enum.value`` is a
    #: Python-level property.
    wire: str
    is_success: bool

    def __init__(self, wire: str) -> None:
        self.wire = wire
        self.is_success = wire == "granted"


class KernelResponse(NamedTuple):
    """One request's resolution: the outcome, a machine-readable reason
    for non-success outcomes, and — for ``BLOCKED`` acquires — the names
    currently blocking the transaction (holder names are kernel-internal;
    the service's visibility policy decides what a client may see).
    Immutable and tuple-backed, like
    :class:`~repro.kernel.audit.AuditEntry`."""

    outcome: Outcome
    reason: Optional[str] = None
    blockers: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.outcome.is_success


#: Shared success response (no payload beyond the outcome).
GRANTED = KernelResponse(Outcome.GRANTED)
