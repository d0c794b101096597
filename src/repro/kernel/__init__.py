"""The transport-agnostic lock-manager kernel.

Two state machines live here, built from the same state layers:

* :mod:`~repro.kernel.lifecycle` — :class:`KernelRun`, the composed
  state layers plus transaction lifecycle transitions (the kernel half
  of the old ``sim/scheduler._Run`` monolith; the simulator's ``_Run``
  is its driver subclass);
* :mod:`~repro.kernel.core` — :class:`LockKernel`, the tick-free
  request API (``begin/acquire/release/commit/abort`` → explicit
  :class:`Outcome`, wake-up callbacks, deadlock resolution by the
  simulator's deterministic victim rule) that the asyncio service
  (``repro.service``) serves.  It keeps its own transitions beside
  ``KernelRun``'s (ROADMAP item 6(a) merges them);
* :mod:`~repro.kernel.outcomes` — the :class:`Outcome` enum and
  :class:`KernelResponse`;
* :mod:`~repro.kernel.audit` — the append-only :class:`AuditLog`.

The state layers themselves (lock table, waits-for graph, deadlock
oracle, admission cache, metrics) live under ``repro.sim``; the kernel
modules import them from there.  ``LockMode`` is re-exported because
the service speaks it on the wire and imports nothing but this package
— lint rule RPR003 enforces both directions (the kernel never imports
the sim drivers; the service imports nothing from sim).
"""

from .. import _exports

_EXPORTS = {
    "AuditEntry": ".audit",
    "AuditLog": ".audit",
    "KernelResponse": ".outcomes",
    "KernelRun": ".lifecycle",
    "LockKernel": ".core",
    "LockMode": "..core.operations",
    "Outcome": ".outcomes",
    "WakeCallback": ".core",
}

__all__ = tuple(_EXPORTS)
__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)
