"""The transport-agnostic lock-manager kernel.

This package is the home of the lock-management state machine the tick
simulator (``repro.sim``) and the asyncio service (``repro.service``)
both drive:

* :mod:`~repro.kernel.lifecycle` — :class:`KernelRun`, the composed
  state layers plus transaction lifecycle transitions (the kernel half
  of the old ``sim/scheduler._Run`` monolith; the simulator's ``_Run``
  is now a driver subclass);
* :mod:`~repro.kernel.core` — :class:`LockKernel`, the tick-free
  request API (``begin/acquire/release/commit/abort`` → explicit
  :class:`Outcome`, wake-up callbacks, deadlock resolution by the
  simulator's deterministic victim rule);
* :mod:`~repro.kernel.outcomes` — the :class:`Outcome` enum and
  :class:`KernelResponse`;
* :mod:`~repro.kernel.audit` — the append-only :class:`AuditLog`.

The state layers themselves (lock table, waits-for graph, deadlock
oracle, admission cache, metrics) still live under ``repro.sim`` and are
re-exported here so front-ends above the kernel (``repro.service``)
import **only** this package — lint rule RPR003 enforces both directions
(kernel never imports the sim drivers; service imports nothing from sim).
"""

from .. import _exports

_EXPORTS = {
    "AdmissionCache": "..sim.admission",
    "AuditEntry": ".audit",
    "AuditLog": ".audit",
    "Classifier": "..sim.admission",
    "Entity": "..core.steps",
    "KernelResponse": ".outcomes",
    "KernelRun": ".lifecycle",
    "LiveEntry": "..sim.live",
    "LockKernel": ".core",
    "LockMode": "..core.operations",
    "LockTable": "..sim.lock_table",
    "Metrics": "..sim.metrics",
    "Outcome": ".outcomes",
    "TxnRecord": "..sim.metrics",
    "WaitsForGraph": "..sim.waits_for",
    "WakeCallback": ".core",
    "find_cycle": "..sim.deadlock",
    "pick_victim": "..sim.deadlock",
    "victim_cost": "..sim.deadlock",
}

__all__ = tuple(_EXPORTS)
__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)
