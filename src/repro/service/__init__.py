"""The lock-manager service: an audited asyncio front-end over the
transport-agnostic kernel (:mod:`repro.kernel`).

Layering (``tests/test_layering.py`` checks it): this package imports **only**
``repro.kernel`` — never ``repro.sim`` or ``repro.core``.  The kernel's
request API runs on the simulator's state layers, and the one core name
the protocol speaks (``LockMode``) is a kernel re-export.  The package
inits export lazily, so importing
the service loads the kernel's request API and the three state layers it
runs on (``sim.lock_table``, ``sim.waits_for``, ``sim.deadlock``) — not
the simulator, the policies, the Theorem-1 deciders or
``multiprocessing`` (``tests/test_import_budget.py`` pins this).

* :mod:`~repro.service.protocol` — the JSON-line wire protocol;
* :mod:`~repro.service.auth` — owner-only inline authorization;
* :mod:`~repro.service.transport` — the in-process duplex pipe;
* :mod:`~repro.service.server` — :class:`LockService` (connection
  handling, backpressure, drain) and :class:`ServiceClient`.
"""

from .. import _exports

_EXPORTS = {
    "Authorizer": ".auth",
    "LockService": ".server",
    "MUTATING_OPS": ".protocol",
    "OPS": ".protocol",
    "PROTOCOL_VERSION": ".protocol",
    "ProtocolError": ".protocol",
    "QUERY_OPS": ".protocol",
    "ServiceClient": ".server",
    "decode": ".protocol",
    "encode": ".protocol",
    "memory_pair": ".transport",
    "parse_mode": ".protocol",
}

__all__ = tuple(_EXPORTS)
__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)
