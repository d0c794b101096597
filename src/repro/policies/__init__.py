"""Locking policies: DDAG (Section 4), altruistic (Section 5), dynamic tree
(Section 6), the 2PL baseline, and deliberately unsafe controls."""

from .. import _exports

_EXPORTS = {
    "Access": ".base",
    "Admission": ".base",
    "AdmissionResult": ".base",
    "AltruisticContext": ".altruistic",
    "AltruisticPolicy": ".altruistic",
    "AltruisticSession": ".altruistic",
    "BrokenAltruisticPolicy": ".unsafe",
    "BrokenDdagPolicy": ".unsafe",
    "DdagContext": ".ddag",
    "DdagPolicy": ".ddag",
    "DdagSession": ".ddag",
    "DeleteEdge": ".base",
    "DeleteNode": ".base",
    "DtrContext": ".dtr",
    "DtrPolicy": ".dtr",
    "DtrSession": ".dtr",
    "FreeForAllPolicy": ".unsafe",
    "InsertEdge": ".base",
    "InsertNode": ".base",
    "Intent": ".base",
    "LockingPolicy": ".base",
    "PolicyContext": ".base",
    "PolicySession": ".base",
    "Read": ".base",
    "ScriptedSession": ".base",
    "TwoPhaseContext": ".two_phase",
    "TwoPhasePolicy": ".two_phase",
    "Unlock": ".ddag",
    "Write": ".base",
    "access_steps": ".base",
    "check_altruistic_schedule": ".altruistic",
    "check_ddag_schedule": ".ddag",
    "check_dtr_schedule": ".dtr",
    "check_tree_locked": ".dtr",
    "edge_entity": ".base",
    "intent_entities": ".base",
}

__all__ = tuple(_EXPORTS)
__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)
