"""repro — a reproduction of *Safe Locking Policies for Dynamic Databases*
(Chaudhri & Hadzilacos, PODS 1995 / JCSS 1998).

The library implements the paper's model of dynamic databases (structural
states, proper schedules), the canonical-schedules characterisation of unsafe
locking (Theorem 1) together with two independent safety deciders, and the
three locking policies whose correctness the paper proves with it: the
dynamic DAG (DDAG) policy, altruistic locking, and the dynamic tree (DTR)
policy.  A discrete-event concurrency simulator substitutes for the
companion performance study the paper cites.

Quickstart::

    from repro import Transaction, Schedule, is_serializable

    t1 = Transaction.from_text("T1", "(LX a) (I a) (UX a)")
    t2 = Transaction.from_text("T2", "(LX a) (W a) (UX a)")
    s = Schedule.from_order([t1, t2], ["T1"] * 3 + ["T2"] * 3)
    assert s.is_legal() and s.is_proper() and is_serializable(s)

See ``examples/`` for worked scenarios and ``benchmarks/`` for the
figure-by-figure reproduction harness.
"""

from . import _exports

_EXPORTS = {
    "CanonicalWitness": ".core",
    "DatabaseState": ".core",
    "Entity": ".core",
    "Event": ".core",
    "InteractionGraph": ".core",
    "LockMode": ".core",
    "Operation": ".core",
    "SafetyVerdict": ".core",
    "Schedule": ".core",
    "SerializabilityGraph": ".core",
    "Step": ".core",
    "StructuralState": ".core",
    "Transaction": ".core",
    "ValueState": ".core",
    "all_two_phase": ".core",
    "analyze_two_phase": ".core",
    "assert_well_formed": ".core",
    "canonicalize": ".core",
    "decide_safety": ".core",
    "find_canonical_witness": ".core",
    "find_completion": ".core",
    "find_nonserializable_schedule": ".core",
    "is_completable": ".core",
    "is_safe_bruteforce": ".core",
    "is_safe_canonical": ".core",
    "is_serializable": ".core",
    "move": ".core",
    "parse_step": ".core",
    "parse_steps": ".core",
    "serializability_graph": ".core",
    "serialization_order": ".core",
    "split_at_first_cycle": ".core",
    "static_chordless_heuristic": ".core",
    "step": ".core",
    "transpose": ".core",
    "two_phase_locked": ".core",
    "validate_schedule": ".core",
    "DeadlockError": ".exceptions",
    "IllegalScheduleError": ".exceptions",
    "ImproperScheduleError": ".exceptions",
    "MalformedScheduleError": ".exceptions",
    "MalformedTransactionError": ".exceptions",
    "ModelError": ".exceptions",
    "PolicyViolation": ".exceptions",
    "ReproError": ".exceptions",
    "SearchBudgetExceeded": ".exceptions",
    "SimulationError": ".exceptions",
    "VerificationError": ".exceptions",
}

__all__ = tuple(_EXPORTS)
__getattr__, __dir__ = _exports.attach(__name__, _EXPORTS)

__version__ = "1.0.0"
