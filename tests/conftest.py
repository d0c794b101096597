"""Shared fixtures: the paper's worked examples as reusable objects."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro.policies
from repro import Schedule, StructuralState, Transaction
from repro.enumeration import fig2_proper_schedule, fig2_system
from repro.policies.base import PolicySession


@pytest.fixture
def policy_session_classes():
    """Every ``PolicySession`` subclass defined under ``repro.policies``,
    each policy module imported first so none is missed."""
    for info in pkgutil.walk_packages(
        repro.policies.__path__, "repro.policies."
    ):
        importlib.import_module(info.name)
    classes, stack = set(), [PolicySession]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.policies."):
                classes.add(cls)
    return classes


@pytest.fixture
def section2_t1() -> Transaction:
    """T1 of the Section 2 properness example."""
    return Transaction.from_text("T1", "(I a) (I b) (W c) (I d)")


@pytest.fixture
def section2_t2() -> Transaction:
    """T2 of the Section 2 properness example."""
    return Transaction.from_text("T2", "(R a) (D b) (I c)")


@pytest.fixture
def section2_proper(section2_t1, section2_t2) -> Schedule:
    """The paper's proper interleaving: T1 does (I a)(I b), then T2 runs
    fully, then T1 finishes with (W c)(I d)."""
    return Schedule.from_order(
        [section2_t1, section2_t2],
        ["T1", "T1", "T2", "T2", "T2", "T1", "T1"],
    )


@pytest.fixture
def section2_improper(section2_t1, section2_t2) -> Schedule:
    """The paper's improper interleaving: T1 runs entirely first, so (W c)
    executes when the database contains only a and b."""
    return Schedule.serial([section2_t1, section2_t2])


@pytest.fixture
def fig2_txns():
    return fig2_system()


@pytest.fixture
def fig2_sp():
    return fig2_proper_schedule()


@pytest.fixture
def simple_locked_pair():
    """Two well-formed 2PL transactions over one entity."""
    t1 = Transaction.from_text("T1", "(LX a) (I a) (UX a)")
    t2 = Transaction.from_text("T2", "(LX a) (W a) (UX a)")
    return [t1, t2]


@pytest.fixture
def nontwophase_pair():
    """The minimal unsafe shape: both transactions release early and relock
    a second entity — interleavings can order (a) and (b) oppositely."""
    t1 = Transaction.from_text(
        "T1", "(LX a) (W a) (UX a) (LX b) (W b) (UX b)"
    )
    t2 = Transaction.from_text(
        "T2", "(LX b) (W b) (UX b) (LX a) (W a) (UX a)"
    )
    return [t1, t2]


@pytest.fixture
def initial_ab() -> StructuralState:
    return StructuralState.of("a", "b")


@pytest.fixture
def reference_prefixes():
    """A walk over every legal and proper prefix of a transaction system,
    the empty one included, grown one event at a time by the reference
    checks ``Schedule.is_legal`` and ``is_proper``.  Each check reports the
    first violating event, so a rejected prefix has no accepted extension.
    The schedule searches are tested against this walk."""

    def walk(transactions, initial):
        frontier = [Schedule(transactions)]
        while frontier:
            prefix = frontier.pop()
            yield prefix
            for txn in transactions:
                event = prefix.next_event_of(txn.name)
                if event is None:
                    continue
                longer = prefix.extended(event)
                if longer.is_legal() and longer.is_proper(initial):
                    frontier.append(longer)

    return walk
