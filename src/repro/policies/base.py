"""Policy framework: how locking policies plug into schedules and the
simulator.

A *locking policy* in the paper is a relation ``P(T, T̄)`` between plain and
locked transactions, computed **dynamically**: which locked transaction
materialises depends on the structural state of the database when each step
executes.  We realise this with three cooperating pieces:

* :class:`LockingPolicy` — a factory describing the policy (its name) and
  creating per-run :class:`PolicyContext` objects.
* :class:`PolicyContext` — the shared, policy-specific state of one
  concurrent run (e.g. the DDAG database graph, the DTR database forest, the
  altruistic wake bookkeeping).  It spawns one :class:`PolicySession` per
  transaction.
* :class:`PolicySession` — an online state machine that turns a sequence of
  high-level *intents* (:class:`Access`, :class:`InsertNode`, …) into locked
  steps, one at a time.  The simulator repeatedly asks for the pending step
  (:meth:`PolicySession.peek`), checks the policy-level admission verdict
  (:meth:`PolicySession.admission`), acquires locks through its lock manager,
  and confirms execution (:meth:`PolicySession.executed`).

Sessions *recompute* their pending step against the present shared state,
which is exactly how the paper's rules ("the present state of G" in rule L5)
behave; a step that was fine when planned can become inadmissible by the
time it runs, forcing a wait or an abort (the paper's Fig. 3 scenario).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence, Tuple, Union

from ..core.operations import Operation
from ..core.steps import Entity, Step


# ----------------------------------------------------------------------
# Intents: the high-level operations a transaction wants to perform.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """The paper's ACCESS: a READ immediately followed by a WRITE of one
    entity (Sections 4 and 5 define transactions in terms of it)."""

    entity: Entity


@dataclass(frozen=True)
class Read:
    """A plain READ (used by policies that support shared locks)."""

    entity: Entity


@dataclass(frozen=True)
class Write:
    """A plain WRITE."""

    entity: Entity


@dataclass(frozen=True)
class InsertNode:
    """Insert a node into the database graph, wired under ``parents``.

    Inserting the node inserts the node entity and one edge entity per
    parent (DDAG models both nodes and edges as lockable entities).
    """

    node: Entity
    parents: Tuple[Entity, ...] = ()


@dataclass(frozen=True)
class DeleteNode:
    """Delete a node (and, for DDAG, its incident edge entities)."""

    node: Entity


@dataclass(frozen=True)
class InsertEdge:
    """Insert edge ``(u, v)`` into the database graph."""

    u: Entity
    v: Entity


@dataclass(frozen=True)
class DeleteEdge:
    """Delete edge ``(u, v)`` from the database graph."""

    u: Entity
    v: Entity


Intent = Union[Access, Read, Write, InsertNode, DeleteNode, InsertEdge, DeleteEdge]


def edge_entity(u: Entity, v: Entity) -> Tuple[str, Entity, Entity]:
    """The lockable entity representing edge ``(u, v)``."""
    return ("edge", u, v)


def intent_entities(intent: Intent) -> Tuple[Entity, ...]:
    """The entities an intent touches (nodes only; edges expand to their
    endpoints plus the edge entity in the policies that need it)."""
    if isinstance(intent, (Access, Read, Write)):
        return (intent.entity,)
    if isinstance(intent, InsertNode):
        return (intent.node, *intent.parents)
    if isinstance(intent, DeleteNode):
        return (intent.node,)
    if isinstance(intent, (InsertEdge, DeleteEdge)):
        return (intent.u, intent.v)
    raise TypeError(f"unknown intent {intent!r}")


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------


class Admission(enum.Enum):
    """Policy-level verdict for the pending step."""

    PROCEED = "proceed"
    WAIT = "wait"
    ABORT = "abort"


@dataclass
class AdmissionResult:
    verdict: Admission
    #: For WAIT: the transactions being waited on (policy-level waits-for
    #: edges, merged with lock waits for deadlock detection).
    waiting_on: Tuple[str, ...] = ()
    #: For ABORT: the violated rule and explanation.
    reason: Optional[str] = None


PROCEED = AdmissionResult(Admission.PROCEED)


class PolicySession(ABC):
    """Per-transaction state machine producing locked steps."""

    #: Whether :meth:`peek`/:meth:`admission` consult *shared* mutable state
    #: (the DDAG graph, the altruistic wake bookkeeping).  A session may set
    #: this False only when its :meth:`peek` is a pure function of its own
    #: state *and* it keeps the default always-PROCEED :meth:`admission`;
    #: the event-driven scheduler then skips it until a lock event or its
    #: own execution invalidates the cached classification.  (Overriding
    #: :meth:`admission` makes the scheduler treat the session as dynamic
    #: regardless of this flag.)  A dynamic session is re-evaluated every
    #: tick unless it also declares :meth:`admission_dependencies`, in
    #: which case the scheduler re-evaluates it only when a declared
    #: channel is notified.  Defaults to True — the conservative choice
    #: for custom sessions.
    dynamic: bool = True

    def __init__(self, name: str):
        self.name = name

    @abstractmethod
    def peek(self) -> Optional[Step]:
        """The next step this transaction wants to execute, or ``None`` when
        it has finished all its intents (ready to commit).

        Contract: ``peek()`` is idempotent between two :meth:`executed`
        calls — k peeks return equal steps and leave the session (and
        the step :meth:`executed` then performs) as one peek does.  The
        first peek may plan (expand an intent, raise ``PolicyViolation``)
        and may read only shared state that :meth:`executed` alone
        changes: the scheduler peeks right after ``begin`` (an admission
        or a restart) and right after the session's own step, and acts
        on the answer in later phases and ticks, across other sessions'
        admissions, commits and aborts.  Later peeks must not
        re-plan.  The scheduler relies on it to ask once per step and
        cache the answer — a raised violation included."""

    @abstractmethod
    def executed(self) -> None:
        """Confirm that the step returned by :meth:`peek` was executed;
        advance the state machine and update shared context state."""

    def admission(self) -> AdmissionResult:
        """Policy-level admission check for the pending step against the
        *present* shared state.  Default: always proceed."""
        return PROCEED

    def admission_dependencies(self) -> Optional[Iterable[Hashable]]:
        """Declare the *invalidation channels* whose change can flip this
        session's cached scheduling decision (its :meth:`admission` verdict
        or the ``waiting_on`` set attached to a WAIT).

        ``None`` (the default) means the session cannot enumerate them; the
        event-driven scheduler then falls back to re-examining the session
        every tick — the conservative behaviour dynamic sessions always had.

        Returning an iterable of hashable channel keys (possibly empty)
        opts the session into policy-aware invalidation: the scheduler
        caches its classification, subscribes it to the declared channels,
        and re-derives the classification only when

        * the context reports a change on a subscribed channel
          (:meth:`PolicyContext.notify_changed`),
        * a lock event touches the session (wake-up, watched acquire), or
        * the session executes a step of its own.

        An empty set declares that nothing but the session's own next
        step can flip the verdict: when it also proceeds, the scheduler
        settles the session where it begins or its step executes, with
        no classify-phase re-derivation.

        Contract: between two of the session's own executions, **every**
        shared-state mutation that can alter its verdict must be covered by
        a declared channel that the mutating code notifies; over-reporting
        (spurious notifications, extra channels) is always safe, silent
        under-reporting breaks naive/event equivalence.  The declaration is
        re-read each time the scheduler caches a classification, so it may
        track the pending step; a session that has returned an iterable
        must keep returning iterables for the rest of its life.

        ``tests/test_invalidation.py::TestInvalidationMatrix`` checks the
        contract: every session class under ``repro.policies`` that does
        not inherit this default needs a case there, which runs the naive
        engine against the event engine over a workload whose
        notifications fire.
        """
        return None

    def on_commit(self) -> None:
        """Called when the transaction finishes (all intents executed)."""

    def on_abort(self) -> None:
        """Called when the transaction is aborted; must release any shared
        context bookkeeping (lock release is the simulator's job)."""

    @property
    def has_structural_effects(self) -> bool:
        """Whether the session has already executed INSERT/DELETE steps
        (used to pick abort victims that are cheap to erase)."""
        return False


class PolicyContext(ABC):
    """Shared state of one concurrent run under a policy.

    Besides spawning sessions, the context is the policy side of the
    scheduler's invalidation protocol: policy code that mutates shared
    state (a graph edge insert, a donation, a wake dissolving) reports the
    affected channels through :meth:`notify_changed`, and the event-driven
    scheduler — having subscribed each session to the channels it declared
    via :meth:`PolicySession.admission_dependencies` — re-examines exactly
    the sessions whose cached verdicts the change can flip.
    """

    #: Change listener installed by the event-driven scheduler (class-level
    #: ``None`` default so subclasses need not call ``super().__init__``).
    _change_listener: Optional[Callable[[Tuple[Hashable, ...]], None]] = None

    @abstractmethod
    def begin(self, name: str, intents: Sequence[Intent]) -> PolicySession:
        """Start a transaction with the given intent script."""

    def set_change_listener(
        self, listener: Optional[Callable[[Tuple[Hashable, ...]], None]]
    ) -> None:
        """Install the scheduler callback that receives change
        notifications (one per run; the naive engine installs none)."""
        self._change_listener = listener

    def notify_changed(self, channels: Iterable[Hashable]) -> None:
        """Report that shared state observable through ``channels`` changed.

        Called by policy code on structural mutations and wake-state
        updates; a no-op when no scheduler listener is installed (the
        naive engine re-checks everything every tick anyway)."""
        if self._change_listener is not None:
            self._change_listener(tuple(channels))


class LockingPolicy(ABC):
    """Factory + metadata for one locking policy."""

    #: Human-readable policy name (used in reports and benchmarks).
    name: str = "abstract"

    @abstractmethod
    def create_context(self, **kwargs) -> PolicyContext:
        """Create the shared state for one run (e.g. the database graph)."""


# ----------------------------------------------------------------------
# Helpers shared by concrete policies
# ----------------------------------------------------------------------


def access_steps(entity: Entity) -> Tuple[Step, ...]:
    """The data steps of one ACCESS: ``(R e) (W e)``."""
    return (Step(Operation.READ, entity), Step(Operation.WRITE, entity))


class ScriptedSession(PolicySession):
    """A session that plays a precomputed list of steps, re-planning nothing.

    Used by policies whose locked transaction can be computed up front (the
    DTR policy precomputes the locked transaction when the transaction
    begins — Section 6 notes this explicitly — and strict 2PL needs no
    dynamic decisions either).
    """

    dynamic = False

    def __init__(self, name: str, steps: Sequence[Step]):
        # The script is kept, not copied (the caller built it for this
        # session, and nothing here writes to it), and ``name`` is stored
        # directly: a session per admitted transaction is built on the
        # simulator's hot path.
        self.name = name
        self._steps = steps
        self._cursor = 0
        self._structural = False

    def peek(self) -> Optional[Step]:
        if self._cursor >= len(self._steps):
            return None
        return self._steps[self._cursor]

    def executed(self) -> None:
        step = self._steps[self._cursor]
        if step.op.is_structural:
            self._structural = True
        self._cursor += 1

    @property
    def has_structural_effects(self) -> bool:
        return self._structural
