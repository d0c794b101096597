"""The admission layer of the scheduler kernel: cached classifications,
invalidation-channel subscriptions, and the dirty set.

The event engine caches each live session's scheduling classification
(runnable / lock-wait / policy-wait) and re-derives it only when an event
that can change it occurs.  :class:`AdmissionCache` owns the state that
decides *who gets re-examined when*:

* ``dirty`` — sessions whose verdict needs the policy and whose cached
  classification must be re-derived on the next tick (executors, fresh
  admissions, channel-notification hits, woken or invalidated sessions);
* ``dynamic`` — live dynamic sessions that declare no invalidation
  dependencies: the conservative fallback, re-examined every tick;
* ``complete`` — non-dynamic sessions whose script drained (commit next
  tick);
* ``phase1`` — dependency-declaring sessions due a replanning peek (fresh
  admission or just executed: the peek may commit or abort them);
* ``runnable`` — names currently classified runnable, kept in sorted
  order (an :class:`OrderedNames`), so phase 3's seeded pick is a length
  and a k-th element rather than a per-tick sort of the population;
* the **invalidation-channel subscriptions** (channel → subscribers and
  the reverse index): sessions that declare
  ``admission_dependencies()`` are subscribed to the channels whose
  change can flip their cached verdict, and
  ``PolicyContext.notify_changed`` routes into the dirty set through
  :meth:`policy_changed`.

:class:`Classifier` is the "what do they become" half: it re-derives one
session's cached classification (one iteration of the naive engine's
Phase-2 loop) against the lock table and the waits-for graph, maintains
the lazy blocked-tick accounting around cache hits, and keeps blocked
waiters' waits-for edges fresh across grants and grantability-filtered
releases without re-classifying them.

A pending lock is registered once: from its classification until
:meth:`Classifier.clear`, a session whose pending step locks sits on
:class:`LockTable`'s queue for that entity with its wanted mode, whether
it is LOCK_WAIT or RUNNABLE.  The queue is the only index of who wants
an entity — ``table.waiting_entity(name)`` is where it is read — so wake
and block move a session between states without touching it.

A session whose classification reads nothing but its pending step and
the lock table (``needs_admission`` false: 2PL, DTR, scripted) is
classified where the event that decides its verdict happens, never in
the classify phase:

* **step, admission, restart** (:meth:`Classifier.settle`, called by the
  kernel after the session's own step, at its admission and at its
  re-begin after an abort) — pending lock → blockers → LOCK_WAIT or
  RUNNABLE, a derivation counted like any other;
* **wake** (:meth:`Classifier.wake`) — a LOCK_WAIT waiter in a release's
  wake-up set goes RUNNABLE: edges dropped, still queued (runnable names
  in the set are skipped);
* **block** (:meth:`Classifier.acquired`) — one walk of the acquired
  entity's queue: a runnable session whose queued mode conflicts with the
  holder's new effective mode goes LOCK_WAIT in place, keeping its queue
  place, with the conflicting live holders as edges — one
  ``LockTable.blockers`` query per wanted mode, shared by the herd — and
  compatible ones are left alone.

Wakes and blocks are counted as ``Metrics.lock_transitions``.
Dependency-declaring and dynamic sessions stay on the dirty route.  All
of this is exact because acquires happen only in phase 3 and a session's
own acquire comes before its own classification: from each event to the
next classify phase the table can only weaken, and the release that
weakens it wakes whoever it unblocks, so no verdict can flip back before
the naive engine would observe it.  Blocked ticks are credited through
the last tick the naive engine observed (:attr:`Classifier.observed`):
``ticks - 1`` from the start of a tick (arrivals, phase 1), ``ticks``
from phase 2 on (its aborts, the deadlock phase, phase 3); a session
that enters LOCK_WAIT starts accruing right after it.

A classification in the classify phase is read, then written:

* :meth:`Classifier.derive` — the read half: peek the pending step,
  evaluate the admission verdict, query the lock table's holder map, and
  package the outcome as a :class:`Decision` without mutating any
  scheduler state;
* :meth:`Classifier.apply` — the write half: install the decision
  (accounting, counters, queue registration, waits-for edges, runnable
  bookkeeping).

:meth:`Classifier.classify` is ``apply(entry, derive(entry))``; the
classify phase calls it once per name of the sorted check set
(:meth:`AdmissionCache.take_check_slices`, walked by
:mod:`repro.sim.executor`), which holds only sessions whose verdict
needs the policy.  ``derive`` and ``settle`` share one "pending lock →
blockers" helper, and every transition the same state installers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..core.operations import LockMode
from ..core.steps import Entity, Step
from ..policies.base import Admission, PolicySession
from .lock_table import LockTable
from .live import LOCK_WAIT, NEW, POLICY_WAIT, RUNNABLE, LiveEntry
from .metrics import Metrics, TxnRecord
from .waits_for import WaitsForGraph

#: Decision kind for a phase-2 policy abort (not a LiveEntry state — the
#: session never re-enters the cache; the scheduler aborts it after the
#: classify phase, in decision order).
ABORT = "abort"

__all__ = [
    "ABORT",
    "AdmissionCache",
    "Classifier",
    "Decision",
    "LiveEntry",
    "OrderedNames",
    "NEW",
    "RUNNABLE",
    "LOCK_WAIT",
    "POLICY_WAIT",
]


@dataclass
class Decision:
    """The outcome of one classification derivation — everything
    :meth:`Classifier.apply` needs to install the new state, and nothing
    else."""

    name: str
    #: One of RUNNABLE / LOCK_WAIT / POLICY_WAIT / ABORT.
    kind: str
    #: Abort reason (ABORT decisions only).
    reason: Optional[str] = None
    #: Waits-for edges to install (wait decisions only).
    edges: Optional[Set[str]] = None
    #: Pending lock's entity and requested mode: the session's entry on
    #: the lock table's queue (LOCK_WAIT, or RUNNABLE with a pending lock).
    entity: Optional[Entity] = None
    mode: Optional[LockMode] = None
    #: Invalidation channels to (re-)subscribe (dependency-declaring
    #: sessions only; ``None`` means "leave subscriptions alone").
    subscribe: Optional[Tuple[Hashable, ...]] = None
    #: Which work counters this derivation must be credited for.
    admission_checked: bool = False
    blockers_queried: bool = False


class OrderedNames:
    """A set of names that is always in sorted order: the single owner of
    both the membership and the order of ``AdmissionCache.runnable``.

    It answers to the set mutators its writers already use (``add`` /
    ``discard``, both idempotent) and reads as the sorted sequence phase 3
    used to rebuild every tick: ``len``, truthiness, ``in``, ``[k]`` and
    iteration, all over one bisect-maintained list.  ``random.Random.choice``
    needs only ``len`` and ``[k]``, so choosing from this container draws
    exactly what choosing from ``sorted(a_set)`` drew."""

    __slots__ = ("_names",)

    def __init__(self) -> None:
        self._names: List[str] = []

    def add(self, name: str) -> None:
        names = self._names
        i = bisect_left(names, name)
        if i == len(names) or names[i] != name:
            names.insert(i, name)

    def discard(self, name: str) -> None:
        names = self._names
        i = bisect_left(names, name)
        if i < len(names) and names[i] == name:
            del names[i]

    def __contains__(self, name: object) -> bool:
        names = self._names
        i = bisect_left(names, name)
        return i < len(names) and names[i] == name

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, k: int) -> str:
        return self._names[k]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __repr__(self) -> str:
        return f"OrderedNames({self._names!r})"


class AdmissionCache:
    """Who-to-re-examine bookkeeping of the event engine (see the module
    docstring).  Holds references to the run's live table and metrics so
    routing can filter departed sessions and count invalidations.
    """

    def __init__(self, live: Dict[str, object], metrics: Metrics) -> None:
        self._live = live
        self._metrics = metrics
        self.dirty: Set[str] = set()
        self.dynamic: Set[str] = set()
        self.complete: Set[str] = set()
        self.phase1: Set[str] = set()
        self.runnable = OrderedNames()
        #: Invalidation-channel subscriptions: channel -> subscribed names,
        #: and the reverse index used to re-subscribe/unsubscribe.
        self.channel_subs: Dict[Hashable, Set[str]] = {}
        self.session_subs: Dict[str, Tuple[Hashable, ...]] = {}

    # ------------------------------------------------------------------
    # Registration and teardown
    # ------------------------------------------------------------------

    def register(self, name: str, *, tracks_deps: bool) -> None:
        """Route a freshly admitted (or restarted) session whose verdict
        needs the policy: a dependency-declaring one gets a phase-1 peek
        plus an initial classification, any other joins the every-tick
        set.  (Sessions whose verdict needs no policy never come here:
        :meth:`Classifier.settle` classifies them on the spot.)"""
        if tracks_deps:
            self.phase1.add(name)
            self.dirty.add(name)
        else:
            self.dynamic.add(name)

    def forget(self, name: str) -> None:
        """Drop every piece of routing state for a departed session."""
        self.dirty.discard(name)
        self.dynamic.discard(name)
        self.complete.discard(name)
        self.phase1.discard(name)
        self.runnable.discard(name)
        self.subscribe(name, ())

    # ------------------------------------------------------------------
    # Invalidation channels
    # ------------------------------------------------------------------

    def subscribe(self, name: str, channels: Iterable[Hashable]) -> None:
        """Point the session's subscriptions at ``channels`` (re-read from
        ``admission_dependencies`` at every classification, since the
        relevant region moves with the pending step)."""
        new = tuple(dict.fromkeys(channels))
        old = self.session_subs.get(name, ())
        if new == old:
            return
        for ch in old:
            subs = self.channel_subs.get(ch)
            if subs is not None:
                subs.discard(name)
                if not subs:
                    del self.channel_subs[ch]
        if new:
            self.session_subs[name] = new
            for ch in new:
                self.channel_subs.setdefault(ch, set()).add(name)
        else:
            self.session_subs.pop(name, None)

    def policy_changed(self, channels: Tuple[Hashable, ...]) -> None:
        """Context-emitted change notification: mark every subscriber of a
        changed channel dirty, so the next tick re-derives exactly the
        cached verdicts this mutation can flip."""
        m = self._metrics
        for ch in channels:
            subs = self.channel_subs.get(ch)
            if not subs:
                continue
            for n in subs:  # repro: noqa[RPR001] set-membership adds plus a counter; order-insensitive
                if n in self._live and n not in self.dirty:
                    self.dirty.add(n)
                    m.invalidations += 1

    # ------------------------------------------------------------------
    # Tick queries
    # ------------------------------------------------------------------

    def phase1_candidates(self) -> List[str]:
        """Sessions phase 1 must peek this tick (drains ``phase1``); the
        caller sorts by admission order."""
        if not (self.complete or self.dynamic or self.phase1):
            return []
        live = self._live
        candidates = [  # repro: noqa[RPR001] the caller sorts candidates by admission seq
            n for n in self.complete | self.dynamic | self.phase1 if n in live
        ]
        self.phase1.clear()
        return candidates

    def take_check_slices(self) -> List[str]:
        """Sessions phase 2 must re-classify this tick, sorted (drains
        ``dirty``; every-tick dynamic sessions are always included)."""
        if not (self.dirty or self.dynamic):
            return []
        live = self._live
        check = [  # repro: noqa[RPR001] sorted before return
            n
            for n in self.dirty | self.dynamic
            if n in live and n not in self.complete
        ]
        self.dirty.clear()
        return sorted(check)


class Classifier:
    """Re-derives cached classifications against the sibling layers (lock
    table, waits-for graph) and keeps their bookkeeping — queue
    registrations, waits-for edges, lazy blocked-tick accounting —
    consistent with every transition (see the module docstring)."""

    def __init__(
        self,
        live: Dict[str, LiveEntry],
        metrics: Metrics,
        table: LockTable,
        graph: WaitsForGraph,
        cache: AdmissionCache,
    ) -> None:
        self.live = live
        self.metrics = metrics
        self.table = table
        self.graph = graph
        self.cache = cache
        #: Last tick the naive engine has classified — its blocked-tick
        #: observation point: ``ticks - 1`` from the start of a tick (set
        #: by the tick loop before arrivals), ``ticks`` once phase 2
        #: starts.  A wake accrues through it, and a session entering
        #: LOCK_WAIT starts accruing right after it.
        self.observed = 0

    # ------------------------------------------------------------------
    # Lazy blocked-tick accounting
    # ------------------------------------------------------------------

    def accrue(self, entry: LiveEntry, through: int) -> None:
        """Catch a blocked session's lazy blocked-tick accounting up
        through tick ``through`` (it sat in the same blocked state the
        whole time — anything that could have changed it would have
        re-examined it sooner)."""
        if entry.state == LOCK_WAIT:
            lock_wait = True
        elif entry.state == POLICY_WAIT:
            lock_wait = False
        else:
            return
        skipped = through - entry.accrued_to
        if skipped > 0:
            self.metrics.accrue_blocked(entry.record, lock_wait, skipped)
            entry.accrued_to = through

    # ------------------------------------------------------------------
    # Classification transitions
    # ------------------------------------------------------------------

    def clear(self, entry: LiveEntry) -> None:
        """Tear down the session's cached classification: runnable flag,
        outgoing waits-for edges, pending-lock registration."""
        name = entry.item.name
        if entry.state == RUNNABLE:
            self.cache.runnable.discard(name)
        self.graph.drop_edges(name)
        self.table.remove_waiter(name)
        entry.state = NEW

    def derive(self, entry: LiveEntry) -> Decision:
        """The read half of a classification: one iteration of the naive
        Phase-2 loop with every mutation replaced by a field of the
        returned :class:`Decision`.  Reads the session's pending step, the
        policy verdict, the lock table's holder map for the pending
        entity, and the live table."""
        name = entry.item.name
        step = entry.session.peek()
        assert step is not None
        subscribe: Optional[Tuple[Hashable, ...]] = None
        if entry.tracks_deps:
            deps = entry.session.admission_dependencies()
            subscribe = tuple(deps) if deps is not None else ()
        admission_checked = False
        if entry.needs_admission:
            admission_checked = True
            verdict = entry.session.admission()
            if verdict.verdict is Admission.ABORT:
                return Decision(
                    name,
                    ABORT,
                    reason=verdict.reason or "policy violation",
                    subscribe=subscribe,
                    admission_checked=True,
                )
            if verdict.verdict is Admission.WAIT:
                return Decision(
                    name,
                    POLICY_WAIT,
                    edges={w for w in verdict.waiting_on if w in self.live},
                    subscribe=subscribe,
                    admission_checked=True,
                )
        entity, mode, edges = self._pending_lock(name, step)
        return Decision(
            name,
            RUNNABLE if edges is None else LOCK_WAIT,
            edges=edges,
            entity=entity,
            mode=mode,
            subscribe=subscribe,
            admission_checked=admission_checked,
            blockers_queried=entity is not None,
        )

    def _pending_lock(
        self, name: str, step: Step
    ) -> Tuple[Optional[Entity], Optional[LockMode], Optional[Set[str]]]:
        """Pending lock → blockers: the part of a classification that reads
        only the pending step and the lock table.  Returns ``(entity, mode,
        edges)``: ``entity`` is ``None`` when the step locks nothing
        (RUNNABLE, nothing to queue); ``edges`` is ``None`` when the lock
        is grantable (RUNNABLE), and otherwise the conflicting holders
        that are live (LOCK_WAIT).  Either way a pending lock is queued on
        ``entity`` wanting ``mode``."""
        op = step.op
        mode = op.lock_mode
        if not op.is_lock or mode is None:
            return None, None, None
        entity = step.entity
        blockers = self.table.blockers(name, entity, mode)
        if not blockers:
            return entity, mode, None
        live = self.live
        return entity, mode, {b for b in blockers if b in live}

    def settle(self, entry: LiveEntry) -> None:
        """Classify a cleared session whose verdict needs no policy at the
        event that decides it — its own step, its admission, its restart —
        instead of in the next classify phase.  Its pending step is peeked
        once: a drained script waits in ``complete`` for its phase-1
        commit; any other step is a derivation like any other, counted in
        ``classify_checks`` (and in ``blocker_queries`` when it locks).  A
        LOCK_WAIT installed here starts accruing after :attr:`observed`."""
        step = entry.session.peek()
        if step is None:
            self.cache.complete.add(entry.item.name)
            return
        m = self.metrics
        m.classify_checks += 1
        entity, mode, edges = self._pending_lock(entry.item.name, step)
        if entity is not None:
            m.blocker_queries += 1
        self._install(entry, entity, mode, edges)

    def apply(
        self,
        entry: LiveEntry,
        decision: Decision,
        aborts: List[Tuple[LiveEntry, str]],
    ) -> None:
        """Install a derived decision — the write half of a
        classification: lazy accounting, clear, counters,
        re-subscription, then the per-kind transition."""
        m = self.metrics
        name = entry.item.name
        now = m.ticks
        self.accrue(entry, now - 1)
        self.clear(entry)
        m.classify_checks += 1
        if decision.subscribe is not None:
            self.cache.subscribe(name, decision.subscribe)
        if decision.admission_checked:
            m.admission_checks += 1
        if decision.blockers_queried:
            m.blocker_queries += 1
        if decision.kind == ABORT:
            aborts.append((entry, decision.reason or "policy violation"))
            return
        if decision.kind == POLICY_WAIT:
            m.accrue_blocked(entry.record, False, 1)
            entry.state = POLICY_WAIT
            entry.accrued_to = now
            self.graph.set_edges(name, decision.edges or set())
            return
        if decision.kind == LOCK_WAIT:
            m.accrue_blocked(entry.record, True, 1)
        self._install(entry, decision.entity, decision.mode, decision.edges)

    def _install(
        self,
        entry: LiveEntry,
        entity: Optional[Entity],
        mode: Optional[LockMode],
        edges: Optional[Set[str]],
    ) -> None:
        """Install a :meth:`_pending_lock` verdict on a cleared entry: the
        pending lock, if any, is queued on its entity, where it stays —
        through every wake and block — until :meth:`clear`."""
        if entity is not None:
            assert mode is not None
            self.table.add_waiter(entry.item.name, entity, mode)
        if edges is None:
            self._enter_runnable(entry)
        else:
            self._enter_lock_wait(entry, edges)

    def _enter_lock_wait(self, entry: LiveEntry, edges: Set[str]) -> None:
        """Enter LOCK_WAIT: waits-for ``edges``, accounting recorded
        through the last observed tick."""
        entry.state = LOCK_WAIT
        entry.accrued_to = self.observed
        self.graph.set_edges(entry.item.name, edges)

    def _enter_runnable(self, entry: LiveEntry) -> None:
        entry.state = RUNNABLE
        self.cache.runnable.add(entry.item.name)

    def classify(
        self, entry: LiveEntry, aborts: List[Tuple[LiveEntry, str]]
    ) -> None:
        """Re-derive ``entry``'s scheduling state: one iteration of the
        naive Phase-2 loop, plus lazy accounting for the ticks skipped
        since the previous classification (during which the session
        necessarily sat in the same blocked state — nothing that could
        have changed it happened, or it would have been re-examined
        sooner).  :meth:`derive` then :meth:`apply`."""
        self.apply(entry, self.derive(entry), aborts)

    # ------------------------------------------------------------------
    # Lock-wait edge maintenance (no re-classification)
    # ------------------------------------------------------------------

    def refresh_lock_edges(self, releaser: str, entity: Entity) -> None:
        """A release by ``releaser`` may have dropped it from ``entity``'s
        conflicting holders without unblocking the remaining waiters (the
        wake-up set is grantability-filtered).  Their cached waits-for
        edges must not keep pointing at the releaser — the maintained
        graph would diverge from the naive engine's fresh rebuild at the
        next cycle search — so re-derive each still-blocked waiter's edge
        set from the table, without re-classifying the session."""
        m = self.metrics
        for waiter, wanted in self.table.waiter_modes(entity):
            if waiter == releaser or waiter in self.cache.dirty:
                continue  # dirty waiters are fully re-classified anyway
            entry = self.live.get(waiter)
            if entry is None or entry.state != LOCK_WAIT:
                continue
            m.blocker_queries += 1
            self.graph.set_edges(
                waiter,
                {
                    b
                    for b in self.table.blockers(waiter, entity, wanted)
                    if b in self.live
                },
            )

    # ------------------------------------------------------------------
    # Lock events that decide a classification (applied in place)
    # ------------------------------------------------------------------

    def wake(self, names: Iterable[str]) -> None:
        """A release returned these queued names in its wake-up set.  The
        runnable ones are skipped (a pending lock stays queued while
        runnable); each LOCK_WAIT waiter is grantable by construction and
        the table only weakens until the next classify phase, so one whose
        verdict needs nothing but the lock table goes LOCK_WAIT → RUNNABLE
        here — edges dropped, still queued — with its blocked ticks
        credited through :attr:`observed`; the others are marked dirty for
        a full re-derivation."""
        m = self.metrics
        live = self.live
        dirty = self.cache.dirty
        for n in names:
            entry = live.get(n)
            if entry is None or entry.state != LOCK_WAIT or n in dirty:
                continue
            m.wakeups += 1
            if entry.needs_admission:
                dirty.add(n)
                continue
            self.accrue(entry, self.observed)
            self.graph.drop_edges(n)
            m.lock_transitions += 1
            self._enter_runnable(entry)

    def acquired(self, holder: str, entity: Entity) -> None:
        """``holder`` just acquired a grant on ``entity`` (phase 3).

        One walk of ``entity``'s queue.  LOCK_WAIT waiters stay blocked —
        a fresh grant can only extend their blocker sets — so a
        conflicting one gains the holder edge in place.  A runnable one
        whose verdict needs the policy is marked dirty; any other runnable
        one whose queued mode conflicts with the holder's new effective
        mode goes RUNNABLE → LOCK_WAIT in place, keeping its queue place,
        accruing from the next tick (it was runnable at this tick's
        observation); a compatible one is left alone.  The blocked ones'
        edges come from one :meth:`LockTable.blockers` query per wanted
        mode — the conflicting live holders — each taking its own copy
        without itself (an S holder waiting to upgrade)."""
        m = self.metrics
        table = self.table
        live = self.live
        dirty = self.cache.dirty
        effective = table.mode_held(holder, entity)
        assert effective is not None
        conflicting: Dict[LockMode, Set[str]] = {}
        for waiter, wanted in table.waiter_modes(entity):
            if waiter == holder or waiter in dirty:
                continue  # dirty waiters are fully re-classified anyway
            entry = live.get(waiter)
            if entry is None:
                continue
            if entry.state == LOCK_WAIT:
                if wanted.conflicts_with(effective):
                    self.graph.add_edge_if_tracked(waiter, holder)
            elif entry.needs_admission:
                dirty.add(waiter)
            elif wanted.conflicts_with(effective):
                holders = conflicting.get(wanted)
                if holders is None:
                    holders = conflicting[wanted] = {
                        b for b in table.blockers(None, entity, wanted) if b in live
                    }
                m.blocker_queries += 1
                m.lock_transitions += 1
                self.cache.runnable.discard(waiter)
                self._enter_lock_wait(entry, holders - {waiter})
