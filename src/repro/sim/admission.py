"""The admission layer of the scheduler kernel: cached classifications,
invalidation-channel subscriptions, and the dirty set.

The event engine caches each live session's scheduling classification
(runnable / lock-wait / policy-wait) and re-derives it only when an event
that can change it occurs.  :class:`AdmissionCache` owns the state that
decides *who gets re-examined when*:

* ``dirty`` — sessions whose verdict needs the policy and whose cached
  classification must be re-derived on the next tick (admissions,
  restarts and executors whose verdict declares a channel or does not
  proceed, channel-notification hits, woken or invalidated sessions);
* ``dynamic`` — live dynamic sessions that declare no invalidation
  dependencies: the conservative fallback, re-examined every tick;
* ``complete`` — non-dynamic sessions whose script drained, or whose
  peek at their admission, restart or own step raised
  ``PolicyViolation`` (commit or abort next tick; a restart refused
  during phase 1 moves to ``dirty`` instead, see ``_Run._phase_commit``);
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
Phase-2 loop) against the lock table and the waits-for graph and
maintains the lazy blocked-tick accounting around cache hits.  It
stores waits-for edges for POLICY_WAIT sessions only: a LOCK_WAIT
session's edges are the live holders that conflict with its queued
request, read from the lock table when a cycle is searched
(:class:`DetectionView`, :attr:`Classifier.view`).

A pending lock is registered once: from its classification until
:meth:`Classifier.clear` or until its own step executes it (then the
settle that follows drops it, or, for a dynamic session, the kernel
does), a session whose pending step locks sits on
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
  RUNNABLE, a derivation counted like any other.  After its own step the
  session is still RUNNABLE and is not cleared first, so settle touches
  only what its next step changes: the runnable index only when it
  blocks or drains, the queue only when a lock is involved.  A session
  that declares invalidation channels (``tracks_deps``: DDAG,
  altruistic) takes the same settle at the same three events: its
  verdict is settled there when it declares no channel and proceeds
  (nothing but its own next step can flip it), and is otherwise left to
  the classify phase;
* **wake** (:meth:`Classifier.wake`) — a LOCK_WAIT waiter in a release's
  wake-up set goes RUNNABLE, still queued (runnable names in the set are
  skipped);
* **block** (:meth:`Classifier.acquired`) — one walk of the acquired
  entity's queue: a runnable session whose queued mode conflicts with the
  holder's new effective mode goes LOCK_WAIT in place, keeping its queue
  place, and compatible ones are left alone.

Each of those lock events moves its herd as one batch, whatever the herd
size: the walk writes each member's state, ``accrued_to`` and blocked
ticks inline, then makes one runnable-index call
(:meth:`OrderedNames.add_many` / :meth:`OrderedNames.discard_many`), one
update per counter, and no lock-table query or waits-for graph call.

Wakes and blocks are counted as ``Metrics.lock_transitions``; a wake or
block of a session whose verdict needs the policy marks it dirty.  All
of this is exact because acquires happen only in phase 3 and a session's
own acquire comes before its own classification: from each event to the
next classify phase the table can only weaken, and the release that
weakens it wakes whoever it unblocks, so no verdict can flip back before
the naive engine would observe it.  Blocked ticks are credited where a
wait ends (a wake, a re-derivation, a victim pick; never at a blocker's
departure), through the last tick the naive engine observed
(:attr:`Classifier.observed`):
``ticks - 1`` from the start of a tick (arrivals, phase 1), ``ticks``
from phase 2 on (its aborts, the deadlock phase, phase 3); a session
that enters LOCK_WAIT starts accruing right after it.

A classification in the classify phase is read, then written:

* :meth:`Classifier.derive` — the read half: read the pending step
  (:meth:`LiveEntry.peek`, which asks the session only once per step),
  evaluate the admission verdict, query the lock table's holder map, and
  package the outcome as a :class:`Decision` without mutating any
  scheduler state;
* :meth:`Classifier.apply` — the write half: install the decision
  (accounting, counters, queue registration, a policy wait's waits-for
  edges, runnable bookkeeping).  A session that was RUNNABLE and stays
  RUNNABLE keeps its place in the runnable index; only a verdict that
  leaves RUNNABLE clears it.  That is the common case of a session
  re-derived after its own step (a dynamic one, or one whose next
  verdict declares a channel): the kernel leaves it RUNNABLE and in the
  index through the step (dropping only the executed lock's queue
  entry), because phase 2 re-derives it before anything reads either.

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
from itertools import compress
from operator import attrgetter
from typing import (
    AbstractSet,
    Collection,
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
from ..exceptions import PolicyViolation
from ..policies.base import Admission
from .lock_table import LockTable
from .live import LOCK_WAIT, NEW, POLICY_WAIT, RUNNABLE, LiveEntry
from .metrics import Metrics
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
    "DetectionView",
    "LiveEntry",
    "OrderedNames",
    "NEW",
    "RUNNABLE",
    "LOCK_WAIT",
    "POLICY_WAIT",
]


@dataclass(slots=True)
class Decision:
    """The outcome of one classification derivation — everything
    :meth:`Classifier.apply` needs to install the new state, and nothing
    else."""

    name: str
    #: One of RUNNABLE / LOCK_WAIT / POLICY_WAIT / ABORT.
    kind: str
    #: Abort reason (ABORT decisions only).
    reason: Optional[str] = None
    #: Waits-for edges (wait decisions only): stored for POLICY_WAIT;
    #: for LOCK_WAIT, what :class:`DetectionView` reads from the table.
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


#: An :class:`OrderedNames` batch moves by bisection per name when it is
#: under ``1 / _BISECT_SHARE`` of the index, else by one sort or rewrite
#: of the whole list.  Measured crossover (Python 3.11, 2-CPU box): a sort
#: overtakes per-name insertion at 4–8 names into 100 and 8–16 into 400,
#: a rewrite overtakes per-name deletion at about 12 names out of 100 and
#: 16–32 out of 400.  Both sides run in the benchmark: ``deadlock_storm``
#: moves herds about the size of the index, ``stress_backlog`` one name
#: in an index of hundreds.
_BISECT_SHARE = 16


class OrderedNames:
    """A set of names that is always in sorted order: the single owner of
    both the membership and the order of ``AdmissionCache.runnable``.

    It answers to the set mutators its writers already use (``add`` /
    ``discard``, both idempotent, and their herd batches ``add_many`` /
    ``discard_many``) and reads as the sorted sequence phase 3
    used to rebuild every tick: ``len``, truthiness, ``in``, ``[k]`` and
    iteration, all over one bisect-maintained list.  ``random.Random.choice``
    needs only ``len`` and ``[k]``, so choosing from this container — or
    from :attr:`names`, its backing list, which phase 3 hands the draw to
    skip the Python-level dunders — draws exactly what choosing from
    ``sorted(a_set)`` drew."""

    __slots__ = ("names",)

    def __init__(self) -> None:
        #: The sorted backing list: read it, never mutate it.
        self.names: List[str] = []

    def add(self, name: str) -> None:
        names = self.names
        i = bisect_left(names, name)
        if i == len(names) or names[i] != name:
            names.insert(i, name)

    def discard(self, name: str) -> None:
        names = self.names
        i = bisect_left(names, name)
        if i < len(names) and names[i] == name:
            del names[i]

    def add_many(self, new: Collection[str]) -> None:
        """Add every one of ``new`` — names that are not members, without
        repeats (a woken herd: a LOCK_WAIT session is never in the index)
        — in one call: by bisection per name when the batch is small
        against the index (:data:`_BISECT_SHARE`), else by one append and
        one sort."""
        names = self.names
        if len(new) * _BISECT_SHARE < len(names):
            for name in new:
                names.insert(bisect_left(names, name), name)
        else:
            names.extend(new)
            names.sort()

    def discard_many(self, gone: AbstractSet[str]) -> None:
        """``discard`` every one of ``gone`` (a re-blocked herd) in one
        call: by bisection per name when the batch is small against the
        index (:data:`_BISECT_SHARE`), else by one rewrite of the backing
        list, kept the same list object."""
        names = self.names
        if len(gone) * _BISECT_SHARE < len(names):
            for name in gone:  # independent deletions; the list stays sorted whatever the order
                i = bisect_left(names, name)
                if i < len(names) and names[i] == name:
                    del names[i]
        else:
            names[:] = [n for n in names if n not in gone]

    def __contains__(self, name: object) -> bool:
        names = self.names
        i = bisect_left(names, name)
        return i < len(names) and names[i] == name

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, k: int) -> str:
        return self.names[k]

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __repr__(self) -> str:
        return f"OrderedNames({self.names!r})"


class AdmissionCache:
    """Who-to-re-examine bookkeeping of the event engine (see the module
    docstring).  Every name it holds is live: a departure drops it from
    every set and subscription (:meth:`forget`).  Holds the run's metrics
    to count invalidations.
    """

    def __init__(self, metrics: Metrics) -> None:
        self._metrics = metrics
        self.dirty: Set[str] = set()
        self.dynamic: Set[str] = set()
        self.complete: Set[str] = set()
        self.runnable = OrderedNames()
        #: Invalidation-channel subscriptions: channel -> subscribed names,
        #: and the reverse index used to re-subscribe/unsubscribe.
        self.channel_subs: Dict[Hashable, Set[str]] = {}
        self.session_subs: Dict[str, Tuple[Hashable, ...]] = {}

    def forget(self, name: str) -> None:
        """Drop every piece of routing state for a departed session (its
        runnable-index entry goes with its classification:
        :meth:`Classifier.clear`)."""
        self.dirty.discard(name)
        self.dynamic.discard(name)
        self.complete.discard(name)
        self.subscribe(name, ())

    # ------------------------------------------------------------------
    # Invalidation channels
    # ------------------------------------------------------------------

    def subscribe(self, name: str, channels: Iterable[Hashable]) -> None:
        """Point the session's subscriptions at ``channels`` (re-read from
        ``admission_dependencies`` at every classification, since the
        relevant region moves with the pending step)."""
        old = self.session_subs.get(name, ())
        if channels == old:
            return
        new = tuple(dict.fromkeys(channels))
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
        cached verdicts this mutation can flip; each newly dirty one is
        an invalidation."""
        dirty = self.dirty
        before = len(dirty)
        for ch in channels:
            subs = self.channel_subs.get(ch)
            if subs:
                dirty |= subs
        self._metrics.invalidations += len(dirty) - before

    # ------------------------------------------------------------------
    # Tick queries
    # ------------------------------------------------------------------

    def phase1_candidates(self) -> List[str]:
        """Sessions phase 1 must peek this tick: drained or refused
        scripts and every-tick dynamic sessions (two disjoint sets:
        :meth:`Classifier.settle` never sees a dynamic session).  The
        caller sorts by admission order."""
        return [*self.complete, *self.dynamic]

    def take_check_slices(self) -> List[str]:
        """Sessions phase 2 must re-classify this tick, sorted (drains
        ``dirty``; every-tick dynamic sessions are always included)."""
        due = self.dirty | self.dynamic if self.dynamic else self.dirty
        check = sorted(due - self.complete if self.complete else due)
        self.dirty.clear()
        return check


#: The states a :class:`DetectionView` maps, and the field they are read
#: from.
_BLOCKED = frozenset((LOCK_WAIT, POLICY_WAIT))
_state = attrgetter("state")


class DetectionView:
    """The waits-for graph a cycle search walks, read-only: every blocked
    session, mapped to the sessions it waits on.  A POLICY_WAIT session's
    edges are the stored ones (:class:`WaitsForGraph`); a LOCK_WAIT
    session's are read from the lock table when asked — the live holders
    that conflict with its queued request, exactly what the naive
    engine's per-tick rebuild reads — so no lock event has to keep them.

    It answers only what :func:`~repro.sim.deadlock.find_cycle_counted`
    asks — iteration over the blocked names, one pass over the live
    table, and ``get``, one table read per node the search visits — plus
    ``[]`` and :meth:`snapshot`.  It has no ``len``: ``sorted`` would
    take it as a length hint and walk the live table twice."""

    __slots__ = ("_live", "_table", "_stored")

    def __init__(
        self, live: Dict[str, LiveEntry], table: LockTable, graph: WaitsForGraph
    ) -> None:
        self._live = live
        self._table = table
        self._stored = graph.waits_for

    def get(self, name: str, default=None):
        live = self._live
        entry = live.get(name)
        if entry is None:
            return default
        state = entry.state
        if state == LOCK_WAIT:
            table = self._table
            entity = table.waiting_entity(name)
            wanted = table.queue(entity)[name]
            return {b for b in table.blockers(name, entity, wanted) if b in live}
        if state == POLICY_WAIT:
            return self._stored[name]
        return default

    def __getitem__(self, name: str) -> Set[str]:
        edges = self.get(name)
        if edges is None:
            raise KeyError(name)
        return edges

    def __iter__(self) -> Iterator[str]:
        # The live names whose state is blocked, filtered without a
        # Python-level step per session (a deadlock phase sees every
        # live session).
        live = self._live
        return compress(live, map(_BLOCKED.__contains__, map(_state, live.values())))

    def snapshot(self) -> Dict[str, Set[str]]:
        """Every blocked session's edges, as a plain dict."""
        return {n: self[n] for n in self}


class Classifier:
    """Re-derives cached classifications against the sibling layers (lock
    table, waits-for graph) and keeps their bookkeeping — queue
    registrations, policy-wait edges, lazy blocked-tick accounting —
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
        #: What a cycle search walks (:meth:`WaitsForGraph.find_cycle`).
        self.view = DetectionView(live, table, graph)
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
        """Tear down the session's cached classification: the runnable
        index for a RUNNABLE entry, the stored waits-for edges for a
        POLICY_WAIT one (the only kind with any).  A NEW entry has
        neither — it is unclassified, or already cleared (a drained
        script, by :meth:`settle`) — so it returns at once.  The queued
        pending lock is not touched: the caller that re-queues
        (:meth:`settle`, :meth:`apply`) drops it first, and a departure's
        ``LockTable.release_all_wake`` drops it with the locks."""
        state = entry.state
        if state == NEW:
            return
        name = entry.item.name
        if state == RUNNABLE:
            self.cache.runnable.discard(name)
        elif state == POLICY_WAIT:
            self.graph.drop_edges(name)
        entry.state = NEW

    def derive(self, entry: LiveEntry) -> Decision:
        """The read half of a classification: one iteration of the naive
        Phase-2 loop with every mutation replaced by a field of the
        returned :class:`Decision`.  Reads the session's pending step, the
        policy verdict, the lock table's holder map for the pending
        entity, and the live table."""
        name = entry.item.name
        step = entry.peek()
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
        """Classify a session at the event that decides it, instead of in
        the next classify phase: the admission or restart (a NEW entry)
        and the own step (a RUNNABLE entry with no waits-for edges, whose
        queued lock, if any, was the step just executed) of one whose
        verdict needs no policy or declares invalidation channels — every
        session but a dynamic one that declares none.  Its next step is
        peeked once: a drained script, or a peek that raised
        ``PolicyViolation`` (kept on the entry, re-raised by the phase-1
        peek), is cleared and waits in ``complete`` for phase 1 to commit
        or abort it.  A policy verdict is settled here only when it
        declares no channel and proceeds — nothing but the session's own
        next step can flip it — and the session is unsubscribed; any
        other verdict is left ``dirty`` for the classify phase.  Any
        other step is a derivation like any other, counted in
        ``classify_checks`` (and in ``admission_checks`` /
        ``blocker_queries`` when it asked the policy / locks), and
        touches only what it changes — the queue entry moves only when a
        lock is involved, and the runnable index only when the session
        blocks.  A step that locks nothing leaves the session RUNNABLE (a
        NEW one enters the index) with no further lookups.  A LOCK_WAIT
        installed here starts accruing after :attr:`observed`."""
        name = entry.item.name
        if entry.state != NEW:  # a NEW entry has nothing queued
            self.table.remove_waiter(name)
        try:
            step = entry.peek()
        except PolicyViolation:
            step = None  # kept on the entry: phase 1 aborts it
        if step is None:
            self.clear(entry)
            self.cache.complete.add(name)
            return
        m = self.metrics
        if entry.needs_admission:
            # Only the session's own step can have dirtied it since its
            # last derivation: this one has seen that step.
            session = entry.session
            cache = self.cache
            if (
                session.admission_dependencies()
                or session.admission().verdict is not Admission.PROCEED
            ):
                cache.dirty.add(name)
                return
            cache.subscribe(name, ())
            cache.dirty.discard(name)
            m.admission_checks += 1
        m.classify_checks += 1
        if not step.op.is_lock:
            if entry.state != RUNNABLE:
                entry.state = RUNNABLE
                self.cache.runnable.add(name)
            return
        m.blocker_queries += 1
        entity, mode, edges = self._pending_lock(name, step)
        self._install(entry, entity, mode, edges)

    def apply(
        self,
        entry: LiveEntry,
        decision: Decision,
        aborts: List[Tuple[LiveEntry, str]],
    ) -> None:
        """Install a derived decision — the write half of a
        classification: lazy accounting, counters, re-subscription, then
        the per-kind transition.  A RUNNABLE session that stays RUNNABLE
        (a policy session after its own step, or one a notification
        dirtied) keeps its place in the runnable index and only re-queues
        its pending lock; any other transition clears the cached state
        first."""
        m = self.metrics
        name = entry.item.name
        now = m.ticks
        self.accrue(entry, now - 1)
        m.classify_checks += 1
        if decision.subscribe is not None:
            self.cache.subscribe(name, decision.subscribe)
        if decision.admission_checked:
            m.admission_checks += 1
        if decision.blockers_queried:
            m.blocker_queries += 1
        kind = decision.kind
        if entry.state != NEW:
            self.table.remove_waiter(name)
        if kind == RUNNABLE and entry.state == RUNNABLE:
            self._install(entry, decision.entity, decision.mode, None)
            return
        self.clear(entry)
        if kind == ABORT:
            aborts.append((entry, decision.reason or "policy violation"))
            return
        if kind == POLICY_WAIT:
            m.accrue_blocked(entry.record, False, 1)
            entry.state = POLICY_WAIT
            entry.accrued_to = now
            self.graph.set_edges(name, decision.edges or set())
            return
        if kind == LOCK_WAIT:
            m.accrue_blocked(entry.record, True, 1)
        self._install(entry, decision.entity, decision.mode, decision.edges)

    def _install(
        self,
        entry: LiveEntry,
        entity: Optional[Entity],
        mode: Optional[LockMode],
        edges: Optional[Set[str]],
    ) -> None:
        """Install a :meth:`_pending_lock` verdict on an entry that is
        NEW (cleared) or RUNNABLE with no waits-for edges and nothing
        queued: the pending lock, if any, is queued on its entity, where
        it stays — through every wake and block — until the session's
        next derivation is installed or it departs."""
        if entity is not None:
            assert mode is not None
            self.table.add_waiter(entry.item.name, entity, mode)
        if edges is None:
            self._enter_runnable(entry)
        else:
            self._enter_lock_wait(entry)

    def _enter_lock_wait(self, entry: LiveEntry) -> None:
        """Enter LOCK_WAIT: out of the runnable index if it was there,
        accounting recorded through the last observed tick.  Its edges are
        the table's to answer (:class:`DetectionView`)."""
        if entry.state == RUNNABLE:
            self.cache.runnable.discard(entry.item.name)
        entry.state = LOCK_WAIT
        entry.accrued_to = self.observed

    def _enter_runnable(self, entry: LiveEntry) -> None:
        """Enter RUNNABLE: into the runnable index unless already there."""
        if entry.state != RUNNABLE:
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
    # Lock events that decide a classification (applied in place)
    # ------------------------------------------------------------------

    def wake(self, names: Iterable[str]) -> None:
        """A release returned these queued names in its wake-up set.  The
        runnable ones are skipped (a pending lock stays queued while
        runnable); each LOCK_WAIT waiter is grantable by construction and
        the table only weakens until the next classify phase, so one whose
        verdict needs nothing but the lock table goes LOCK_WAIT → RUNNABLE
        here — still queued, with its blocked ticks credited through
        :attr:`observed` — and the others are marked dirty for a full
        re-derivation.  The woken names enter the runnable index in one
        call."""
        m = self.metrics
        live = self.live
        dirty = self.cache.dirty
        through = self.observed
        woken: List[str] = []
        wakeups = lock_ticks = 0
        for n in names:
            entry = live.get(n)
            if entry is None or entry.state != LOCK_WAIT or n in dirty:
                continue
            wakeups += 1
            if entry.needs_admission:
                dirty.add(n)
                continue
            skipped = through - entry.accrued_to
            if skipped > 0:
                entry.record.blocked_ticks += skipped
                lock_ticks += skipped
                entry.accrued_to = through
            entry.state = RUNNABLE
            woken.append(n)
        m.wakeups += wakeups
        m.lock_wait_observations += lock_ticks
        if woken:
            m.lock_transitions += len(woken)
            self.cache.runnable.add_many(woken)

    def acquired(self, holder: str, entity: Entity) -> None:
        """``holder`` just acquired a grant on ``entity`` (phase 3).

        One walk of ``entity``'s queue, read in place.  LOCK_WAIT waiters
        stay blocked — a fresh grant can only add to the holders they
        conflict with, which the table answers at the next cycle search —
        so they are skipped.  A runnable one whose verdict needs the
        policy is marked dirty; any other runnable one whose queued mode
        conflicts with the holder's new effective mode goes RUNNABLE →
        LOCK_WAIT in place, keeping its queue place, accruing from the
        next tick (it was runnable at this tick's observation), and is
        counted as a blocker derivation; a compatible one is left alone.
        The re-blocked names leave the runnable index in one call."""
        queue = self.table.queue(entity)
        if not queue or (len(queue) == 1 and holder in queue):
            return  # nobody else wants the entity
        live = self.live
        dirty = self.cache.dirty
        effective = self.table.mode_held(holder, entity)
        assert effective is not None
        observed = self.observed
        # Whether a wanted mode conflicts with the holder's effective
        # mode, indexed by ``wanted is EXCLUSIVE``.
        exclusive_mode = LockMode.EXCLUSIVE
        conflicts = (
            LockMode.SHARED.conflicts_with(effective),
            exclusive_mode.conflicts_with(effective),
        )
        blocked: Set[str] = set()
        for waiter, wanted in queue.items():
            if waiter == holder or waiter in dirty:
                continue  # dirty waiters are fully re-classified anyway
            entry = live.get(waiter)
            if entry is None or entry.state == LOCK_WAIT:
                continue
            if entry.needs_admission:
                dirty.add(waiter)
            elif conflicts[wanted is exclusive_mode]:
                entry.state = LOCK_WAIT
                entry.accrued_to = observed
                blocked.add(waiter)
        if blocked:
            m = self.metrics
            m.blocker_queries += len(blocked)
            m.lock_transitions += len(blocked)
            self.cache.runnable.discard_many(blocked)
