"""The admission layer of the scheduler kernel: cached classifications,
invalidation-channel subscriptions, and dirty-set routing.

The event engine caches each live session's scheduling classification
(runnable / lock-wait / policy-wait) and re-derives it only when an event
that can change it occurs.  :class:`AdmissionCache` owns the state that
decides *who gets re-examined when*:

* ``dirty`` — sessions whose cached classification must be re-derived on
  the next tick (woken waiters, invalidated watchers, executors, fresh
  admissions, channel-notification hits);
* ``dynamic`` — live dynamic sessions that declare no invalidation
  dependencies: the conservative fallback, re-examined every tick;
* ``complete`` — non-dynamic sessions whose script drained (commit next
  tick);
* ``phase1`` — dependency-declaring sessions due a replanning peek (fresh
  admission or just executed: the peek may commit or abort them);
* ``runnable`` — names currently classified runnable, kept in sorted
  order (an :class:`OrderedNames`), so phase 3's seeded pick is a length
  and a k-th element rather than a per-tick sort of the population;
* ``watchers`` — runnable sessions watching their pending lock's entity,
  so a concurrent acquire invalidates exactly them;
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

The classification itself is split into two halves so the phase pipeline
(:mod:`repro.sim.executor`) can fan it out over shard-local work sets:

* :meth:`Classifier.derive` — the *pure read* half: peek the pending
  step, evaluate the admission verdict, query the lock table's holder
  maps, and package the outcome as a :class:`Decision` without mutating
  any scheduler state.  During the classify phase the holder maps and the
  live table are frozen (no acquire/release/commit happens mid-phase), so
  derivations of distinct sessions are independent and may run
  concurrently on shard workers.
* :meth:`Classifier.apply` — the *mutating* half: install a derived
  decision (accounting, counters, waiter queues, waits-for edges,
  watcher/runnable routing) in exactly the legacy interleaved order's
  mutation sequence.  Applies always run on the coordinator thread, at
  the executor's merge barrier, in shard-index order.

:meth:`Classifier.classify` remains the serial composition of the two —
``apply(entry, derive(entry))`` — and is the byte-identical reference the
parallel executor is equivalence-tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Callable,
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
from ..core.steps import Entity
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
    """The pure outcome of one classification derivation — everything
    :meth:`Classifier.apply` needs to install the new state, and nothing
    else.  Produced by :meth:`Classifier.derive` (possibly on a shard
    worker), buffered per shard, applied at the merge barrier."""

    name: str
    #: One of RUNNABLE / LOCK_WAIT / POLICY_WAIT / ABORT.
    kind: str
    #: Abort reason (ABORT decisions only).
    reason: Optional[str] = None
    #: Waits-for edges to install (wait decisions only).
    edges: Optional[Set[str]] = None
    #: Pending lock's entity (LOCK_WAIT waiter queue / RUNNABLE watch).
    entity: Optional[Entity] = None
    #: Requested lock mode (LOCK_WAIT only).
    mode: Optional[LockMode] = None
    #: RUNNABLE with a pending lock: watch the entity for invalidation.
    watch: bool = False
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
    routing can filter departed sessions and count wakeups/invalidations.
    """

    def __init__(self, live: Dict[str, object], metrics: Metrics) -> None:
        self._live = live
        self._metrics = metrics
        self.dirty: Set[str] = set()
        self.dynamic: Set[str] = set()
        self.complete: Set[str] = set()
        self.phase1: Set[str] = set()
        self.runnable = OrderedNames()
        self.watchers: Dict[Entity, Set[str]] = {}
        #: Invalidation-channel subscriptions: channel -> subscribed names,
        #: and the reverse index used to re-subscribe/unsubscribe.
        self.channel_subs: Dict[Hashable, Set[str]] = {}
        self.session_subs: Dict[str, Tuple[Hashable, ...]] = {}

    # ------------------------------------------------------------------
    # Registration and teardown
    # ------------------------------------------------------------------

    def register(
        self, name: str, *, tracks_deps: bool, dynamic: bool, complete: bool
    ) -> None:
        """Route a freshly admitted (or restarted) session into the cache:
        dependency-declaring sessions get a phase-1 peek plus an initial
        classification; no-declaration dynamic ones join the every-tick
        set; finished scripts go straight to ``complete``; everyone else
        is simply dirty."""
        if tracks_deps:
            self.phase1.add(name)
            self.dirty.add(name)
        elif dynamic:
            self.dynamic.add(name)
        elif complete:
            self.complete.add(name)
        else:
            self.dirty.add(name)

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
    # Dirty-set routing
    # ------------------------------------------------------------------

    def wake(self, names: Iterable[str]) -> None:
        """A release returned these waiters in its wake-up set."""
        for n in names:
            if n in self._live and n not in self.dirty:
                self.dirty.add(n)
                self._metrics.wakeups += 1

    def mark_dirty(
        self, names: Iterable[str], exclude: Optional[str] = None
    ) -> None:
        for n in names:
            if n != exclude and n in self._live:
                self.dirty.add(n)

    # ------------------------------------------------------------------
    # Watchers
    # ------------------------------------------------------------------

    def watch(self, entity: Entity, name: str) -> None:
        """Register a runnable session as watching its pending lock's
        entity (a concurrent acquire must invalidate it)."""
        self.watchers.setdefault(entity, set()).add(name)

    def unwatch(self, entity: Entity, name: str) -> None:
        watching = self.watchers.get(entity)
        if watching is not None:
            watching.discard(name)
            if not watching:
                del self.watchers[entity]

    # ------------------------------------------------------------------
    # Tick queries
    # ------------------------------------------------------------------

    def phase1_candidates(self) -> List[str]:
        """Sessions phase 1 must peek this tick (drains ``phase1``); the
        caller sorts by admission order."""
        live = self._live
        candidates = [  # repro: noqa[RPR001] the caller sorts candidates by admission seq
            n for n in self.complete | self.dynamic | self.phase1 if n in live
        ]
        self.phase1.clear()
        return candidates

    def take_check_set(self) -> List[str]:
        """Sessions phase 2 must re-classify this tick, sorted (drains
        ``dirty``; every-tick dynamic sessions are always included)."""
        live = self._live
        check = [  # repro: noqa[RPR001] sorted before return
            n
            for n in self.dirty | self.dynamic
            if n in live and n not in self.complete
        ]
        self.dirty.clear()
        return sorted(check)

    # ------------------------------------------------------------------
    # Shard-local slices (phase pipeline)
    # ------------------------------------------------------------------

    def route(
        self, name: str, shard_of: Callable[[Entity], int]
    ) -> Tuple[Optional[int], Optional[str]]:
        """``(shard, spill_cause)`` for ``name``'s classification: which
        shard slice it belongs to (``shard`` is ``None`` for the global
        slice, in which case ``spill_cause`` names why).  Routing rules,
        in order:

        * a dependency-declaring session whose declared invalidation
          channels all hash to one shard routes there (its verdict can
          only flip on events homed on that shard); channels spanning
          shards spill with cause ``"dynamic"``;
        * everyone else — including admission-needing sessions, whose
          ``admission()`` call is a pure read of shared policy context
          (proven transitively by lint rule RPR007), so the derive half
          may run on any worker — routes to its pending step's entity
          shard: a lock derivation reads only that shard's holder map,
          every other derivation reads nothing;
        * only genuinely entity-less work remains coordinator-bound
          (cause ``"admission"`` / ``"entity_less"``).

        Routing happens at drain time, never cached: the pending step
        advances between ticks, so a stored shard hint would go stale."""
        entry = self._live.get(name)
        if entry is None:
            return None, "entity_less"
        if entry.tracks_deps:
            deps = entry.session.admission_dependencies()
            channels = tuple(deps) if deps is not None else ()
            homes = {shard_of(ch) for ch in channels}
            if len(homes) == 1:
                return min(homes), None
            if homes:
                return None, "dynamic"
            # Declared nothing: the verdict is step-local, so the pending
            # entity's shard is as good a home as any.
        step = entry.session.peek()
        if step is None or step.entity is None:
            cause = "admission" if entry.needs_admission else "entity_less"
            return None, cause
        return shard_of(step.entity), None

    def take_check_slices(
        self, shard_of: Callable[[Entity], int], shards: int
    ) -> Tuple[List[List[str]], List[str], Dict[str, int]]:
        """:meth:`take_check_set` partitioned into shard-local slices, the
        global slice, and this tick's per-cause spill tally (see
        :meth:`route`).  Each slice preserves the sorted order of the
        merged set, so the serial executor's sorted merge of all slices
        reproduces the legacy check sequence exactly."""
        slices: List[List[str]] = [[] for _ in range(shards)]
        global_slice: List[str] = []
        spill: Dict[str, int] = {}
        for n in self.take_check_set():
            s, cause = self.route(n, shard_of)
            if s is None:
                global_slice.append(n)
                spill[cause] = spill.get(cause, 0) + 1
            else:
                slices[s].append(n)
        return slices, global_slice, spill

    def runnable_slices(
        self, shard_of: Callable[[Entity], int], shards: int
    ) -> Tuple[List[List[str]], List[str]]:
        """The runnable set partitioned the same way (introspection for
        the partition-invariant property tests; phase 3 itself picks from
        the whole ordered set)."""
        slices: List[List[str]] = [[] for _ in range(shards)]
        global_slice: List[str] = []
        for n in self.runnable:
            s, _ = self.route(n, shard_of)
            (global_slice if s is None else slices[s]).append(n)
        return slices, global_slice

    def watcher_slices(
        self, shard_of: Callable[[Entity], int], shards: int
    ) -> List[Set[str]]:
        """Watcher names grouped by their watched entity's shard — every
        watcher set is keyed by a single entity, so each lands wholly in
        one shard slice (no global spill for watchers)."""
        slices: List[Set[str]] = [set() for _ in range(shards)]
        for entity, names in self.watchers.items():  # repro: noqa[RPR001] set-union buckets; order-insensitive
            slices[shard_of(entity)].update(names)
        return slices


class Classifier:
    """Re-derives cached classifications against the sibling layers (lock
    table, waits-for graph) and keeps their bookkeeping — waiter queues,
    waits-for edges, watchers, lazy blocked-tick accounting — consistent
    with every transition (see the module docstring)."""

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
        outgoing waits-for edges, waiter-queue registration, watcher."""
        name = entry.item.name
        if entry.state == RUNNABLE:
            self.cache.runnable.discard(name)
        self.graph.drop_edges(name)
        if entry.state == LOCK_WAIT:
            self.table.remove_waiter(name)
        if entry.watch_entity is not None:
            self.cache.unwatch(entry.watch_entity, name)
            entry.watch_entity = None
        entry.state = NEW

    def derive(self, entry: LiveEntry) -> Decision:
        """The pure-read half of a classification: one iteration of the
        naive Phase-2 loop with every mutation replaced by a field of the
        returned :class:`Decision`.  Reads the session's pending step, the
        policy verdict (a pure read of shared policy context, so admission
        sessions may derive on thread workers too; the process executor
        keeps them on the coordinator because the context is not
        replicated), the lock table's holder map for the pending entity,
        and the live table; during the classify phase all of these are
        frozen, so derivations of distinct sessions commute and may run on
        shard workers.  Lint rule RPR007 verifies the purity claim
        transitively: every write or mutation reachable from ``derive``
        through the whole-program call graph is a finding."""
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
        op = step.op
        mode = op.lock_mode
        if op.is_lock and mode is not None:
            blockers = self.table.blockers(name, step.entity, mode)
            if blockers:
                return Decision(
                    name,
                    LOCK_WAIT,
                    edges={b for b in blockers if b in self.live},
                    entity=step.entity,
                    mode=mode,
                    subscribe=subscribe,
                    admission_checked=admission_checked,
                    blockers_queried=True,
                )
            # Runnable with a pending lock: watch the entity so a concurrent
            # acquire invalidates this classification.
            return Decision(
                name,
                RUNNABLE,
                entity=step.entity,
                watch=True,
                subscribe=subscribe,
                admission_checked=admission_checked,
                blockers_queried=True,
            )
        return Decision(
            name,
            RUNNABLE,
            subscribe=subscribe,
            admission_checked=admission_checked,
        )

    def apply(
        self,
        entry: LiveEntry,
        decision: Decision,
        aborts: List[Tuple[LiveEntry, str]],
    ) -> None:
        """Install a derived decision — the mutating half of a
        classification, replaying the legacy interleaved sequence's
        mutation order exactly (lazy accounting, clear, counters,
        re-subscription, then the per-kind transition).  Coordinator
        thread only; the executor calls it at the merge barrier in
        shard-index order."""
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
            entry.state = LOCK_WAIT
            entry.accrued_to = now
            assert decision.entity is not None and decision.mode is not None
            self.table.add_waiter(name, decision.entity, decision.mode)
            self.graph.set_edges(name, decision.edges or set())
            return
        if decision.watch:
            assert decision.entity is not None
            self.cache.watch(decision.entity, name)
            entry.watch_entity = decision.entity
        entry.state = RUNNABLE
        self.cache.runnable.add(name)

    def classify(
        self, entry: LiveEntry, aborts: List[Tuple[LiveEntry, str]]
    ) -> None:
        """Re-derive ``entry``'s scheduling state: one iteration of the
        naive Phase-2 loop, plus lazy accounting for the ticks skipped
        since the previous classification (during which the session
        necessarily sat in the same blocked state — nothing that could
        have changed it happened, or it would have been re-examined
        sooner).  Serial composition of :meth:`derive` and :meth:`apply`
        — the byte-identical reference sequence the parallel executor is
        equivalence-tested against."""
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

    def extend_lock_edges(self, holder: str, entity: Entity) -> None:
        """``holder`` just acquired a grant on ``entity``: a fresh grant
        cannot unblock a queued waiter, only extend its blocker set, so the
        new edge is added in place — the acquire-side twin of
        :meth:`refresh_lock_edges` (re-classifying every waiter here was
        O(waiters) full classifications per acquire on a hot entity)."""
        effective = self.table.mode_held(holder, entity)
        assert effective is not None
        for waiter, wanted in self.table.waiter_modes(entity):
            if waiter == holder or waiter in self.cache.dirty:
                continue  # dirty waiters are fully re-classified anyway
            entry = self.live.get(waiter)
            if entry is None or entry.state != LOCK_WAIT:
                continue
            if wanted.conflicts_with(effective):
                self.graph.add_edge_if_tracked(waiter, holder)
