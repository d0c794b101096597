"""The waits-for graph layer of the scheduler kernel.

:class:`WaitsForGraph` owns both sides of the waits-for relation — the
forward edges (``waits_for``: blocked session → the sessions it waits on)
and the reverse index (``blocked_by``: blocker → the waiters with an edge
to it) — and keeps them exactly in sync through every edge update, so the
event engine can prune a departing blocker's inbound edges eagerly and run
cycle detection directly on the maintained graph instead of rebuilding it
from the lock table every tick.

A lock event can move a whole herd of waiters at once — a release wakes
an entity's queue, the next grant re-blocks it — so every edge update
also comes as one call for the whole herd (:meth:`~WaitsForGraph.set_new_edges`,
:meth:`~WaitsForGraph.set_edges_many`,
:meth:`~WaitsForGraph.add_edges_if_tracked`,
:meth:`~WaitsForGraph.drop_edges_many`): the same per-member edge changes,
without a method call per member.  :meth:`~WaitsForGraph.set_new_edges`
relies on the invariant that only a blocked session has a
:attr:`~WaitsForGraph.waits_for` entry, so a session entering LOCK_WAIT
from RUNNABLE has no old edges to diff against.  The single-member
methods keep bodies of their own rather than calling a batch of one:
every classification calls them, and that wrapping measurably slowed
the policy workloads, whose herds never move in place.

Detection is the reference detector itself:
:func:`repro.sim.deadlock.find_cycle_counted` (sorted roots, sorted
neighbours, first back edge) walked over :attr:`WaitsForGraph.waits_for`.
What the event engine saves over the naive one is the per-tick rebuild,
not the walk, so its cycles, victims and visit counts equal the naive
engine's on the same seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .deadlock import find_cycle_counted


class WaitsForGraph:
    """Incrementally maintained waits-for graph (see the module
    docstring)."""

    def __init__(self) -> None:
        #: Forward edges: blocked session -> the sessions it waits on.
        self.waits_for: Dict[str, Set[str]] = {}
        #: Reverse index: blocker -> waiters with an edge to it; kept
        #: exactly in sync with :attr:`waits_for`.
        self.blocked_by: Dict[str, Set[str]] = {}
        #: DFS pushes of the most recent :meth:`find_cycle` call (the
        #: scheduler accrues these into ``Metrics.cycle_visits``).
        self.last_visits: int = 0

    # ------------------------------------------------------------------
    # Edge maintenance
    # ------------------------------------------------------------------

    def set_edges(self, name: str, blockers: Set[str]) -> None:
        """Point ``name``'s outgoing edges at ``blockers``, keeping the
        reverse index in sync."""
        old = self.waits_for.get(name)
        self.waits_for[name] = blockers
        added = blockers
        if old:
            for b in old - blockers:  # independent per-edge removals from the reverse index
                self._drop_reverse(b, name)
            added = blockers - old
        for b in added:  # independent per-edge inserts into the reverse index
            self.blocked_by.setdefault(b, set()).add(name)

    def add_edge_if_tracked(self, waiter: str, blocker: str) -> None:
        """Add ``waiter -> blocker`` only if ``waiter`` already has a
        tracked edge set (the acquire-side in-place extension: a fresh
        grant can only extend a queued waiter's blocker set)."""
        edges = self.waits_for.get(waiter)
        if edges is not None and blocker not in edges:
            edges.add(blocker)
            self.blocked_by.setdefault(blocker, set()).add(waiter)

    def drop_edges(self, name: str) -> None:
        """Remove ``name``'s outgoing edges (and their reverse entries)."""
        old = self.waits_for.pop(name, None)
        if old is not None:
            for b in old:  # independent per-edge removals from the reverse index
                self._drop_reverse(b, name)

    # ------------------------------------------------------------------
    # Herd moves: one call per lock event, whatever the herd size
    # ------------------------------------------------------------------

    def set_edges_many(self, pairs: Iterable[Tuple[str, Set[str]]]) -> None:
        """:meth:`set_edges` for each ``(name, blockers)`` pair."""
        waits_for = self.waits_for
        blocked_by = self.blocked_by
        for name, blockers in pairs:
            old = waits_for.get(name)
            waits_for[name] = blockers
            added = blockers
            if old:
                for b in old - blockers:  # independent per-edge removals from the reverse index
                    self._drop_reverse(b, name)
                added = blockers - old
            for b in added:  # independent per-edge inserts into the reverse index
                blocked_by.setdefault(b, set()).add(name)

    def set_new_edges(self, pairs: Iterable[Tuple[str, Set[str]]]) -> None:
        """:meth:`set_edges_many` for names with no edge set yet — sessions
        entering LOCK_WAIT from RUNNABLE: only a blocked session has a
        :attr:`waits_for` entry, so there are no old edges to diff
        against.  The caller keeps that invariant."""
        waits_for = self.waits_for
        blocked_by = self.blocked_by
        for name, blockers in pairs:
            waits_for[name] = blockers
            for b in blockers:  # independent per-edge inserts into the reverse index
                blocked_by.setdefault(b, set()).add(name)

    def add_edges_if_tracked(self, waiters: Iterable[str], blocker: str) -> None:
        """:meth:`add_edge_if_tracked` for each of ``waiters`` (a fresh
        grant by ``blocker`` extends the blocked herd's edge sets)."""
        waits_for = self.waits_for
        waiting: Optional[Set[str]] = None
        for w in waiters:
            edges = waits_for.get(w)
            if edges is not None and blocker not in edges:
                edges.add(blocker)
                if waiting is None:
                    waiting = self.blocked_by.setdefault(blocker, set())
                waiting.add(w)

    def drop_edges_many(self, names: Iterable[str]) -> None:
        """:meth:`drop_edges` for each of ``names``."""
        waits_for = self.waits_for
        blocked_by = self.blocked_by
        for name in names:
            old = waits_for.pop(name, None)
            if not old:
                continue
            for b in old:  # independent per-edge removals from the reverse index
                waiters = blocked_by.get(b)
                if waiters is not None:
                    waiters.discard(name)
                    if not waiters:
                        del blocked_by[b]

    def remove_inbound(self, name: str) -> Set[str]:
        """Eagerly prune every edge aimed *at* ``name`` (a departing
        blocker blocks nobody); returns the waiters that held such an
        edge."""
        waiters = self.blocked_by.pop(name, None)
        if not waiters:
            return set()
        for w in waiters:  # independent per-waiter edge drops; caller gets the full set
            edges = self.waits_for.get(w)
            if edges is not None:
                edges.discard(name)
        return waiters

    def forget(self, name: str) -> Set[str]:
        """Drop every trace of ``name``: outgoing and inbound edges (the
        service kernel's departure; the simulator's drops the leaver's
        own edges with its classification and calls
        :meth:`remove_inbound` alone).  Returns the waiters whose edge at
        ``name`` was pruned."""
        self.drop_edges(name)
        return self.remove_inbound(name)

    def _drop_reverse(self, blocker: str, waiter: str) -> None:
        waiters = self.blocked_by.get(blocker)
        if waiters is not None:
            waiters.discard(waiter)
            if not waiters:
                del self.blocked_by[blocker]

    # ------------------------------------------------------------------
    # Cycle detection
    # ------------------------------------------------------------------

    def closes_cycle(self, name: str) -> bool:
        """Whether ``name`` lies on a cycle: one forward reachability walk
        from its blockers that stops at the first path back to it.  The
        request-driven kernel asks this of a freshly parked waiter — in a
        graph that was acyclic before the block, every cycle passes
        through the new waiter — so the detector runs only when there is
        something to find."""
        graph = self.waits_for
        seen: Set[str] = set()
        work: List[str] = list(graph.get(name, ()))  # pure-reachability worklist; result is a boolean
        while work:
            n = work.pop()
            if n == name:
                return True
            if n not in seen:
                seen.add(n)
                work.extend(graph.get(n, ()))  # pure-reachability worklist; result is a boolean
        return False

    def find_cycle(self) -> Optional[List[str]]:
        """The reference detector on the maintained graph; records its
        visit count in :attr:`last_visits`."""
        cycle, self.last_visits = find_cycle_counted(self.waits_for)
        return cycle

    # ------------------------------------------------------------------
    # Introspection (tests / invariants)
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Set[str]]:
        """A copy of the forward edges (the oracle's input shape)."""
        return {n: set(bs) for n, bs in self.waits_for.items()}

    def check_consistency(self) -> None:
        """Assert the forward edges and reverse index mirror each other
        exactly (test helper)."""
        forward = {
            (w, b) for w, bs in self.waits_for.items() for b in bs
        }
        reverse = {
            (w, b) for b, ws in self.blocked_by.items() for w in ws
        }
        assert forward == reverse, (
            f"waits_for/blocked_by diverge: {forward ^ reverse}"
        )
        assert all(self.blocked_by.values()), "empty reverse buckets leaked"
