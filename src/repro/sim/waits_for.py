"""The waits-for graph layer of the scheduler kernel.

:class:`WaitsForGraph` stores waits-for edges — the forward edges
(``waits_for``: blocked session → the sessions it waits on) and the
reverse index (``blocked_by``: blocker → the waiters with an edge to it)
— and keeps both sides exactly in sync through every edge update, so a
departing blocker's inbound edges are pruned eagerly.

The two kernels store different edges in it:

* the service kernel (:class:`repro.kernel.core.LockKernel`) stores every
  parked waiter's edges, since it asks :meth:`~WaitsForGraph.closes_cycle`
  on every block;
* the simulator stores POLICY_WAIT edges only, since the lock table
  cannot recompute a policy's ``waiting_on``.  A LOCK_WAIT session's edges
  are the live holders that conflict with its queued request, which the
  lock table records anyway, so they are read from the table when a cycle
  is searched (:class:`repro.sim.admission.DetectionView`) and a lock
  event moves its herd of waiters without touching this graph.

Detection is the reference detector itself:
:func:`repro.sim.deadlock.find_cycle_counted` (sorted roots, sorted
neighbours, first back edge), walked over :attr:`WaitsForGraph.waits_for`
or over the mapping handed to :meth:`~WaitsForGraph.find_cycle`.  What the
event engine saves over the naive one is the per-tick rebuild, not the
walk, so its cycles, victims and visit counts equal the naive engine's on
the same seed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

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

    def find_cycle(
        self, graph: Optional[Mapping[str, Set[str]]] = None
    ) -> Optional[List[str]]:
        """The reference detector on ``graph`` — the stored edges when it
        is ``None`` — recording its visit count in :attr:`last_visits`."""
        cycle, self.last_visits = find_cycle_counted(
            self.waits_for if graph is None else graph
        )
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
