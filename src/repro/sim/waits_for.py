"""The waits-for graph layer of the scheduler kernel.

:class:`WaitsForGraph` owns both sides of the waits-for relation — the
forward edges (``waits_for``: blocked session → the sessions it waits on)
and the reverse index (``blocked_by``: blocker → the waiters with an edge
to it) — and keeps them exactly in sync through every edge update, so the
event engine can prune a departing blocker's inbound edges eagerly and run
cycle detection directly on the maintained graph.

Cycle detection is **incremental**: it must return bit-identical results
to the from-scratch reference detector
(:func:`repro.sim.deadlock.find_cycle` — sorted roots, sorted neighbours,
first back edge) while not re-walking the whole graph on every
no-runnable tick, and it layers two caches across calls to get there:

**Acyclicity certificates** (the colour state that survives).  A node
blackened by a detection's DFS is *clean*: no cycle is reachable from it
in the graph the DFS saw (three-colour invariant — a node is blackened
only after every path out of it terminated without a back edge).  Edge
*removals* can never invalidate a certificate (they only shrink
reachability); edge *additions* are the only invalidator, so every node
that gains an outgoing edge is recorded as a dirty source and the next
detection first un-certifies exactly the nodes that can currently reach
one (one reverse BFS over ``blocked_by`` — any path using a new edge has
a prefix reaching that edge's source).  The DFS then treats clean nodes
as already blackened, which can never change the first back edge met: a
certified node's subtree cannot reach a grey ancestor, or the certificate
would be false.

**The cached walk** (the SCC-frontier chain that survives).  On the
deadlock path every live session is blocked, so the graph is *sink-free*
and the reference DFS never completes a node: it simply follows each
node's first sorted neighbour from the first sorted root until it meets a
grey node — a single chain ending at the first cycle.  Certificates never
get issued in that regime (nothing is ever blackened), so the incremental
win comes from caching that chain: each detection records its walk, edge
updates *cut* the walk at the first node whose out-edges changed (or
clear it when a new key sorts before its root), and the next detection
replays the untouched prefix for free and resumes the chain from there.
A resumed step that meets a sink or a clean node falls back to the full
reference DFS (those are exactly the graphs where the chain shortcut is
not the reference behaviour), so the output stays bit-identical in every
case.  ``last_visits`` counts the nodes actually pushed per detection —
the figure the deadlock bench compares against the from-scratch walk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .deadlock import cycle_from_parents


class WaitsForGraph:
    """Incrementally maintained waits-for graph with incremental cycle
    detection (see the module docstring)."""

    def __init__(self) -> None:
        #: Forward edges: blocked session -> the sessions it waits on.
        self.waits_for: Dict[str, Set[str]] = {}
        #: Reverse index: blocker -> waiters with an edge to it; kept
        #: exactly in sync with :attr:`waits_for`.
        self.blocked_by: Dict[str, Set[str]] = {}
        #: Nodes holding a valid acyclicity certificate.
        self._clean: Set[str] = set()
        #: Nodes that gained an outgoing edge since the last detection.
        self._dirty: Set[str] = set()
        #: The previous detection's DFS chain (recorded only when it was a
        #: pure single-root chain that met a cycle without consulting
        #: certificates), its node -> position index, and the length of
        #: the prefix no edge update has touched since.
        self._walk: List[str] = []
        self._walk_index: Dict[str, int] = {}
        self._walk_valid: int = 0
        #: DFS pushes of the most recent :meth:`find_cycle` call (the
        #: scheduler accrues these into ``Metrics.cycle_visits``).
        self.last_visits: int = 0

    # ------------------------------------------------------------------
    # Edge maintenance
    # ------------------------------------------------------------------

    def _cut_step(self, name, edges, new_key: bool = False) -> None:
        """``name``'s out-edge set changed (to ``edges``): cut the cached
        walk at its position — *unless the recorded step survives*.  A
        walk position is valid iff its recorded successor is still the
        node's first sorted neighbour, so an update that leaves
        ``min(edges)`` equal to the recorded next step (a deadlock
        victim's abort pruning a cycle member's *other* edges, a fresh
        grant extending a blocker set with a later-sorting name) keeps the
        prefix replayable and costs nothing.  The cut therefore lands at
        the victim's own cycle position instead of the earliest touched
        cycle member, which is what lets detection resume across victim
        aborts (measured by ``cycle_visits``/``cycle_detections`` under
        the deadlock-storm bench).  Cuts compose to a position minimum in
        any order, so batched-apply order never changes the surviving
        prefix.  The walk is cleared entirely when a brand-new key sorts
        before its root (the reference DFS would start there instead) —
        checked even when a stale entry for ``name`` lingers in the
        already-cut suffix of the index."""
        if not self._walk:
            return
        i = self._walk_index.get(name)
        if i is not None and i < self._walk_valid:
            if (
                i + 1 < len(self._walk)
                and edges
                and min(edges) == self._walk[i + 1]
            ):
                return  # recorded step still the first sorted neighbour
            self._walk_valid = i
            return
        if new_key and name < self._walk[0]:
            self._walk_valid = 0

    def set_edges(self, name: str, blockers: Set[str]) -> None:
        """Point ``name``'s outgoing edges at ``blockers``, keeping the
        reverse index in sync, flagging ``name`` dirty if it gained any
        edge, and cutting the cached walk if the set changed."""
        old = self.waits_for.get(name)
        self.waits_for[name] = blockers
        if old:
            for b in old - blockers:  # repro: noqa[RPR001] independent per-edge removals from the reverse index
                self._drop_reverse(b, name)
            added = blockers - old
            if old != blockers:
                self._cut_step(name, blockers)
        else:
            added = blockers
            self._cut_step(name, blockers, new_key=old is None)
        for b in added:  # repro: noqa[RPR001] independent per-edge inserts into the reverse index
            self.blocked_by.setdefault(b, set()).add(name)
        if added:
            self._dirty.add(name)

    def add_edge_if_tracked(self, waiter: str, blocker: str) -> None:
        """Add ``waiter -> blocker`` only if ``waiter`` already has a
        tracked edge set (the acquire-side in-place extension: a fresh
        grant can only extend a queued waiter's blocker set)."""
        edges = self.waits_for.get(waiter)
        if edges is not None and blocker not in edges:
            edges.add(blocker)
            self.blocked_by.setdefault(blocker, set()).add(waiter)
            self._dirty.add(waiter)
            self._cut_step(waiter, edges)

    def drop_edges(self, name: str) -> None:
        """Remove ``name``'s outgoing edges (and their reverse entries).
        Pure removal — certificates survive."""
        old = self.waits_for.pop(name, None)
        if old is not None:
            for b in old:  # repro: noqa[RPR001] independent per-edge removals from the reverse index
                self._drop_reverse(b, name)
            self._cut_step(name, ())

    def remove_inbound(self, name: str) -> Set[str]:
        """Eagerly prune every edge aimed *at* ``name`` (a departing
        blocker blocks nobody); returns the waiters that held such an edge
        so the caller can catch up their accounting."""
        waiters = self.blocked_by.pop(name, None)
        if not waiters:
            return set()
        for w in waiters:  # repro: noqa[RPR001] independent per-waiter edge drops; caller gets the full set
            edges = self.waits_for.get(w)
            if edges is not None and name in edges:
                edges.discard(name)
                self._cut_step(w, edges)
        return waiters

    def forget(self, name: str) -> Set[str]:
        """Drop every trace of ``name`` (departure/restart): outgoing
        edges, inbound edges, certificate, dirtiness.  Returns the waiters
        whose edge at ``name`` was pruned."""
        self.drop_edges(name)
        self._clean.discard(name)
        self._dirty.discard(name)
        return self.remove_inbound(name)

    def _drop_reverse(self, blocker: str, waiter: str) -> None:
        waiters = self.blocked_by.get(blocker)
        if waiters is not None:
            waiters.discard(waiter)
            if not waiters:
                del self.blocked_by[blocker]

    # ------------------------------------------------------------------
    # Incremental cycle detection
    # ------------------------------------------------------------------

    def _flush_invalidations(self) -> None:
        """Un-certify every node that can currently reach a dirty source:
        only those can traverse an edge added since their certificates
        were issued.  Shrinking ``_clean`` cannot invalidate the cached
        walk (it was recorded without consulting certificates)."""
        if not self._dirty:
            return
        if self._clean:
            seen: Set[str] = set()
            work: List[str] = list(self._dirty)  # repro: noqa[RPR001] pure-reachability worklist; result is a set difference
            while work:
                n = work.pop()
                if n in seen:
                    continue
                seen.add(n)
                work.extend(self.blocked_by.get(n, ()))  # repro: noqa[RPR001] pure-reachability worklist; result is a set difference
            self._clean -= seen
        self._dirty.clear()

    def _clear_walk(self) -> None:
        self._walk = []
        self._walk_index = {}
        self._walk_valid = 0

    def _record_walk(self, chain: List[str], index: Dict[str, int]) -> None:
        self._walk = chain
        self._walk_index = index
        self._walk_valid = len(chain)

    def _chain_resume(self) -> Optional[List[str]]:
        """Replay the untouched prefix of the cached walk for free and
        continue the first-sorted-neighbour chain from its end.  Returns
        the cycle (bit-identical to the reference DFS, which would walk
        the same chain), or ``None`` to fall back to the full DFS when
        the chain meets a sink or a certified node — the cases where the
        reference DFS would backtrack or skip instead of descending.

        The stored walk is truncated and extended in place, so a resumed
        detection costs O(dropped suffix + new steps), not O(prefix);
        ``last_visits`` records the pushes either way (a failed resume's
        pushes are counted on top of the fallback's)."""
        graph = self.waits_for
        walk = self._walk
        index = self._walk_index
        if self._walk_valid < len(walk):
            for n in walk[self._walk_valid:]:
                del index[n]
            del walk[self._walk_valid:]
        visits = 0
        cur = walk[-1]
        while True:
            nbrs = graph.get(cur)
            if not nbrs:
                self.last_visits = visits
                return None  # sink: the reference DFS would backtrack
            nxt = min(nbrs)
            if nxt in self._clean:
                self.last_visits = visits
                return None  # certificate skip: not a pure chain step
            j = index.get(nxt)
            if j is not None:
                # Back edge into the chain: the cycle, oriented exactly as
                # cycle_from_parents reconstructs it (cur back to nxt).
                self._walk_valid = len(walk)
                self.last_visits = visits
                return list(reversed(walk[j:]))
            walk.append(nxt)
            index[nxt] = len(walk) - 1
            visits += 1
            cur = nxt

    def _full_dfs(self) -> Optional[List[str]]:
        """The reference three-colour DFS with certificate skips.  Records
        the walk for the next detection when the run was a pure chain
        (single root, no backtracking, no certificate consulted — the
        sink-free deadlock-path shape); blackened nodes earn certificates
        either way."""
        graph = self.waits_for
        clean = self._clean
        visits = 0
        pure = True
        color: Dict[str, int] = {}
        parent: Dict[str, Optional[str]] = {}
        order: List[str] = []
        cycle: Optional[List[str]] = None
        for root in sorted(graph):
            if root in clean:
                pure = False  # the reference would explore this root
                continue
            if color.get(root, 0) != 0:
                continue
            parent[root] = None
            color[root] = 1
            visits += 1
            order.append(root)
            stack = [(root, iter(sorted(graph.get(root, ()))))]
            while stack and cycle is None:
                node, neighbours = stack[-1]
                descended = False
                for nxt in neighbours:
                    if nxt in clean:
                        pure = False
                        continue  # certified acyclic: exploring it would
                        # blacken its subtree and find nothing
                    c = color.get(nxt, 0)
                    if c == 0:
                        parent[nxt] = node
                        color[nxt] = 1
                        visits += 1
                        order.append(nxt)
                        stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                        descended = True
                        break
                    if c == 1:
                        cycle = cycle_from_parents(parent, node, nxt)
                        break
                    # c == 2: blackened this run; pure is already False
                    # (a pop happened before any node could turn black).
                if cycle is not None:
                    break
                if not descended:
                    color[node] = 2
                    stack.pop()
                    pure = False
                    # Blackened with every path out explored: a sound
                    # certificate even if a later root finds a cycle.
                    clean.add(node)
            if cycle is not None:
                break
        if cycle is not None and pure:
            # No pops and no skips: the push order *is* the chain.
            self._record_walk(order, {n: i for i, n in enumerate(order)})
        else:
            self._clear_walk()
        self.last_visits = visits
        return cycle

    def closes_cycle(self, name: str) -> bool:
        """Whether ``name`` lies on a cycle: one forward reachability walk
        from its blockers that stops at the first path back to it.  The
        request-driven kernel asks this of a freshly parked waiter — in a
        graph that was acyclic before the block, every cycle passes
        through the new waiter — so the detector runs only when there is
        something to find.  Read-only: no certificate, no cached walk."""
        graph = self.waits_for
        seen: Set[str] = set()
        work: List[str] = list(graph.get(name, ()))  # repro: noqa[RPR001] pure-reachability worklist; result is a boolean
        while work:
            n = work.pop()
            if n == name:
                return True
            if n not in seen:
                seen.add(n)
                work.extend(graph.get(n, ()))  # repro: noqa[RPR001] pure-reachability worklist; result is a boolean
        return False

    def find_cycle(self) -> Optional[List[str]]:
        """Incremental detection: bit-identical to
        :func:`repro.sim.deadlock.find_cycle` on :attr:`waits_for`."""
        self._flush_invalidations()
        if not self.waits_for:
            self._clear_walk()
            self.last_visits = 0
            return None
        spilled = 0
        if self._walk and self._walk_valid > 0:
            cycle = self._chain_resume()
            if cycle is not None:
                return cycle
            spilled = self.last_visits  # a failed resume's pushes count too
        cycle = self._full_dfs()
        self.last_visits += spilled
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

    def clean_nodes(self) -> Set[str]:
        """The certified-acyclic set (test helper)."""
        return set(self._clean)
