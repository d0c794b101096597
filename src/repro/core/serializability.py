"""Conflict serializability and the serializability graph ``D(S)``.

Per the paper (Section 2): the serializability graph ``D(S)`` of a schedule
``S`` has a node for each transaction and an edge ``(T_i, T_j)`` if a step of
``T_i`` precedes, in ``S``, a conflicting step of ``T_j``.  ``S`` is
(conflict) serializable iff ``D(S)`` is acyclic [EGLT76].

This module builds ``D(S)``, tests acyclicity, extracts serialization orders
(topological sorts), identifies the *sources* and *sinks* that Theorem 1
reasons about, and — for cross-validation in tests — decides serializability
by the definitional route as well: existence of a serial schedule ordering
all conflicting pairs the same way.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    DefaultDict,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .operations import NON_CONFLICTING
from .schedules import Event, Schedule
from .steps import Entity


@dataclass(frozen=True)
class SerializabilityGraph:
    """The conflict graph ``D(S)``: nodes are transaction names; edges record
    which transaction's conflicting step came first.

    ``edge_witnesses`` retains, for each edge, one pair of conflicting events
    proving it — invaluable when explaining nonserializability witnesses.
    """

    nodes: FrozenSet[str]
    edges: FrozenSet[Tuple[str, str]]
    edge_witnesses: Tuple[Tuple[Tuple[str, str], Tuple[Event, Event]], ...] = field(
        default=(), compare=False
    )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def successors(self, node: str) -> FrozenSet[str]:
        return frozenset(b for a, b in self.edges if a == node)

    def predecessors(self, node: str) -> FrozenSet[str]:
        return frozenset(a for a, b in self.edges if b == node)

    def sources(self) -> FrozenSet[str]:
        """Nodes with no incoming edges."""
        targets = {b for _, b in self.edges}
        return frozenset(n for n in self.nodes if n not in targets)

    def sinks(self) -> FrozenSet[str]:
        """Nodes with no outgoing edges — the transactions Theorem 1's
        condition (2a) constrains."""
        origins = {a for a, _ in self.edges}
        return frozenset(n for n in self.nodes if n not in origins)

    def witness_for(self, edge: Tuple[str, str]) -> Optional[Tuple[Event, Event]]:
        """One conflicting event pair realising ``edge``, if recorded."""
        for e, w in self.edge_witnesses:
            if e == edge:
                return w
        return None

    # ------------------------------------------------------------------
    # Acyclicity / orders
    # ------------------------------------------------------------------

    def is_acyclic(self) -> bool:
        return self.find_cycle() is None

    def find_cycle(self) -> Optional[List[str]]:
        """Return some cycle as a node list ``[a, b, …, a]``, or None."""
        color: Dict[str, int] = {n: 0 for n in self.nodes}  # 0 white 1 grey 2 black
        parent: Dict[str, Optional[str]] = {}
        succ: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for a, b in sorted(self.edges, key=repr):
            succ[a].append(b)

        for root in sorted(self.nodes, key=repr):
            if color[root] != 0:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [(root, iter(succ[root]))]
            color[root] = 1
            parent[root] = None
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 0:
                        color[nxt] = 1
                        parent[nxt] = node
                        stack.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                    if color[nxt] == 1:
                        # Found a back edge node -> nxt; reconstruct cycle.
                        cycle = [node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]  # type: ignore[assignment]
                            cycle.append(cur)
                        cycle.reverse()
                        cycle.append(cycle[0])
                        return cycle
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return None

    def topological_sort(self) -> List[str]:
        """One topological order of the nodes (deterministic: ties broken by
        repr).  Raises ``ValueError`` if the graph is cyclic."""
        indeg: Dict[str, int] = {n: 0 for n in self.nodes}
        succ: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            indeg[b] += 1
            succ[a].append(b)
        ready = sorted((n for n, d in indeg.items() if d == 0), key=repr)
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in sorted(succ[node], key=repr):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
            ready.sort(key=repr)
        if len(order) != len(self.nodes):
            raise ValueError("graph is cyclic; no topological order exists")
        return order

    def all_topological_sorts(self, limit: int = 10_000) -> List[List[str]]:
        """All topological orders (up to ``limit``), for exhaustive tests."""
        indeg: Dict[str, int] = {n: 0 for n in self.nodes}
        succ: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            indeg[b] += 1
            succ[a].append(b)
        out: List[List[str]] = []
        order: List[str] = []

        def backtrack() -> bool:
            if len(out) >= limit:
                return False
            if len(order) == len(self.nodes):
                out.append(list(order))
                return True
            for n in sorted(self.nodes, key=repr):
                if indeg[n] == 0 and n not in order:
                    order.append(n)
                    for nxt in succ[n]:
                        indeg[nxt] -= 1
                    if not backtrack():
                        return False
                    for nxt in succ[n]:
                        indeg[nxt] += 1
                    order.pop()
            return True

        backtrack()
        return out

    def __str__(self) -> str:
        parts = [f"{a}->{b}" for a, b in sorted(self.edges, key=repr)]
        lonely = sorted(self.nodes - {x for e in self.edges for x in e}, key=repr)
        parts.extend(str(n) for n in lonely)
        return "D(S){" + ", ".join(parts) + "}"


def serializability_graph(schedule: Schedule) -> SerializabilityGraph:
    """Build ``D(S)`` for a schedule, with one witness pair per edge.

    Only transactions that have executed at least one step in ``S`` appear as
    nodes (a transaction the schedule never touches cannot constrain the
    serialization order).
    """
    events = schedule.events
    nodes = frozenset(schedule.active_transactions())
    edges: Set[Tuple[str, str]] = set()
    witnesses: List[Tuple[Tuple[str, str], Tuple[Event, Event]]] = []
    # Group events per entity to avoid the full quadratic sweep over events
    # of unrelated entities.
    by_entity: Dict[object, List[Event]] = {}
    for e in events:
        by_entity.setdefault(e.step.entity, []).append(e)
    for entity_events in by_entity.values():
        n = len(entity_events)
        for i in range(n):
            first = entity_events[i]
            for j in range(i + 1, n):
                second = entity_events[j]
                if first.conflicts_with(second):
                    edge = (first.txn, second.txn)
                    if edge not in edges:
                        edges.add(edge)
                        witnesses.append((edge, (first, second)))
    return SerializabilityGraph(nodes, frozenset(edges), tuple(witnesses))


def is_serializable(schedule: Schedule) -> bool:
    """Conflict serializability via acyclicity of ``D(S)`` [EGLT76], decided
    on the reduced conflict graph: one pass over the events, then Kahn's
    algorithm.  :func:`serializability_graph` remains the way to get the
    full edge set, witnesses, and a cycle explaining a ``False``."""
    return _is_acyclic(_reduced_conflict_graph(schedule))


def _reduced_conflict_graph(schedule: Schedule) -> Dict[str, Set[str]]:
    """Successor sets of a subgraph of ``D(S)`` with the same reachability.

    Per entity only two things are remembered: the transaction of the last
    step outside ``{R, LS, US}`` (the "writer") and the transactions with
    steps inside it since (the "readers").  A reader step adds
    ``writer -> txn``; a writer step adds ``reader -> txn`` for each reader
    since, plus ``writer -> txn``, and starts a new epoch.  Every edge added
    joins two conflicting steps in schedule order, so it is an edge of
    ``D(S)``; every edge of ``D(S)`` is a path here (an earlier writer
    reaches any later step along the chain of writers between them; an
    earlier reader reaches the next writer directly and continues along
    that chain).  Same reachability, hence the same cycles-or-none, at a
    cost linear in the log instead of quadratic in each entity's history.
    """
    succ: DefaultDict[str, Set[str]] = defaultdict(set)
    last_writer: Dict[Entity, str] = {}
    readers_since: DefaultDict[Entity, Set[str]] = defaultdict(set)
    for e in schedule.events:
        txn = e.txn
        entity = e.step.entity
        writer = last_writer.get(entity)
        if writer is not None and writer != txn:
            succ[writer].add(txn)
        if e.step.op in NON_CONFLICTING:
            readers_since[entity].add(txn)
        else:
            for reader in readers_since.pop(entity, ()):
                if reader != txn:
                    succ[reader].add(txn)
            last_writer[entity] = txn
    return succ


def _is_acyclic(succ: Mapping[str, Set[str]]) -> bool:
    """Kahn's algorithm: a digraph is acyclic iff repeatedly removing nodes
    of in-degree zero removes every node."""
    indegree: Dict[str, int] = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for node in targets:
            indegree[node] = indegree.get(node, 0) + 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    removed = 0
    while ready:
        removed += 1
        for node in succ.get(ready.pop(), ()):
            indegree[node] -= 1
            if indegree[node] == 0:
                ready.append(node)
    return removed == len(indegree)


def serialization_order(schedule: Schedule) -> List[str]:
    """A serialization order (topological sort of ``D(S)``).  Raises
    ``ValueError`` when the schedule is not serializable."""
    return serializability_graph(schedule).topological_sort()


def equivalent_serial_schedule(schedule: Schedule) -> Schedule:
    """A serial schedule conflict-equivalent to ``schedule``.

    Only meaningful for complete schedules; partial schedules are serialized
    as serial executions of the executed prefixes.
    """
    order = serialization_order(schedule)
    prefixes = [schedule.projection(name) for name in order]
    inactive = [
        t for n, t in schedule.transactions.items()
        if n not in set(order)
    ]
    return Schedule.serial_prefixes(
        list(schedule.transactions.values()),
        {p.name: len(p.steps) for p in prefixes}
        | {t.name: 0 for t in inactive},
        order,
    )


def conflict_equivalent(s1: Schedule, s2: Schedule) -> bool:
    """Definitional conflict equivalence: same events, and every conflicting
    pair ordered identically.  Used to cross-validate the graph-based test."""
    if sorted(s1.events, key=repr) != sorted(s2.events, key=repr):
        return False
    pos1 = {e: i for i, e in enumerate(s1.events)}
    pos2 = {e: i for i, e in enumerate(s2.events)}
    events = list(s1.events)
    for i, a in enumerate(events):
        for b in events[i + 1 :]:
            if a.conflicts_with(b):
                if (pos1[a] < pos1[b]) != (pos2[a] < pos2[b]):
                    return False
    return True


def is_serializable_by_definition(schedule: Schedule, limit: int = 50_000) -> bool:
    """Decide serializability by the definition: search serial schedules of
    the same (executed) transaction prefixes for one that is conflict
    equivalent.  Exponential — only for cross-checks on small schedules."""
    import itertools

    active = schedule.active_transactions()
    count = 0
    for perm in itertools.permutations(active):
        count += 1
        if count > limit:
            raise ValueError("permutation limit exceeded")
        serial = Schedule.serial_prefixes(
            list(schedule.transactions.values()),
            {n: schedule.progress()[n] for n in schedule.transactions},
            list(perm),
        )
        if conflict_equivalent(schedule, serial):
            return True
    return False
