"""A small from-scratch directed graph.

The locking policies need a handful of graph operations — adjacency,
reachability, dominators, roots — over graphs that *change while
transactions run* (that is the whole point of the paper).  Rather than pull
in a general graph library for the production code path, this module
implements a minimal mutable digraph; the test-suite cross-checks the
algorithms against ``networkx``.

Nodes are arbitrary hashable values.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


class DiGraph:
    """A mutable directed graph with set-based adjacency."""

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        edges: Iterable[Edge] = (),
    ):
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        for n in nodes:
            self.add_node(n)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        """Add a node (idempotent)."""
        self._succ.setdefault(node, set())
        self._pred.setdefault(node, set())

    def remove_node(self, node: Node) -> None:
        """Remove a node and all incident edges.  Raises ``KeyError`` if the
        node is absent."""
        for v in list(self._succ[node]):  # repro: noqa[RPR001] set discards; order-insensitive
            self._pred[v].discard(node)
        for u in list(self._pred[node]):  # repro: noqa[RPR001] set discards; order-insensitive
            self._succ[u].discard(node)
        del self._succ[node]
        del self._pred[node]

    def add_edge(self, u: Node, v: Node) -> None:
        """Add edge ``u -> v``, adding missing endpoints (idempotent)."""
        self.add_node(u)
        self.add_node(v)
        self._succ[u].add(v)
        self._pred[v].add(u)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``u -> v``.  Raises ``KeyError`` when absent."""
        if v not in self._succ.get(u, ()):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        self._succ[u].discard(v)
        self._pred[v].discard(u)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def nodes(self) -> FrozenSet[Node]:
        return frozenset(self._succ)

    def edges(self) -> FrozenSet[Edge]:
        return frozenset((u, v) for u, vs in self._succ.items() for v in vs)

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._succ.get(u, ())

    def successors(self, node: Node) -> FrozenSet[Node]:
        return frozenset(self._succ[node])

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        return frozenset(self._pred[node])

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[node])

    def roots(self) -> FrozenSet[Node]:
        """Nodes with no predecessors."""
        return frozenset(n for n in self._succ if not self._pred[n])

    def leaves(self) -> FrozenSet[Node]:
        """Nodes with no successors."""
        return frozenset(n for n in self._succ if not self._succ[n])

    def copy(self) -> "DiGraph":
        g = DiGraph()
        for n in self._succ:
            g.add_node(n)
        for u, vs in self._succ.items():
            for v in vs:  # repro: noqa[RPR001] set adds into a fresh graph; order-insensitive
                g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable_from(self, source: Node) -> FrozenSet[Node]:
        """All nodes reachable from ``source`` (including itself)."""
        seen: Set[Node] = {source}
        frontier: List[Node] = [source]
        while frontier:
            node = frontier.pop()
            for nxt in self._succ[node]:  # repro: noqa[RPR001] builds the reachable set; only the frozenset escapes
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def reaching(self, target: Node) -> FrozenSet[Node]:
        """All nodes from which ``target`` is reachable (including itself)."""
        seen: Set[Node] = {target}
        frontier: List[Node] = [target]
        while frontier:
            node = frontier.pop()
            for prv in self._pred[node]:  # repro: noqa[RPR001] builds the reaching set; only the frozenset escapes
                if prv not in seen:
                    seen.add(prv)
                    frontier.append(prv)
        return frozenset(seen)

    def has_path(self, source: Node, target: Node) -> bool:
        """Is there a (possibly empty) directed path ``source -> target``?"""
        if source not in self._succ or target not in self._succ:
            return False
        return target in self.reachable_from(source)

    def is_acyclic(self) -> bool:
        """Cycle test by iterative DFS colouring."""
        color: Dict[Node, int] = {n: 0 for n in self._succ}
        for root in self._succ:
            if color[root] != 0:
                continue
            stack: List[Tuple[Node, Iterator[Node]]] = [(root, iter(self._succ[root]))]  # repro: noqa[RPR001] DFS colouring; only the acyclic bool escapes
            color[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(self._succ[nxt])))  # repro: noqa[RPR001] DFS colouring; only the acyclic bool escapes
                        advanced = True
                        break
                    if color[nxt] == 1:
                        return False
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return True

    def topological_order(self) -> List[Node]:
        """Kahn's algorithm; deterministic via repr-ordering.  Raises
        ``ValueError`` on cyclic graphs."""
        indeg = {n: len(self._pred[n]) for n in self._succ}
        ready = sorted((n for n, d in indeg.items() if d == 0), key=repr)
        order: List[Node] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in sorted(self._succ[node], key=repr):
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
            ready.sort(key=repr)
        if len(order) != len(self._succ):
            raise ValueError("graph has a cycle")
        return order

    def __str__(self) -> str:
        parts = [f"{u}->{v}" for u, v in sorted(self.edges(), key=repr)]
        iso = sorted(
            (n for n in self._succ if not self._succ[n] and not self._pred[n]),
            key=repr,
        )
        parts.extend(str(n) for n in iso)
        return "DiGraph{" + ", ".join(parts) + "}"
