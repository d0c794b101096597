"""Rooted DAGs — the database graphs of the DDAG policy (Section 4).

The DDAG policy assumes "a rooted DAG representation G of the database": a
directed acyclic graph with a unique root from which every node is
reachable.  Transactions insert and delete nodes and edges, and the policy's
rules (L1–L5) constantly consult the *present* state of the graph, so this
class supports cheap snapshots and structural edits with validation hooks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from .digraph import DiGraph, Edge, Node
from .dominators import dominates, dominator_sets


class RootedDag:
    """A mutable rooted directed acyclic graph.

    ``strict`` controls whether mutations enforce the rooted-DAG invariants
    eagerly (raise on violation) or lazily (callers may batch edits and call
    :meth:`check_invariants` themselves, which is how transactions that
    restructure the graph mid-flight are modelled).
    """

    def __init__(
        self,
        root: Node,
        edges: Iterable[Edge] = (),
        extra_nodes: Iterable[Node] = (),
        strict: bool = True,
    ):
        self.graph = DiGraph()
        self.root = root
        self.graph.add_node(root)
        self.strict = False
        for u, v in edges:
            self.graph.add_edge(u, v)
        for n in extra_nodes:
            self.graph.add_node(n)
        self.strict = strict
        if strict:
            self.check_invariants()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def invariant_violation(self) -> Optional[str]:
        """Describe the first violated rooted-DAG invariant, or None."""
        if self.root not in self.graph:
            return f"root {self.root!r} is not in the graph"
        if not self.graph.is_acyclic():
            return "graph has a cycle"
        roots = self.graph.roots()
        if roots != {self.root}:
            extra = sorted(roots - {self.root}, key=repr)
            if extra:
                return f"nodes without predecessors besides the root: {extra}"
        unreachable = self.graph.nodes() - self.graph.reachable_from(self.root)
        if unreachable:
            return f"nodes unreachable from the root: {sorted(unreachable, key=repr)}"
        return None

    def check_invariants(self) -> None:
        violation = self.invariant_violation()
        if violation is not None:
            raise ValueError(f"rooted-DAG invariant violated: {violation}")

    # ------------------------------------------------------------------
    # Structure edits (the I/D operations of DDAG transactions)
    # ------------------------------------------------------------------

    def insert_node(self, node: Node, parents: Iterable[Node] = ()) -> None:
        """Insert a fresh node, optionally wired under existing parents.

        A parentless insert is only valid while ``strict`` is off (the node
        is unreachable until an edge is added); DDAG transactions lock the
        node (rule L2) and then attach it with edge inserts.
        """
        if node in self.graph:
            raise ValueError(f"node {node!r} already exists")
        self.graph.add_node(node)
        for p in parents:
            self.graph.add_edge(p, node)
        if self.strict:
            self.check_invariants()

    def delete_node(self, node: Node) -> None:
        """Delete a node (and its incident edges)."""
        if node == self.root:
            raise ValueError("cannot delete the root")
        if node not in self.graph:
            raise KeyError(f"node {node!r} not in graph")
        self.graph.remove_node(node)
        if self.strict:
            self.check_invariants()

    def insert_edge(self, u: Node, v: Node) -> None:
        """Insert edge ``u -> v``; both endpoints must already exist."""
        if u not in self.graph or v not in self.graph:
            raise KeyError(f"edge endpoints {u!r}, {v!r} must exist")
        if self.graph.has_edge(u, v):
            raise ValueError(f"edge ({u!r}, {v!r}) already exists")
        self.graph.add_edge(u, v)
        if self.strict and not self.graph.is_acyclic():
            self.graph.remove_edge(u, v)
            raise ValueError(f"edge ({u!r}, {v!r}) would create a cycle")
        if self.strict:
            self.check_invariants()

    def delete_edge(self, u: Node, v: Node) -> None:
        self.graph.remove_edge(u, v)
        if self.strict:
            self.check_invariants()

    # ------------------------------------------------------------------
    # Queries used by the locking rules and proofs
    # ------------------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self.graph

    def nodes(self) -> FrozenSet[Node]:
        return self.graph.nodes()

    def edges(self) -> FrozenSet[Edge]:
        return self.graph.edges()

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        return self.graph.predecessors(node)

    def successors(self, node: Node) -> FrozenSet[Node]:
        return self.graph.successors(node)

    def descendants(self, node: Node) -> FrozenSet[Node]:
        """Nodes reachable from ``node`` (including itself)."""
        return self.graph.reachable_from(node)

    def ancestors(self, node: Node) -> FrozenSet[Node]:
        """Nodes from which ``node`` is reachable (including itself)."""
        return self.graph.reaching(node)

    def is_ancestor(self, a: Node, b: Node) -> bool:
        """Is ``a`` an ancestor of ``b`` (reflexively)?"""
        return self.graph.has_path(a, b)

    def dominator_sets(self) -> Dict[Node, FrozenSet[Node]]:
        return dominator_sets(self.graph, self.root)

    def dominates(self, candidate: Node, targets: Iterable[Node]) -> bool:
        """Does ``candidate`` dominate all of ``targets``?  (Lemma 3's
        central notion.)"""
        return dominates(self.graph, self.root, candidate, targets)

    def snapshot(self) -> "RootedDag":
        """An independent copy — the ``G_i`` snapshots of the proofs."""
        copy = RootedDag(self.root, strict=False)
        copy.graph = self.graph.copy()
        copy.strict = self.strict
        return copy

    def between(self, ancestor: Node, descendant: Node) -> FrozenSet[Node]:
        """Nodes that are both descendants of ``ancestor`` and ancestors of
        ``descendant`` — the set Lemma 3(b) says must be locked first."""
        return self.descendants(ancestor) & self.ancestors(descendant)

    def __str__(self) -> str:
        return f"RootedDag(root={self.root!r}, {self.graph})"


def chain(length: int, start: int = 1) -> RootedDag:
    """A rooted chain ``start -> start+1 -> …`` of ``length`` nodes."""
    nodes = list(range(start, start + length))
    return RootedDag(nodes[0], [(a, b) for a, b in zip(nodes, nodes[1:])])


def diamond() -> RootedDag:
    """The 4-node diamond ``1 -> {2, 3} -> 4`` used in several tests."""
    return RootedDag(1, [(1, 2), (1, 3), (2, 4), (3, 4)])
