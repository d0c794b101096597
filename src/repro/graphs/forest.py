"""Database forests — the policy-managed structure of the DTR policy
(Section 6).

Unlike the DDAG policy's database graph (given, and mutated by the
transactions), the DTR policy's forest is created and maintained *by the
concurrency-control algorithm itself*:

* **DT0** — initially the forest is empty.
* **DT1** — to join two trees, draw an edge from the root of one to the root
  of the other; to add a set of entities, connect them into a tree first and
  then join.
* **DT3** — a node may be deleted when no active transaction holds a lock on
  it and every active transaction stays tree-locked w.r.t. the forest minus
  the node.

This module implements the forest datatype with parent pointers; the DT rule
enforcement itself lives in :mod:`repro.policies.dtr`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from .digraph import Node


class Forest:
    """A mutable forest of rooted trees over hashable nodes.

    Each node has at most one parent; trees are identified by their roots.
    """

    def __init__(self) -> None:
        self._parent: Dict[Node, Optional[Node]] = {}
        self._children: Dict[Node, Set[Node]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, node: Node) -> bool:
        return node in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def nodes(self) -> FrozenSet[Node]:
        return frozenset(self._parent)

    def parent(self, node: Node) -> Optional[Node]:
        """The parent of ``node`` (None for roots)."""
        return self._parent[node]

    def children(self, node: Node) -> FrozenSet[Node]:
        return frozenset(self._children[node])

    def roots(self) -> FrozenSet[Node]:
        return frozenset(n for n, p in self._parent.items() if p is None)

    def root_of(self, node: Node) -> Node:
        """The root of the tree containing ``node``."""
        cur = node
        while True:
            p = self._parent[cur]
            if p is None:
                return cur
            cur = p

    def same_tree(self, a: Node, b: Node) -> bool:
        return self.root_of(a) == self.root_of(b)

    def path_from_root(self, node: Node) -> List[Node]:
        """The unique root-to-node path."""
        path = [node]
        cur = node
        while self._parent[cur] is not None:
            cur = self._parent[cur]
            path.append(cur)
        path.reverse()
        return path

    def is_ancestor(self, a: Node, b: Node) -> bool:
        """Is ``a`` on the root path of ``b`` (reflexively)?"""
        return a in self.path_from_root(b)

    def descendants(self, node: Node) -> FrozenSet[Node]:
        out: Set[Node] = {node}
        frontier = [node]
        while frontier:
            n = frontier.pop()
            for c in self._children[n]:  # repro: noqa[RPR001] builds the descendant set; only the frozenset escapes
                if c not in out:
                    out.add(c)
                    frontier.append(c)
        return frozenset(out)

    # ------------------------------------------------------------------
    # Mutation (the DT1/DT3 primitives)
    # ------------------------------------------------------------------

    def add_root(self, node: Node) -> None:
        """Add an isolated single-node tree."""
        if node in self._parent:
            raise ValueError(f"node {node!r} already in forest")
        self._parent[node] = None
        self._children[node] = set()

    def add_child(self, parent: Node, node: Node) -> None:
        """Add a fresh node as a child of an existing one."""
        if node in self._parent:
            raise ValueError(f"node {node!r} already in forest")
        if parent not in self._parent:
            raise KeyError(f"parent {parent!r} not in forest")
        self._parent[node] = parent
        self._children[node] = set()
        self._children[parent].add(node)

    def join(self, upper_root: Node, lower_root: Node) -> None:
        """DT1: draw an edge from the root of one tree to the root of
        another, making ``lower_root``'s tree a subtree."""
        if upper_root not in self._parent or lower_root not in self._parent:
            raise KeyError("both roots must be in the forest")
        if self._parent[lower_root] is not None:
            raise ValueError(f"{lower_root!r} is not a root")
        if self.root_of(upper_root) == lower_root:
            raise ValueError("joining would create a cycle")
        self._parent[lower_root] = upper_root
        self._children[upper_root].add(lower_root)

    def delete_node(self, node: Node) -> None:
        """DT3's structural effect: remove a node; its children become roots.

        Whether the deletion is *allowed* (locks, tree-locked transactions)
        is the policy's job, not the forest's.
        """
        if node not in self._parent:
            raise KeyError(f"node {node!r} not in forest")
        parent = self._parent[node]
        if parent is not None:
            self._children[parent].discard(node)
        for child in self._children[node]:  # repro: noqa[RPR001] resets existing parent entries; order-insensitive
            self._parent[child] = None
        del self._parent[node]
        del self._children[node]

    def without(self, node: Node) -> "Forest":
        """The forest ``G(A)`` obtained by deleting ``node`` (a copy)."""
        copy = self.copy()
        copy.delete_node(node)
        return copy

    def copy(self) -> "Forest":
        out = Forest()
        out._parent = dict(self._parent)
        out._children = {n: set(c) for n, c in self._children.items()}
        return out

    def __str__(self) -> str:
        parts = []
        for root in sorted(self.roots(), key=repr):
            parts.append(self._render(root))
        return "Forest[" + "; ".join(parts) + "]"

    def _render(self, node: Node) -> str:
        kids = sorted(self._children[node], key=repr)
        if not kids:
            return str(node)
        return f"{node}({', '.join(self._render(k) for k in kids)})"
