"""Dominators in rooted directed graphs (Section 4 of the paper).

The DDAG policy's key structural notion:

    "A dominator ``D`` of a set of nodes ``W`` is a node such that every path
    from the root to a node in ``W`` passes through ``D``.  Thus, in a rooted
    graph, the root dominates all the nodes in the graph including itself."

This module computes the full dominator relation with the classic iterative
dataflow algorithm (``dom(n) = {n} ∪ ⋂ dom(pred)``), which is simple,
obviously correct, and fast enough for the graph sizes the policies operate
on; the test-suite cross-checks it against ``networkx``'s
Lengauer–Tarjan-based immediate dominators.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from .digraph import DiGraph, Node


def dominator_sets(graph: DiGraph, root: Node) -> Dict[Node, FrozenSet[Node]]:
    """For each node reachable from ``root``, the set of its dominators.

    Unreachable nodes are omitted (no root-path exists, so the universal
    quantifier is vacuous; the policies never consult them).
    """
    if root not in graph:
        raise KeyError(f"root {root!r} not in graph")
    reachable = graph.reachable_from(root)
    dom: Dict[Node, Set[Node]] = {n: set(reachable) for n in reachable}
    dom[root] = {root}
    # Iterate in (approximate) topological order for fast convergence, but
    # keep iterating to a fixed point so cyclic graphs would also be handled.
    order = [n for n in _rpo(graph, root) if n in reachable]
    changed = True
    while changed:
        changed = False
        for n in order:
            if n == root:
                continue
            preds = [p for p in graph.predecessors(n) if p in reachable]
            if preds:
                new = set.intersection(*(dom[p] for p in preds)) | {n}
            else:
                new = {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    return {n: frozenset(s) for n, s in dom.items()}


def _rpo(graph: DiGraph, root: Node):
    """Reverse postorder from ``root``."""
    seen: Set[Node] = set()
    post = []

    def dfs(node: Node) -> None:
        stack = [(node, iter(sorted(graph.successors(node), key=repr)))]
        seen.add(node)
        while stack:
            cur, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(sorted(graph.successors(nxt), key=repr))))
                    advanced = True
                    break
            if not advanced:
                post.append(cur)
                stack.pop()

    dfs(root)
    return list(reversed(post))


def dominates(graph: DiGraph, root: Node, candidate: Node, targets: Iterable[Node]) -> bool:
    """Does ``candidate`` dominate every node of ``targets`` (w.r.t. paths
    from ``root``)?

    Implemented definitionally — every root-to-target path passes through
    ``candidate`` iff the target is unreachable from the root once
    ``candidate`` is removed (with ``candidate`` itself trivially dominated
    by itself).
    """
    targets = list(targets)
    if candidate == root:
        return True
    reachable = graph.reachable_from(root)
    for t in targets:
        if t not in reachable:
            return False
    pruned = graph.copy()
    pruned.remove_node(candidate)
    if root not in pruned:
        return all(t == candidate for t in targets)
    still = pruned.reachable_from(root)
    return all(t == candidate or t not in still for t in targets)


def immediate_dominators(graph: DiGraph, root: Node) -> Dict[Node, Optional[Node]]:
    """The immediate dominator of each reachable node (root maps to None).

    The immediate dominator is the unique strict dominator that is dominated
    by all other strict dominators.
    """
    doms = dominator_sets(graph, root)
    out: Dict[Node, Optional[Node]] = {root: None}
    for node, ds in doms.items():
        if node == root:
            continue
        strict = ds - {node}
        # The idom is the strict dominator with the largest dominator set.
        idom = max(strict, key=lambda d: len(doms[d]))
        out[node] = idom
    return out
