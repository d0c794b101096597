"""Deadlock detection and victim selection — the resolution layer of the
scheduler kernel.

The naive engine rebuilds the waits-for graph from scratch every tick and
calls :func:`find_cycle_counted` on it (the executable specification); the
event engine runs the same DFS on its stored policy-wait edges
(:class:`repro.sim.waits_for.WaitsForGraph`) and lock-wait edges read from
the lock table as the search reaches them
(:class:`repro.sim.admission.DetectionView`).  Both hand the found cycle to :func:`pick_victim`, so the engines'
deadlock-victim sequences are comparable element by element.

**Victim tie-break (deterministic).**  The victim is the cycle member with
the minimum :func:`victim_cost` triple, compared lexicographically:

1. ``has_structural_effects`` (0 before 1) — a transaction that already
   inserted or deleted nodes/edges is never sacrificed while a pure
   reader/writer is available, since the paper has no recovery theory for
   structural effects (an aborted attempt must be erasable);
2. ``step_count`` (fewer first) — abort the transaction that loses the
   least executed work;
3. ``name`` (lexicographically smallest first) — a total order, so victim
   selection is deterministic across engines, seeds and Python hash
   randomization.

Because the cycle itself is found deterministically (sorted roots, sorted
neighbours, first back edge) and the cost triple is a total order, the
victim ``pick_victim(find_cycle_counted(graph)[0], live)`` is a pure
function of the graph and the live table.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple


def find_cycle_counted(
    graph: Mapping[str, Set[str]]
) -> Tuple[Optional[List[str]], int]:
    """Three-colour DFS with an explicit stack — wait chains can run
    thousands of sessions deep (one blocked txn per entity of a long
    sweep), well past Python's recursion limit.  Returns the first cycle
    met walking sorted roots / sorted neighbours (or ``None``) plus the
    number of nodes pushed (``Metrics.cycle_visits``).  The cycle runs
    from the node that closed the back edge up its parent chain to the
    node it closed on."""
    color: Dict[str, int] = {}
    parent: Dict[str, Optional[str]] = {}
    visits = 0

    for root in sorted(graph):
        if color.get(root, 0) != 0:
            continue
        parent[root] = None
        color[root] = 1
        visits += 1
        stack = [(root, iter(sorted(graph.get(root, ()))))]
        while stack:
            node, neighbours = stack[-1]
            descended = False
            for nxt in neighbours:
                c = color.get(nxt, 0)
                if c == 0:
                    parent[nxt] = node
                    color[nxt] = 1
                    visits += 1
                    stack.append((nxt, iter(sorted(graph.get(nxt, ())))))
                    descended = True
                    break
                if c == 1:
                    cycle = [node]
                    while node != nxt:
                        node = parent[node]  # type: ignore[assignment]
                        cycle.append(node)
                    return cycle, visits
            if not descended:
                color[node] = 2
                stack.pop()
    return None, visits


def find_cycle(graph: Mapping[str, Set[str]]) -> Optional[List[str]]:
    """The from-scratch reference detector (oracle) without the visit
    count."""
    return find_cycle_counted(graph)[0]


def victim_cost(live: Mapping[str, object]):
    """The deterministic victim-cost key over ``live`` entries (see the
    module docstring for the ordering); exposed so tests can assert the
    tie-break directly."""

    def cost(name: str) -> Tuple[int, int, str]:
        entry = live[name]
        return (
            1 if entry.session.has_structural_effects else 0,  # type: ignore[attr-defined]
            entry.step_count,  # type: ignore[attr-defined]
            name,
        )

    return cost


def pick_victim(cycle: List[str], live: Mapping[str, object]) -> str:
    """The cycle's cheapest member under :func:`victim_cost`."""
    return min(cycle, key=victim_cost(live))

