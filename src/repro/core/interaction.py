"""Interaction graphs and chordless cycles — the static-case machinery that
Section 3.1 shows to be *insufficient* for dynamic databases.

In the static setting [Yan82] one defines an **interaction graph**: a node
per transaction and one (undirected, parallel-edge-preserving) edge *per pair
of conflicting steps* between two transactions.  There, it suffices to check
canonical schedules of transaction subsets forming **chordless cycles** of
the interaction graph — a cycle with no extra edge of the multigraph joining
two of its nodes, where two parallel edges between the same pair of nodes
form a 2-node cycle.

The paper's Fig. 2 refutes this shortcut for dynamic databases: a system
whose interaction graph has a *pair* of edges between every two transactions
(so the only chordless cycles are 2-node ones), where no 2-transaction
subsystem has any proper schedule at all, yet a proper legal nonserializable
schedule of all three transactions exists.  This module provides the graph,
the chordless-cycle enumeration, and the (unsound-for-dynamic) heuristic
decider that the benchmark exposes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .schedules import Schedule
from .states import StructuralState
from .steps import conflicting_pairs
from .transactions import Transaction


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected multigraph of step-level conflicts between transactions.

    ``multiplicity`` maps an unordered transaction pair (stored sorted) to
    the number of conflicting step pairs between them.
    """

    nodes: Tuple[str, ...]
    multiplicity: Tuple[Tuple[Tuple[str, str], int], ...]

    @classmethod
    def of(cls, transactions: Sequence[Transaction]) -> "InteractionGraph":
        """Build the graph, counting conflicting **data** step pairs.

        Lock/unlock steps are projected away: in the static theory the
        interaction structure of two transactions is their data-access
        overlap (well-formed locking would otherwise inflate every shared
        entity into a bundle of lock-step conflicts and no pair could ever
        be a single edge).
        """
        names = tuple(sorted(t.name for t in transactions))
        by_name = {t.name: t.data_steps for t in transactions}
        mult: Dict[Tuple[str, str], int] = {}
        for a, b in itertools.combinations(names, 2):
            count = sum(1 for _ in conflicting_pairs(by_name[a], by_name[b]))
            if count:
                mult[(a, b)] = count
        return cls(names, tuple(sorted(mult.items())))

    def multiplicity_of(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        return dict(self.multiplicity).get(key, 0)

    def neighbours(self, node: str) -> FrozenSet[str]:
        out: Set[str] = set()
        for (a, b), _ in self.multiplicity:
            if a == node:
                out.add(b)
            elif b == node:
                out.add(a)
        return frozenset(out)

    # ------------------------------------------------------------------
    # Chordless cycles
    # ------------------------------------------------------------------

    def two_node_cycles(self) -> List[Tuple[str, str]]:
        """Pairs joined by at least two parallel edges (2-node cycles)."""
        return [pair for pair, count in self.multiplicity if count >= 2]

    def chordless_cycles(self) -> List[Tuple[str, ...]]:
        """All chordless cycles, as node tuples.

        A 2-node cycle is a pair with ≥2 parallel edges.  A cycle on ``m ≥ 3``
        nodes uses one edge between consecutive nodes; it is *chordless* when
        the multigraph contains no other edge between any two of its nodes —
        i.e. no edge between non-consecutive nodes and no parallel duplicate
        between consecutive ones.  (This is why doubling every edge of a
        triangle kills the triangle as a chordless cycle: the duplicates are
        chords.)
        """
        cycles: List[Tuple[str, ...]] = list(self.two_node_cycles())
        mult = dict(self.multiplicity)

        def edge_count(a: str, b: str) -> int:
            return mult.get((a, b) if a <= b else (b, a), 0)

        for size in range(3, len(self.nodes) + 1):
            for subset in itertools.combinations(self.nodes, size):
                # Try every cyclic order of the subset (fix the first node and
                # orient to avoid counting rotations/reflections twice).
                rest = subset[1:]
                for perm in itertools.permutations(rest):
                    if len(perm) > 1 and perm[0] > perm[-1]:
                        continue  # reflection
                    cycle = (subset[0],) + perm
                    consecutive = {
                        frozenset((cycle[i], cycle[(i + 1) % size]))
                        for i in range(size)
                    }
                    if not all(
                        edge_count(*sorted(pair)) >= 1 for pair in consecutive
                    ):
                        continue
                    chord = False
                    for a, b in itertools.combinations(subset, 2):
                        needed = 1 if frozenset((a, b)) in consecutive else 0
                        if edge_count(*sorted((a, b))) > needed:
                            chord = True
                            break
                    if not chord:
                        cycles.append(cycle)
        return cycles


@dataclass(frozen=True)
class StaticHeuristicVerdict:
    """Result of the (dynamic-unsound) chordless-cycle heuristic."""

    declared_safe: bool
    cycles_checked: Tuple[Tuple[str, ...], ...]
    counterexample: Schedule | None = None


def static_chordless_heuristic(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = 200_000,
) -> StaticHeuristicVerdict:
    """The static-database shortcut: only check subsystems that form
    chordless cycles of the interaction graph.

    For static databases this is sound [Yan82].  For dynamic databases it is
    **not** — the Fig. 2 system makes it declare "safe" while a proper legal
    nonserializable schedule of all three transactions exists.  The Fig. 2
    benchmark runs this side by side with the sound deciders.
    """
    from .safety import find_nonserializable_schedule

    graph = InteractionGraph.of(transactions)
    by_name = {t.name: t for t in transactions}
    checked: List[Tuple[str, ...]] = []
    for cycle in graph.chordless_cycles():
        checked.append(cycle)
        subsystem = [by_name[n] for n in cycle]
        schedule = find_nonserializable_schedule(subsystem, initial, budget)
        if schedule is not None:
            return StaticHeuristicVerdict(False, tuple(checked), schedule)
    return StaticHeuristicVerdict(True, tuple(checked), None)
