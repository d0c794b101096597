"""Safety deciders for locked transaction systems.

A transaction system is **safe** when every legal and proper schedule of it
is (conflict) serializable.  This module offers two independent deciders:

* :func:`find_nonserializable_schedule` — **brute force**: depth-first search
  over all legal & proper interleavings, looking for a complete schedule with
  a cyclic ``D(S)``.  Sound and complete for finite systems; exponential.
* :func:`decide_safety` — runs brute force and, via
  :func:`repro.core.canonical.find_canonical_witness`, the Theorem-1
  characterisation, cross-checking that the two verdicts agree (they must, by
  Theorem 1; the test-suite uses this as an empirical proof check).

The brute-force search prunes on two facts: legality/properness are
prefix-closed, and the future of a search node is fully determined by the
progress vector plus the accumulated conflict-graph edges (which earlier
events exist is exactly the progress vector).  Once the conflict graph goes
cyclic, unsafety reduces to completability, decided by
:mod:`repro.core.completion`.  The search steps through
:class:`repro.core.interleaving.Interleaving`, the stepping rule it shares
with the completion search and the schedule enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Set, Tuple

from ..exceptions import SearchBudgetExceeded
from .canonical import CanonicalWitness, WitnessSearchStats, find_canonical_witness
from .completion import DEFAULT_BUDGET, find_completion
from .interleaving import Interleaving
from .schedules import Event, Schedule
from .serializability import SerializabilityGraph
from .states import StructuralState
from .transactions import Transaction


@dataclass
class SearchStats:
    """Counters from the brute-force search (compared against the canonical
    search in the search-space benchmark)."""

    nodes_explored: int = 0
    states_pruned: int = 0
    completions_invoked: int = 0


class _UnsafetySearch:
    """DFS for a complete, legal, proper, nonserializable schedule."""

    def __init__(
        self,
        transactions: Sequence[Transaction],
        initial: StructuralState,
        budget: int,
        stats: SearchStats,
    ):
        self.cursor = Interleaving(transactions, initial)
        self.initial = initial
        self.budget = budget
        self.stats = stats
        self.edges: Set[Tuple[str, str]] = set()
        self.visited: Set[Tuple[Tuple[int, ...], frozenset]] = set()

    # ------------------------------------------------------------------

    def _new_edges(self, event: Event) -> Set[Tuple[str, str]]:
        added: Set[Tuple[str, str]] = set()
        for earlier in self.cursor.events:
            if earlier.conflicts_with(event):
                edge = (earlier.txn, event.txn)
                if edge not in self.edges:
                    added.add(edge)
        return added

    def _cyclic(self) -> bool:
        cursor = self.cursor
        nodes = frozenset(n for n in cursor.names if cursor.progress[n] > 0)
        return not SerializabilityGraph(nodes, frozenset(self.edges)).is_acyclic()

    def run(self) -> Optional[Schedule]:
        return self._dfs()

    def _dfs(self) -> Optional[Schedule]:
        cursor = self.cursor
        key = (
            tuple(cursor.progress[n] for n in cursor.names),
            frozenset(self.edges),
        )
        if key in self.visited:
            self.stats.states_pruned += 1
            return None
        self.visited.add(key)
        self.stats.nodes_explored += 1
        if self.stats.nodes_explored > self.budget:
            raise SearchBudgetExceeded(self.budget)

        if self._cyclic():
            # Nonserializability is locked in: any legal proper completion is
            # a nonserializable schedule of the system.
            self.stats.completions_invoked += 1
            completed = find_completion(cursor.schedule(), self.initial, self.budget)
            return completed  # None -> dead branch; edges only ever grow.

        for event in cursor.admissible():
            added = self._new_edges(event)
            cursor.push(event)
            self.edges |= added
            found = self._dfs()
            if found is not None:
                return found
            self.edges -= added
            cursor.pop()
        return None


def find_nonserializable_schedule(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = DEFAULT_BUDGET,
    stats: Optional[SearchStats] = None,
) -> Optional[Schedule]:
    """Brute-force search for a complete, legal, proper, nonserializable
    schedule of (some of) the given transactions.

    Returns such a schedule (the direct unsafety witness) or ``None`` when
    the system is safe.  Raises :class:`SearchBudgetExceeded` when the search
    is cut off.
    """
    if stats is None:
        stats = SearchStats()
    search = _UnsafetySearch(transactions, initial, budget, stats)
    return search.run()


def is_safe_bruteforce(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Safety by exhaustive schedule search."""
    return find_nonserializable_schedule(transactions, initial, budget) is None


def is_safe_canonical(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Safety by the Theorem-1 characterisation: safe iff no canonical
    witness exists."""
    return find_canonical_witness(transactions, initial, budget) is None


@dataclass
class SafetyVerdict:
    """The combined result of both deciders.

    ``agree`` must always be True by Theorem 1; the benchmark harness and the
    property tests assert this over corpora of random systems.
    """

    safe_bruteforce: bool
    safe_canonical: bool
    schedule_witness: Optional[Schedule] = None
    canonical_witness: Optional[CanonicalWitness] = None
    bruteforce_stats: SearchStats = field(default_factory=SearchStats)
    canonical_stats: WitnessSearchStats = field(default_factory=WitnessSearchStats)

    @property
    def agree(self) -> bool:
        return self.safe_bruteforce == self.safe_canonical

    @property
    def safe(self) -> bool:
        return self.safe_bruteforce


def decide_safety(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = DEFAULT_BUDGET,
) -> SafetyVerdict:
    """Run both deciders and report the combined verdict with witnesses."""
    bf_stats = SearchStats()
    cn_stats = WitnessSearchStats()
    schedule = find_nonserializable_schedule(transactions, initial, budget, bf_stats)
    witness = find_canonical_witness(transactions, initial, budget, cn_stats)
    return SafetyVerdict(
        safe_bruteforce=schedule is None,
        safe_canonical=witness is None,
        schedule_witness=schedule,
        canonical_witness=witness,
        bruteforce_stats=bf_stats,
        canonical_stats=cn_stats,
    )
