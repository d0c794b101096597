"""Search for legal & proper completions of a partial schedule.

Condition (2b) of Theorem 1 asks whether a partial schedule "can be extended
to a complete legal and proper schedule".  This module answers that question
by depth-first search over the remaining steps, with three soundness-critical
observations:

1. **Legality and properness are prefix-closed**, so an illegal/improper
   extension can be pruned immediately.
2. **The reachable search state is a function of the progress vector** (how
   many steps of each transaction have executed).  Held locks are a function
   of each transaction's own prefix; and any two *proper* orders of the same
   step multiset leave the database in the same structural state, because
   properness forces INSERT/DELETE steps on each entity to alternate.
   Hence "completable from here?" can be memoised on the progress vector.
3. A schedule is *complete* when every transaction that has started has
   finished; the search may start additional transactions when their
   INSERTs/DELETEs are needed to make other transactions' steps defined.

The search steps through :class:`repro.core.interleaving.Interleaving`, the
stepping rule shared with the brute-force and enumeration searches.  It
replays the given prefix through that rule first, so an illegal or improper
prefix raises instead of being extended.  ``tests/test_completion.py``
checks observation 2 against the enumerator: a prefix is completable exactly
when some complete schedule starts with it.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..exceptions import SearchBudgetExceeded
from .interleaving import Interleaving
from .schedules import Schedule
from .states import StructuralState

#: Default node budget for completion searches.
DEFAULT_BUDGET = 200_000


class _CompletionSearch:
    """One DFS instance; see module docstring for the invariants."""

    def __init__(self, schedule: Schedule, initial: StructuralState, budget: int,
                 require_all: bool = False):
        self.budget = budget
        self.require_all = require_all
        self.nodes = 0
        self.dead: Set[Tuple[int, ...]] = set()
        # Replay the prefix through the stepping rule: a step it refuses
        # makes the prefix illegal or improper, and the reference check
        # says which.
        self.cursor = cursor = Interleaving(schedule.transactions.values(), initial)
        for event in schedule.events:
            if cursor.next_event(event.txn) is None:
                schedule.assert_legal()
                schedule.assert_proper(initial)
            cursor.push(event)

    def _done(self) -> bool:
        cursor = self.cursor
        if self.require_all:
            return len(cursor.events) == cursor.total
        return all(
            cursor.progress[name] in (0, len(cursor.transactions[name].steps))
            for name in cursor.names
        )

    def run(self) -> Optional[Schedule]:
        if self._dfs():
            return self.cursor.schedule()
        return None

    def _dfs(self) -> bool:
        if self._done():
            return True
        cursor = self.cursor
        key = tuple(cursor.progress[name] for name in cursor.names)
        if key in self.dead:
            return False
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(self.budget)
        for event in cursor.admissible():
            cursor.push(event)
            if self._dfs():
                return True
            cursor.pop()
        self.dead.add(key)
        return False


def find_completion(
    schedule: Schedule,
    initial: StructuralState = StructuralState.empty(),
    budget: int = DEFAULT_BUDGET,
    require_all: bool = False,
) -> Optional[Schedule]:
    """Extend ``schedule`` to a complete legal & proper schedule, if possible.

    The input must itself be a legal & proper partial schedule; otherwise
    the :class:`IllegalScheduleError` or :class:`ImproperScheduleError` of
    :meth:`Schedule.assert_legal` / :meth:`Schedule.assert_proper` is
    raised, before any search.  With
    ``require_all`` every transaction of the system must finish; otherwise
    (the paper's notion of a schedule "of some transactions") only the
    transactions that have started must finish, though the search may start
    others when properness demands it.

    Returns the completed schedule, or ``None`` when no completion exists.
    Raises :class:`SearchBudgetExceeded` when the search is cut off — callers
    must treat that as "unknown", never as "no".
    """
    return _CompletionSearch(schedule, initial, budget, require_all).run()


def is_completable(
    schedule: Schedule,
    initial: StructuralState = StructuralState.empty(),
    budget: int = DEFAULT_BUDGET,
    require_all: bool = False,
) -> bool:
    """Decision form of :func:`find_completion`."""
    return find_completion(schedule, initial, budget, require_all) is not None
