"""Exhaustive and randomised enumeration of schedules.

The brute-force side of the Theorem-1 validation needs to walk the space of
legal & proper interleavings; the search-space benchmark needs to *count*
that space to quantify how much smaller the canonical-schedule set is.  Both
live here, together with a random-schedule sampler used by property tests.
All three step through :class:`repro.core.interleaving.Interleaving`, so
each walks exactly the legal and proper schedules the reference checks
accept.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence, Set, Tuple

from ..core.interleaving import Interleaving
from ..core.schedules import Schedule
from ..core.states import StructuralState
from ..core.transactions import Transaction
from ..exceptions import SearchBudgetExceeded


def enumerate_schedules(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    limit: Optional[int] = None,
) -> Iterator[Schedule]:
    """Yield the complete legal & proper schedules of the (whole)
    transaction system, depth first; ``limit`` caps how many are yielded.

    A node from which no complete schedule follows is remembered by its
    progress vector and not walked again: what can follow a node depends
    on that vector alone (observation 2 of :mod:`repro.core.completion`),
    so the yielded order is the unmemoized walk's."""
    cursor = Interleaving(transactions, initial)
    dead: Set[Tuple[int, ...]] = set()

    def dfs() -> Iterator[Schedule]:
        if len(cursor.events) == cursor.total:
            yield cursor.schedule()
            return
        key = tuple(cursor.progress[name] for name in cursor.names)
        if key in dead:
            return
        completes = False
        for event in cursor.admissible():
            cursor.push(event)
            for schedule in dfs():
                completes = True
                yield schedule
            cursor.pop()
        if not completes:
            dead.add(key)

    return itertools.islice(dfs(), limit)


def count_schedules(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = 10_000_000,
) -> int:
    """Count the complete legal & proper schedules.

    Walking the full tree (no yields, so far cheaper than materialising the
    schedules); raises :class:`SearchBudgetExceeded` past ``budget`` visited
    nodes.  Used by the search-space benchmark to report how large the space
    Theorem 1 lets a prover skip really is.
    """
    cursor = Interleaving(transactions, initial)
    visited = 0

    def dfs(depth: int) -> int:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise SearchBudgetExceeded(budget)
        if depth == cursor.total:
            return 1
        count = 0
        for event in cursor.admissible():
            cursor.push(event)
            count += dfs(depth + 1)
            cursor.pop()
        return count

    return dfs(0)


def random_schedule(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    seed: int | random.Random = 0,
    max_attempts: int = 50,
) -> Optional[Schedule]:
    """Sample a complete legal & proper schedule uniformly-ish by random
    greedy descent with restarts; ``None`` if every attempt dead-ends."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    for _ in range(max_attempts):
        cursor = Interleaving(transactions, initial)
        while len(cursor.events) < cursor.total:
            options = cursor.admissible()
            if not options:
                break
            cursor.push(rng.choice(options))
        if len(cursor.events) == cursor.total:
            return cursor.schedule()
    return None
