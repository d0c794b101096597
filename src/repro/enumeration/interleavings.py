"""Exhaustive and randomised enumeration of schedules.

The brute-force side of the Theorem-1 validation needs to walk the space of
legal & proper interleavings; the search-space benchmark needs to *count*
that space to quantify how much smaller the canonical-schedule set is.  Both
live here, together with a random-schedule sampler used by property tests.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.operations import LockMode
from ..core.schedules import Event, Schedule
from ..core.states import StructuralState
from ..core.steps import Entity
from ..core.transactions import Transaction
from ..exceptions import SearchBudgetExceeded


def _admissible_next(
    transactions: Dict[str, Transaction],
    progress: Dict[str, int],
    holders: Dict[Entity, Dict[str, LockMode]],
    state: StructuralState,
    legal_only: bool,
    proper_only: bool,
) -> List[Event]:
    """The events that may execute next under the requested filters."""
    out: List[Event] = []
    for name in sorted(transactions):
        idx = progress[name]
        steps = transactions[name].steps
        if idx >= len(steps):
            continue
        step = steps[idx]
        if proper_only and not state.defines(step):
            continue
        mode = step.lock_mode
        if legal_only and step.is_lock and mode is not None:
            blocked = any(
                other != name and mode.conflicts_with(other_mode)
                for other, other_mode in holders.get(step.entity, {}).items()
            )
            if blocked:
                continue
        out.append(Event(name, idx, step))
    return out


def _apply(
    event: Event,
    holders: Dict[Entity, Dict[str, LockMode]],
    state: StructuralState,
) -> Tuple[Optional[LockMode], StructuralState]:
    """Apply an event; returns (previous lock mode, previous state) for undo."""
    step = event.step
    prior = holders.get(step.entity, {}).get(event.txn)
    mode = step.lock_mode
    if step.is_lock and mode is not None:
        current = holders.setdefault(step.entity, {})
        current[event.txn] = (
            LockMode.EXCLUSIVE if prior is LockMode.EXCLUSIVE else mode
        )
    elif step.is_unlock and mode is not None:
        current = holders.get(step.entity, {})
        if current.get(event.txn) is mode:
            del current[event.txn]
    new_state = state
    if state.defines(step):
        new_state = state.apply(step)
    return prior, new_state


def _undo(
    event: Event,
    prior: Optional[LockMode],
    holders: Dict[Entity, Dict[str, LockMode]],
) -> None:
    step = event.step
    if (step.is_lock or step.is_unlock) and step.lock_mode is not None:
        current = holders.setdefault(step.entity, {})
        if prior is None:
            current.pop(event.txn, None)
        else:
            current[event.txn] = prior


def enumerate_schedules(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    legal_only: bool = True,
    proper_only: bool = True,
    complete_only: bool = True,
    limit: Optional[int] = None,
) -> Iterator[Schedule]:
    """Yield schedules of the (whole) transaction system, depth first.

    With ``complete_only`` only complete schedules are yielded; otherwise
    every admissible prefix is yielded as well.  ``limit`` caps the number
    of *yielded* schedules.
    """
    by_name = {t.name: t for t in transactions}
    progress = {n: 0 for n in by_name}
    holders: Dict[Entity, Dict[str, LockMode]] = {}
    total = sum(len(t.steps) for t in transactions)
    events: List[Event] = []
    yielded = 0

    def build() -> Schedule:
        return Schedule(by_name.values(), tuple(events))

    def dfs(state: StructuralState) -> Iterator[Schedule]:
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        if len(events) == total:
            yielded += 1
            yield build()
            return
        if not complete_only and events:
            yielded += 1
            yield build()
            if limit is not None and yielded >= limit:
                return
        for event in _admissible_next(
            by_name, progress, holders, state, legal_only, proper_only
        ):
            prior, new_state = _apply(event, holders, state)
            progress[event.txn] += 1
            events.append(event)
            yield from dfs(new_state)
            events.pop()
            progress[event.txn] -= 1
            _undo(event, prior, holders)

    yield from dfs(initial)


def count_schedules(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    legal_only: bool = True,
    proper_only: bool = True,
    budget: int = 10_000_000,
) -> int:
    """Count the complete schedules matching the filters.

    Walking the full tree (no yields, so far cheaper than materialising the
    schedules); raises :class:`SearchBudgetExceeded` past ``budget`` visited
    nodes.  Used by the search-space benchmark to report how large the space
    Theorem 1 lets a prover skip really is.
    """
    by_name = {t.name: t for t in transactions}
    progress = {n: 0 for n in by_name}
    holders: Dict[Entity, Dict[str, LockMode]] = {}
    total = sum(len(t.steps) for t in transactions)
    visited = 0

    def dfs(state: StructuralState, depth: int) -> int:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise SearchBudgetExceeded(budget)
        if depth == total:
            return 1
        count = 0
        for event in _admissible_next(
            by_name, progress, holders, state, legal_only, proper_only
        ):
            prior, new_state = _apply(event, holders, state)
            progress[event.txn] += 1
            count += dfs(new_state, depth + 1)
            progress[event.txn] -= 1
            _undo(event, prior, holders)
        return count

    return dfs(initial, 0)


def random_schedule(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    seed: int | random.Random = 0,
    max_attempts: int = 50,
) -> Optional[Schedule]:
    """Sample a complete legal & proper schedule uniformly-ish by random
    greedy descent with restarts; ``None`` if every attempt dead-ends."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    by_name = {t.name: t for t in transactions}
    total = sum(len(t.steps) for t in transactions)
    for _ in range(max_attempts):
        progress = {n: 0 for n in by_name}
        holders: Dict[Entity, Dict[str, LockMode]] = {}
        state = initial
        events: List[Event] = []
        while len(events) < total:
            options = _admissible_next(by_name, progress, holders, state, True, True)
            if not options:
                break
            event = rng.choice(options)
            _, state = _apply(event, holders, state)
            progress[event.txn] += 1
            events.append(event)
        if len(events) == total:
            return Schedule(by_name.values(), tuple(events))
    return None
