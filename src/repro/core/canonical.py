"""Canonical nonserializable schedules — Theorem 1 of the paper.

Theorem 1 characterises unsafe locked transaction systems: a system is unsafe
iff there exist transactions ``T_1, …, T_k`` (``k > 1``), a distinguished
``T_c`` and an entity ``A*`` such that

1. ``T_c`` locks ``A*`` after it has unlocked some entity, and
2. with ``T'_c`` the prefix of ``T_c`` up to (excluding) the ``(L A*)`` step,
   there are prefixes ``T'_i`` of the remaining transactions such that the
   partial schedule ``S'`` executing ``T'_1 … T'_k`` serially satisfies:

   (a) every sink of ``D(S')`` unlocks ``A*`` having previously locked it in
       a mode that conflicts with the mode of ``T_c``'s pending lock, and
   (b) ``S'`` can be extended to a complete legal and proper schedule.

:class:`CanonicalWitness` packages such a candidate; :meth:`CanonicalWitness.problems`
checks every condition (including the dynamic-database condition (2b), decided
by completion search); :func:`find_canonical_witness` searches a transaction
system for a witness — the canonical-schedules *decision procedure* whose
verdicts the test-suite compares against brute force, empirically validating
the theorem.

Section 3.3's exclusive-locks-only specialisation (``D(S')`` has a *unique*
sink which unlocks ``A*``) is exposed via
:meth:`CanonicalWitness.satisfies_exclusive_variant`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import VerificationError
from .completion import DEFAULT_BUDGET, find_completion
from .operations import LockMode
from .schedules import Schedule
from .serializability import SerializabilityGraph, serializability_graph
from .states import StructuralState
from .steps import Entity, Step
from .transactions import Transaction


@dataclass(frozen=True)
class CanonicalWitness:
    """A candidate canonical nonserializable schedule.

    Attributes
    ----------
    transactions:
        The full transactions ``T_1, …, T_k`` in the serial order of their
        prefixes in ``S'``.
    c_index:
        Position of the distinguished transaction ``T_c`` in that order
        (0-based).  Unlike the static theorem, ``T_c`` need not be first.
    entity:
        The entity ``A*`` whose locking closes the cycle.
    lock_mode:
        The mode in which ``T_c`` locks ``A*``.
    prefix_lengths:
        ``T'_i`` lengths by transaction name; ``T_c``'s must equal the index
        of its ``(L A*)`` step.
    completion:
        Optional evidence for condition (2b): a complete legal proper
        schedule having ``S'`` as a prefix.  When absent, condition (2b) is
        decided by completion search.
    """

    transactions: Tuple[Transaction, ...]
    c_index: int
    entity: Entity
    lock_mode: LockMode
    prefix_lengths: Mapping[str, int]
    completion: Optional[Schedule] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # Derived pieces
    # ------------------------------------------------------------------

    @property
    def tc(self) -> Transaction:
        """The distinguished transaction ``T_c``."""
        return self.transactions[self.c_index]

    @property
    def order(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.transactions)

    def lock_step(self) -> Step:
        """The pending ``(L A*)`` step of ``T_c``."""
        return self.tc.steps[self.prefix_lengths[self.tc.name]]

    def serial_prefix_schedule(self) -> Schedule:
        """The canonical partial schedule ``S' = T'_1 T'_2 … T'_k``."""
        return Schedule.serial_prefixes(
            list(self.transactions), dict(self.prefix_lengths), list(self.order)
        )

    def graph(self) -> SerializabilityGraph:
        """``D(S')``."""
        return serializability_graph(self.serial_prefix_schedule())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def problems(
        self,
        initial: StructuralState = StructuralState.empty(),
        budget: int = DEFAULT_BUDGET,
        stats: Optional[WitnessSearchStats] = None,
    ) -> List[str]:
        """Check every condition of Theorem 1; return human-readable
        descriptions of the violated ones (empty list == valid witness).
        ``stats``, if given, counts the ``S'`` built and the completion
        searches run."""
        out: List[str] = []
        names = [t.name for t in self.transactions]
        if len(set(names)) != len(names):
            return ["duplicate transactions in witness"]
        if len(self.transactions) < 2:
            out.append("Theorem 1 requires k > 1 transactions")

        tc = self.tc
        cut = self.prefix_lengths.get(tc.name)
        if cut is None or not 0 <= cut < len(tc.steps):
            return out + [f"prefix length for {tc.name} does not precede a next step"]
        pending = tc.steps[cut]
        if not pending.is_lock or pending.entity != self.entity:
            out.append(
                f"next step of {tc.name} after its prefix is {pending}, "
                f"not a lock of {self.entity!r}"
            )
            return out
        if pending.lock_mode is not self.lock_mode:
            out.append(
                f"{tc.name} locks {self.entity!r} in mode {pending.lock_mode}, "
                f"witness claims {self.lock_mode}"
            )

        # Condition 1: T_c locks A* after it has unlocked some entity.
        if not any(s.is_unlock for s in tc.steps[:cut]):
            out.append(
                f"condition 1: {tc.name} has not unlocked anything before "
                f"locking {self.entity!r}"
            )

        # All other prefixes must be nonempty (a transaction contributing no
        # steps does not belong in the witness).
        for t in self.transactions:
            n = self.prefix_lengths.get(t.name, 0)
            if t.name != tc.name and not 1 <= n <= len(t.steps):
                out.append(f"prefix length {n} invalid for {t.name}")
        if out:
            return out

        if stats is not None:
            stats.schedules_built += 1
        sprime = self.serial_prefix_schedule()
        # S' must be a legal, proper partial schedule (implied by 2b but
        # checked eagerly for better diagnostics).
        violation = sprime.legality_violation()
        if violation is not None:
            out.append(f"S' is not legal: {violation}")
        violation = sprime.properness_violation(initial)
        if violation is not None:
            out.append(f"S' is not proper: {violation}")
        if out:
            return out

        graph = serializability_graph(sprime)
        sinks = graph.sinks()
        if tc.name in sinks:
            out.append(
                f"T'_c ({tc.name}) is a sink of D(S'); it would have to lock "
                f"{self.entity!r} twice"
            )

        # Condition 2a: every sink conflict-unlocks A*.
        for name in sorted(sinks - {tc.name}, key=repr):
            prefix = sprime.projection(name)
            mode = prefix.lock_mode_of(self.entity)
            unlocked = bool(prefix.unlock_positions(self.entity))
            if mode is None or not unlocked:
                out.append(
                    f"condition 2a: sink {name} does not lock-and-unlock "
                    f"{self.entity!r} in its prefix"
                )
            elif not mode.conflicts_with(self.lock_mode):
                out.append(
                    f"condition 2a: sink {name} locked {self.entity!r} in mode "
                    f"{mode}, which does not conflict with {self.lock_mode}"
                )
        if out:
            return out  # already invalid: spare the (2b) search

        # Condition 2b: S' extends to a complete legal proper schedule.
        if self.completion is not None:
            if self.completion.events[: len(sprime.events)] != sprime.events:
                out.append("provided completion does not extend S'")
            elif not self.completion.is_complete:
                out.append("provided completion is not complete")
            elif not self.completion.is_legal():
                out.append("provided completion is not legal")
            elif not self.completion.is_proper(initial):
                out.append("provided completion is not proper")
        else:
            if stats is not None:
                stats.completions_searched += 1
            if find_completion(sprime, initial, budget) is None:
                out.append(
                    "condition 2b: S' has no complete legal and proper extension"
                )
        return out

    def is_valid(
        self,
        initial: StructuralState = StructuralState.empty(),
        budget: int = DEFAULT_BUDGET,
        stats: Optional[WitnessSearchStats] = None,
    ) -> bool:
        """True iff this witness satisfies every condition of Theorem 1."""
        return not self.problems(initial, budget, stats)

    def satisfies_exclusive_variant(self) -> bool:
        """Section 3.3: with only exclusive locks, condition (2a) simplifies
        to "``D(S')`` has a unique sink which unlocks ``A*``"."""
        graph = self.graph()
        sinks = graph.sinks()
        if len(sinks) != 1:
            return False
        (sink,) = sinks
        prefix = self.serial_prefix_schedule().projection(sink)
        return bool(prefix.unlock_positions(self.entity))

    # ------------------------------------------------------------------
    # Realisation (the If direction)
    # ------------------------------------------------------------------

    def realize(
        self,
        initial: StructuralState = StructuralState.empty(),
        budget: int = DEFAULT_BUDGET,
    ) -> Schedule:
        """Produce a complete, legal, proper, **nonserializable** schedule
        from this witness — the constructive content of the If direction of
        Theorem 1 (any legal proper completion of ``S'`` is nonserializable).
        """
        from .serializability import is_serializable

        completion = self.completion
        if completion is None:
            completion = find_completion(self.serial_prefix_schedule(), initial, budget)
            if completion is None:
                raise VerificationError(
                    "witness has no completion; condition (2b) fails"
                )
        if is_serializable(completion):
            raise VerificationError(
                "completion of a canonical witness is serializable; the "
                "witness does not satisfy Theorem 1"
            )
        return completion

    def describe(self) -> str:
        """A multi-line human-readable account of the witness."""
        lines = [
            f"canonical witness: T_c = {self.tc.name} locks "
            f"{self.lock_step()} after prefix of length "
            f"{self.prefix_lengths[self.tc.name]}",
            f"serial order: {' -> '.join(self.order)} (c at position {self.c_index})",
            f"D(S') = {self.graph()}",
        ]
        sprime = self.serial_prefix_schedule()
        lines.append("S':")
        lines.append(sprime.format_rows(self.order))
        return "\n".join(lines)


@dataclass
class WitnessSearchStats:
    """Counters from :func:`find_canonical_witness`, reported by benches.
    Each stage sees only what the one before it let through, so
    ``completions_searched <= schedules_built <= candidates_considered``."""

    #: Candidate witnesses the search enumerated.
    candidates_considered: int = 0
    #: Candidates whose ``S'`` :meth:`CanonicalWitness.problems` built:
    #: the search skips a prefix vector in which no partner can pass
    #: (2a)'s test of a sink.
    schedules_built: int = 0
    #: Completion searches run for condition (2b): only for candidates
    #: that pass every other condition of :meth:`CanonicalWitness.problems`.
    completions_searched: int = 0


def _condition1_cuts(txn: Transaction) -> Iterable[Tuple[int, Step]]:
    """Positions ``p`` in ``txn`` where step ``p`` is a LOCK and some UNLOCK
    occurs before ``p`` — the candidate ``(L A*)`` steps of a ``T_c``."""
    seen_unlock = False
    for i, s in enumerate(txn.steps):
        if s.is_unlock:
            seen_unlock = True
        elif s.is_lock and seen_unlock:
            yield i, s


def _may_be_a_sink(
    txn: Transaction, length: int, entity: Entity, mode: LockMode
) -> bool:
    """Whether the prefix of ``txn`` of ``length`` steps passes condition
    (2a)'s test of a sink: it locks ``entity`` in a mode conflicting with
    ``mode``, and unlocks it (the test :meth:`CanonicalWitness.problems`
    applies)."""
    prefix = txn.prefix(length)
    held = prefix.lock_mode_of(entity)
    return (
        held is not None
        and held.conflicts_with(mode)
        and bool(prefix.unlock_positions(entity))
    )


def find_canonical_witness(
    transactions: Sequence[Transaction],
    initial: StructuralState = StructuralState.empty(),
    budget: int = DEFAULT_BUDGET,
    stats: Optional[WitnessSearchStats] = None,
    max_partners: Optional[int] = None,
) -> Optional[CanonicalWitness]:
    """Search a transaction system for a valid canonical witness.

    This is the Theorem-1 decision procedure: it enumerates the distinguished
    transaction ``T_c`` (restricted, via condition 1, to non-two-phase
    transactions and their post-unlock lock steps), then partner subsets,
    serial orders and prefix lengths, checking conditions (2a) and (2b) for
    each candidate ``S'``.  Returns the first valid witness or ``None``.

    ``max_partners`` bounds ``k - 1``; by default all subsets are tried.
    Exponential — intended for the small systems where Theorem 1's structure
    is being validated, not as a production scheduler.
    """
    if stats is None:
        stats = WitnessSearchStats()
    txns = list(transactions)
    by_name = {t.name: t for t in txns}
    if len(by_name) != len(txns):
        raise VerificationError("transactions must have distinct names")

    for tc in txns:
        for cut, pending in _condition1_cuts(tc):
            entity = pending.entity
            mode = pending.lock_mode
            assert mode is not None
            others = [t for t in txns if t.name != tc.name]
            limit = len(others) if max_partners is None else min(max_partners, len(others))
            for size in range(1, limit + 1):
                # Serial orders of T_c and its partners per prefix vector.
                orders = math.factorial(size) * (size + 1)
                for subset in itertools.combinations(others, size):
                    # Prefix length choices for each partner: 1..len.
                    ranges = [range(1, len(t.steps) + 1) for t in subset]
                    for lengths in itertools.product(*ranges):
                        # S' is serial, so D(S') is acyclic and has a sink;
                        # T'_c may not be one, so some partner must pass
                        # (2a)'s sink test, whatever the order.
                        if not any(
                            _may_be_a_sink(t, n, entity, mode)
                            for t, n in zip(subset, lengths)
                        ):
                            stats.candidates_considered += orders
                            continue
                        prefix_lengths = {
                            t.name: n for t, n in zip(subset, lengths)
                        }
                        prefix_lengths[tc.name] = cut
                        for perm in itertools.permutations(subset):
                            for c_pos in range(len(perm) + 1):
                                ordered = list(perm[:c_pos]) + [tc] + list(perm[c_pos:])
                                stats.candidates_considered += 1
                                witness = CanonicalWitness(
                                    transactions=tuple(ordered),
                                    c_index=c_pos,
                                    entity=entity,
                                    lock_mode=mode,
                                    prefix_lengths=dict(prefix_lengths),
                                )
                                if witness.is_valid(initial, budget, stats):
                                    return witness
    return None
