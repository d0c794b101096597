"""Random transaction-system generators for the Theorem-1 validation corpus.

The empirical proof check of Theorem 1 compares the brute-force and the
canonical-schedule safety deciders over many small systems.  The corpus must
contain *both* safe and unsafe systems, and must exercise the dynamic
features (INSERT/DELETE, properness constraints) that distinguish the
paper's theorem from Yannakakis' static version.  Three locking styles give
the spread:

* ``"2pl"`` — strict two-phase wrapping: always safe (Condition 1 of the
  theorem can never fire); these systems check the decider's *negative*
  path.
* ``"early"`` — each entity unlocked immediately after its last use: the
  classic non-two-phase shape; unsafe whenever interleavings can cycle.
* ``"chaotic"`` — unlock points drawn at random after last use: a mixture.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from ..core.operations import LockMode, Operation
from ..core.steps import Entity, Step
from ..core.transactions import Transaction

#: The data operations a random transaction may draw, with weights chosen so
#: structural operations are common enough to exercise properness.
_OP_WEIGHTS = (
    (Operation.READ, 3),
    (Operation.WRITE, 3),
    (Operation.INSERT, 2),
    (Operation.DELETE, 2),
)


def random_data_steps(
    entities: Sequence[Entity],
    length: int,
    rng: random.Random,
) -> List[Step]:
    """A random sequence of data steps over the entity pool.

    No attempt is made to make the sequence executable in isolation — in a
    dynamic database a transaction may well be proper *only* in cooperation
    with others (that is the point of Fig. 2) — but trivial no-ops like
    inserting an entity twice in a row are avoided to keep the corpus
    interesting.
    """
    ops = [op for op, w in _OP_WEIGHTS for _ in range(w)]
    steps: List[Step] = []
    last_op: dict = {}
    for _ in range(length):
        for _attempt in range(10):
            op = rng.choice(ops)
            entity = rng.choice(list(entities))
            if last_op.get(entity) == op and op.is_structural:
                continue
            steps.append(Step(op, entity))
            last_op[entity] = op
            break
    return steps


def lock_wrap(
    name: str,
    data_steps: Sequence[Step],
    style: str,
    rng: random.Random,
    use_shared: bool = False,
) -> Transaction:
    """Wrap data steps in locks according to the given style.

    The result is well formed (I/D/W under exclusive locks, R under shared
    or exclusive) and locks each entity at most once.
    """
    data_steps = list(data_steps)
    first_use: dict = {}
    last_use: dict = {}
    needs_x: set = set()
    for i, s in enumerate(data_steps):
        first_use.setdefault(s.entity, i)
        last_use[s.entity] = i
        if s.op is not Operation.READ:
            needs_x.add(s.entity)

    def mode_for(entity: Entity) -> LockMode:
        if entity in needs_x or not use_shared:
            return LockMode.EXCLUSIVE
        return LockMode.SHARED

    if style == "2pl":
        ordered = sorted(first_use, key=first_use.get)  # type: ignore[arg-type]
        steps: List[Step] = [Step(mode_for(e).lock_op, e) for e in ordered]
        steps.extend(data_steps)
        steps.extend(Step(mode_for(e).unlock_op, e) for e in ordered)
        return Transaction(name, tuple(steps))

    # Non-two-phase styles: insert lock before first use, unlock at (early)
    # the step after last use or (chaotic) a random later position.
    n = len(data_steps)
    unlock_at: dict = {}
    for e, last in last_use.items():
        if style == "early":
            unlock_at[e] = last + 1
        elif style == "chaotic":
            unlock_at[e] = rng.randint(last + 1, n)
        else:
            raise ValueError(f"unknown locking style {style!r}")
    steps = []
    for i, s in enumerate(data_steps):
        for e, pos in unlock_at.items():
            if pos == i:
                steps.append(Step(mode_for(e).unlock_op, e))
        if first_use[s.entity] == i:
            steps.append(Step(mode_for(s.entity).lock_op, s.entity))
        steps.append(s)
    for e, pos in sorted(unlock_at.items(), key=lambda kv: repr(kv)):
        if pos >= n:
            steps.append(Step(mode_for(e).unlock_op, e))
    return Transaction(name, tuple(steps))


def corpus_initial_state(num_entities: int):
    """The structural state the random corpus runs from: every entity of the
    pool present (R/W/D defined immediately; I defined after a D)."""
    from ..core.states import StructuralState

    return StructuralState(frozenset(chr(ord("a") + i) for i in range(num_entities)))


def random_locked_system(
    num_txns: int = 2,
    num_entities: int = 3,
    steps_per_txn: int = 3,
    style: str = "chaotic",
    seed: int | random.Random = 0,
    use_shared: bool = False,
) -> List[Transaction]:
    """A random locked transaction system for the decider-equivalence corpus.

    ``style`` may also be ``"mixed"``: each transaction draws its own style
    uniformly from {2pl, early, chaotic}.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    entities = [chr(ord("a") + i) for i in range(num_entities)]
    txns: List[Transaction] = []
    for i in range(num_txns):
        data = random_data_steps(entities, steps_per_txn, rng)
        s = style
        if style == "mixed":
            s = rng.choice(["2pl", "early", "chaotic"])
        txns.append(lock_wrap(f"T{i + 1}", data, s, rng, use_shared))
    return txns


def fig2_system() -> List[Transaction]:
    """A three-transaction system with the structure of the paper's Fig. 2.

    The figure itself is not printed in the text, so this is a semantic
    reconstruction with the three properties the paper states:

    * the interaction graph has a *pair* of (conflict) edges between every
      two transactions, so the only chordless cycles are 2-node ones;
    * no schedule involving only two of the three transactions is proper
      (each transaction writes entities only a third one inserts);
    * a proper, legal, **nonserializable** schedule of all three exists.

    Each ``T_i`` inserts two fresh entities and then writes the two entities
    inserted by ``T_{i-1}`` (cyclically), locking each entity just around
    its step (non-two-phase).
    """
    def ring(name: str, ins: Tuple[str, str], wr: Tuple[str, str]) -> Transaction:
        text = " ".join(
            [f"(LX {ins[0]}) (I {ins[0]}) (UX {ins[0]})",
             f"(LX {ins[1]}) (I {ins[1]}) (UX {ins[1]})",
             f"(LX {wr[0]}) (W {wr[0]}) (UX {wr[0]})",
             f"(LX {wr[1]}) (W {wr[1]}) (UX {wr[1]})"]
        )
        return Transaction.from_text(name, text)

    return [
        ring("T1", ("a", "a2"), ("c", "c2")),
        ring("T2", ("b", "b2"), ("a", "a2")),
        ring("T3", ("c", "c2"), ("b", "b2")),
    ]


def fig2_proper_schedule():
    """The schedule ``S_p`` of Fig. 2: all inserts first (serially), then the
    cyclic writes — proper, legal, and nonserializable."""
    from ..core.schedules import Schedule

    txns = fig2_system()
    order = (
        ["T1"] * 6 + ["T2"] * 6 + ["T3"] * 6  # the two insert blocks each
        + ["T1"] * 6 + ["T2"] * 6 + ["T3"] * 6  # the two write blocks each
    )
    return Schedule.from_order(txns, order)
