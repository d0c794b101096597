"""The lock table against a dict-of-sets model.

:class:`repro.sim.LockTable` is checked op by op against
:class:`ModelTable`, a deliberately naive restatement of its contract:
every return value (wake-up sets, ``release_all_wake``'s released list
and its order) and every view (``holders``, ``waiter_modes``,
``held_by``, ``waiting_entity``, ``locked_entities``) must agree after
each operation of a seeded random sequence.
"""

import random

import pytest

from repro.core import LockMode
from repro.sim import LockTable

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


class ModelTable:
    """entity -> {txn: set of modes}, entity -> {waiter: mode} in arrival
    order, and nothing else: every answer is recomputed from those."""

    def __init__(self):
        self.held = {}
        self.queued = {}

    def strongest(self, txn, entity):
        modes = self.held.get(entity, {}).get(txn)
        return None if not modes else (X if X in modes else S)

    def holders(self, entity):
        return {t: self.strongest(t, entity) for t in self.held.get(entity, {})}

    def grantable(self, txn, entity, mode):
        return all(
            t == txn or (mode is S and m is S)
            for t, m in self.holders(entity).items()
        )

    def acquire(self, txn, entity, mode):
        self.held.setdefault(entity, {}).setdefault(txn, set()).add(mode)

    def _wakes(self, txn, entity):
        return [
            w for w, m in self.queued.get(entity, {}).items()
            if w != txn and self.grantable(w, entity, m)
        ]

    def _drop(self, txn, entity, modes):
        before = self.strongest(txn, entity)
        holder = self.held[entity][txn]
        holder -= modes
        if not holder:
            del self.held[entity][txn]
            if not self.held[entity]:
                del self.held[entity]
        return before

    def release(self, txn, entity, mode):
        if mode not in self.held.get(entity, {}).get(txn, ()):
            return []
        before = self._drop(txn, entity, {mode})
        weakened = self.strongest(txn, entity) is not before
        return self._wakes(txn, entity) if weakened else []

    def release_all_wake(self, txn):
        self.remove_waiter(txn)
        released = [
            (e, self._drop(txn, e, {S, X}))
            for e in sorted((e for e in self.held if txn in self.held[e]), key=repr)
        ]
        woken = []
        for entity, _ in released:
            woken += [w for w in self._wakes(txn, entity) if w not in woken]
        return released, woken

    def add_waiter(self, txn, entity, mode):
        if self.waiting_entity(txn) not in (None, entity):
            self.remove_waiter(txn)
        self.queued.setdefault(entity, {})[txn] = mode

    def remove_waiter(self, txn):
        for entity in [e for e, q in self.queued.items() if txn in q]:
            del self.queued[entity][txn]
            if not self.queued[entity]:
                del self.queued[entity]

    def waiter_modes(self, entity):
        return list(self.queued.get(entity, {}).items())

    def waiting_entity(self, txn):
        return next((e for e, q in self.queued.items() if txn in q), None)

    def held_by(self, txn):
        return {
            e: self.strongest(txn, e)
            for e in sorted((e for e in self.held if txn in self.held[e]), key=repr)
        }

    def locked_entities(self):
        return frozenset(self.held)


#: (entities, transactions, share of ops on the first three entities).
#: ``hot``: holders share and waiters queue on a small hot set.
#: ``spread``: mostly uncontended, so release_all_wake walks wide
#: footprints.  ``pair``: two transactions on two entities, so most ops
#: are upgrades, re-acquires and releases of a mode still held.
PROFILES = {"hot": (12, 8, 0.7), "spread": (12, 8, 0.0), "pair": (2, 2, 0.0)}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_random_op_sequences_match_the_model(profile, seed):
    """Apply one seeded random op sequence to the table and the model;
    every return value and every observable view must match at each
    step."""
    rng = random.Random(seed)
    n_entities, n_txns, hot_share = PROFILES[profile]
    entities = [f"e{i}" for i in range(n_entities)]
    txns = [f"T{i}" for i in range(n_txns)]
    table, model = LockTable(), ModelTable()
    for step in range(400):
        op = rng.random()
        t = rng.choice(txns)
        e = rng.choice(entities[:3] if rng.random() < hot_share else entities)
        mode = rng.choice((S, X))
        where = f"{profile} seed {seed} step {step}"
        if op < 0.4:
            assert table.grantable(t, e, mode) == model.grantable(t, e, mode), where
            if model.grantable(t, e, mode):
                table.acquire(t, e, mode)
                model.acquire(t, e, mode)
            else:
                table.add_waiter(t, e, mode)
                model.add_waiter(t, e, mode)
        elif op < 0.65:
            assert table.release(t, e, mode) == model.release(t, e, mode), (
                f"{where}: wake sets diverge"
            )
        elif op < 0.8:
            assert table.release_all_wake(t) == model.release_all_wake(t), (
                f"{where}: release order / combined wake sets diverge"
            )
        else:
            table.remove_waiter(t)
            model.remove_waiter(t)
        for entity in entities:
            assert table.holders(entity) == model.holders(entity), where
            assert table.waiter_modes(entity) == model.waiter_modes(entity), where
        for txn in txns:
            assert table.held_by(txn) == model.held_by(txn), where
            assert table.waiting_entity(txn) == model.waiting_entity(txn), where
        assert table.locked_entities() == model.locked_entities(), where


def test_upgrade_release_semantics():
    t = LockTable()
    t.acquire("T1", "a", S)
    t.acquire("T1", "a", X)
    t.add_waiter("T2", "a", S)
    assert t.release("T1", "a", S) == []
    assert t.release("T1", "a", X) == ["T2"]
