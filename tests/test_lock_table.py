"""The lock table against a dict-of-sets model.

:class:`repro.sim.LockTable` is checked op by op against
:class:`ModelTable`, a deliberately naive restatement of its contract:
every return value (wake-up sets, ``release_all_wake``'s released list
and its order), every conflict answer (``blockers`` in holder order,
``grantable``), every view (``holders``, ``waiter_modes``, ``held_by``,
``waiting_entity``, ``locked_entities``) and the exclusive-holder index
must agree after each operation of a seeded random sequence.
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

    def blockers(self, txn, entity, mode):
        return [
            t for t, m in self.holders(entity).items()
            if t != txn and not (mode is S and m is S)
        ]

    def grantable(self, txn, entity, mode):
        return not self.blockers(txn, entity, mode)

    def exclusive(self):
        """entity -> holders whose modes include X, entities with none
        left out: what the table's index must hold."""
        index = {
            e: {t for t, modes in hs.items() if X in modes}
            for e, hs in self.held.items()
        }
        return {e: ts for e, ts in index.items() if ts}

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


#: (entities, transactions, share of ops on the first three entities,
#: share of SHARED requests).  ``hot``: holders share and waiters queue
#: on a small hot set.  ``spread``: mostly uncontended, so
#: release_all_wake walks wide footprints.  ``pair``: two transactions on
#: two entities, so most ops are upgrades, re-acquires and releases of a
#: mode still held.  ``shared``: many-holder S sets that the occasional
#: X request (an upgrade, once the others have left) has to meet.
PROFILES = {
    "hot": (12, 8, 0.7, 0.5),
    "spread": (12, 8, 0.0, 0.5),
    "pair": (2, 2, 0.0, 0.5),
    "shared": (3, 24, 0.0, 0.9),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_random_op_sequences_match_the_model(profile, seed):
    """Apply one seeded random op sequence to the table and the model;
    every return value and every observable view must match at each
    step."""
    rng = random.Random(seed)
    n_entities, n_txns, hot_share, shared_share = PROFILES[profile]
    entities = [f"e{i}" for i in range(n_entities)]
    txns = [f"T{i}" for i in range(n_txns)]
    table, model = LockTable(), ModelTable()
    for step in range(400):
        op = rng.random()
        t = rng.choice(txns)
        e = rng.choice(entities[:3] if rng.random() < hot_share else entities)
        mode = S if rng.random() < shared_share else X
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
            assert list(table.queue(entity).items()) == model.waiter_modes(
                entity
            ), where
        for txn in txns:
            assert table.held_by(txn) == model.held_by(txn), where
            assert table.waiting_entity(txn) == model.waiting_entity(txn), where
        assert table.locked_entities() == model.locked_entities(), where
        assert table._exclusive == model.exclusive(), where
        for entity in entities:
            for m in (S, X):
                assert table.blockers(None, entity, m) == model.blockers(
                    None, entity, m
                ), where
                for txn in txns:
                    expected = model.blockers(txn, entity, m)
                    assert table.blockers(txn, entity, m) == expected, where
                    assert table.grantable(txn, entity, m) == (not expected), where


def test_upgrade_release_semantics():
    t = LockTable()
    t.acquire("T1", "a", S)
    t.acquire("T1", "a", X)
    t.add_waiter("T2", "a", S)
    assert t.release("T1", "a", S) == []
    assert t.release("T1", "a", X) == ["T2"]


class TestWakeSetFastPath:
    """A release that leaves the entity with no holder wakes every other
    queued name, in arrival order, without a conflict query per waiter;
    a release that leaves holders still filters waiter by waiter, but
    through ``grantable``, which builds no ``blockers`` list.  Both are
    checked against the model."""

    @staticmethod
    def build(queries, holders, waiters):
        table, model = LockTable(), ModelTable()
        for side in (table, model):
            for txn, entity, mode in holders:
                side.acquire(txn, entity, mode)
            for txn, entity, mode in waiters:
                side.add_waiter(txn, entity, mode)
        queries.clear()  # the grants queried too
        return table, model

    @pytest.fixture
    def queries(self, monkeypatch):
        calls = []
        blockers = LockTable.blockers

        def counted(self, txn, entity, mode):
            calls.append(txn)
            return blockers(self, txn, entity, mode)

        monkeypatch.setattr(LockTable, "blockers", counted)
        return calls

    def test_a_release_that_frees_the_entity_wakes_every_waiter(self, queries):
        table, model = self.build(
            queries,
            [("T1", "a", X)],
            [("W3", "a", X), ("W1", "a", S), ("W2", "a", X)],
        )
        woken = table.release("T1", "a", X)
        assert woken == model.release("T1", "a", X) == ["W3", "W1", "W2"]
        assert queries == []
        assert table.waiter_modes("a") == model.waiter_modes("a")

    def test_release_all_wake_that_frees_every_entity(self, queries):
        table, model = self.build(
            queries,
            [("T1", "a", X), ("T1", "b", S), ("T1", "b", X)],
            [("W2", "a", X), ("W1", "a", S), ("W3", "b", X)],
        )
        result = table.release_all_wake("T1")
        assert result == model.release_all_wake("T1")
        assert result[1] == ["W2", "W1", "W3"]
        assert queries == []

    def test_a_release_under_s_sharing_filters_per_waiter(self, queries):
        # T2 still holds S: the X waiter stays blocked, T2's own upgrade
        # and the S waiter are grantable.
        table, model = self.build(
            queries,
            [("T1", "a", S), ("T2", "a", S)],
            [("W1", "a", X), ("T2", "a", X), ("W2", "a", S)],
        )
        woken = table.release("T1", "a", S)
        assert woken == model.release("T1", "a", S) == ["T2", "W2"]
        assert queries == []

    def test_an_x_to_s_downgrade_filters_per_waiter(self, queries):
        table, model = self.build(
            queries,
            [("T1", "a", S), ("T1", "a", X)],
            [("W1", "a", X), ("W2", "a", S)],
        )
        woken = table.release("T1", "a", X)
        assert woken == model.release("T1", "a", X) == ["W2"]
        assert queries == []
        assert table.holders("a") == model.holders("a") == {"T1": S}


def test_conflict_answers_read_no_holder_modes(monkeypatch):
    """On an entity shared by 200 holders with 200 queued waiters, the
    conflict answers and a holder's release come from the exclusive-holder
    index and the holder count: no holder's mode set is read."""
    holders = [f"H{i}" for i in range(200)]
    waiters = [(f"W{i}", S if i % 2 else X) for i in range(200)]
    table, model = LockTable(), ModelTable()
    for side in (table, model):
        for h in holders:
            side.acquire(h, "a", S)
        for w, mode in waiters:
            side.add_waiter(w, "a", mode)
    calls = []
    effective = LockTable._effective

    def counted(modes):
        calls.append(modes)
        return effective(modes)

    monkeypatch.setattr(LockTable, "_effective", staticmethod(counted))
    assert table.grantable("W0", "a", S)
    assert table.blockers("W0", "a", S) == []
    assert table.blockers("W0", "a", X) == holders
    woken = table.release("H0", "a", S)
    assert calls == []
    assert woken == model.release("H0", "a", S) == [w for w, m in waiters if m is S]
