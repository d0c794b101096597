"""Shard invariance of the lock table.

The sharded :class:`repro.sim.LockTable` must be observably identical at
any shard count: every query and mutation is per-entity (shard-local) and
the cross-entity walks iterate the global per-transaction index in sorted
order, so ``shards=1`` and ``shards=8`` have to produce the same grants,
wake-up sets, release orders — and, end to end, byte-identical
:class:`CellResult` rows for every registered grid factory.
"""

import dataclasses
import random

import pytest

from repro.core import LockMode
from repro.policies import AltruisticPolicy, DdagPolicy, TwoPhasePolicy
from repro.sim import (
    GRID_FACTORIES,
    GridSpec,
    LockTable,
    PolicySpec,
    WorkloadSpec,
    grid_factory,
    run_grid,
    run_seed,
)

SHARD_COUNTS = (1, 2, 8)


class TestTableLevelInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_op_sequences_are_shard_invariant(self, seed):
        """Apply one seeded random op sequence to differently sharded
        tables; every return value (wake sets, released lists) and every
        observable view (holders, waiters, held_by) must match at each
        step."""
        rng = random.Random(seed)
        entities = [f"e{i}" for i in range(12)]
        txns = [f"T{i}" for i in range(8)]
        tables = [LockTable(shards=s) for s in SHARD_COUNTS]
        for _ in range(400):
            op = rng.random()
            t, e = rng.choice(txns), rng.choice(entities)
            mode = rng.choice((LockMode.SHARED, LockMode.EXCLUSIVE))
            if op < 0.4:
                if tables[0].grantable(t, e, mode):
                    for table in tables:
                        table.acquire(t, e, mode)
                else:
                    outs = [table.add_waiter(t, e, mode) for table in tables]
                    assert outs.count(None) == len(tables)
            elif op < 0.65:
                outs = [table.release(t, e, mode) for table in tables]
                assert all(o == outs[0] for o in outs), "wake sets diverge"
            elif op < 0.8:
                outs = [table.release_all_wake(t) for table in tables]
                assert all(o == outs[0] for o in outs), (
                    "release order / combined wake sets diverge"
                )
            else:
                for table in tables:
                    table.remove_waiter(t)
            ref = tables[0]
            for table in tables[1:]:
                for entity in entities:
                    assert table.holders(entity) == ref.holders(entity)
                    assert table.waiter_modes(entity) == ref.waiter_modes(entity)
                for txn in txns:
                    assert table.held_by(txn) == ref.held_by(txn)
                    assert table.waiting_entity(txn) == ref.waiting_entity(txn)
                assert table.locked_entities() == ref.locked_entities()

    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError, match="shards"):
            LockTable(shards=0)

    def test_upgrade_release_semantics_survive_sharding(self):
        for shards in SHARD_COUNTS:
            t = LockTable(shards=shards)
            t.acquire("T1", "a", LockMode.SHARED)
            t.acquire("T1", "a", LockMode.EXCLUSIVE)
            t.add_waiter("T2", "a", LockMode.SHARED)
            assert t.release("T1", "a", LockMode.SHARED) == []
            assert t.release("T1", "a", LockMode.EXCLUSIVE) == ["T2"]


# Small-but-contended kwargs per registered factory, plus the policy that
# exercises the factory's intended scenario.
FACTORY_CELLS = {
    "stress": (
        TwoPhasePolicy,
        {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
         "hot_fraction": 0.1},
    ),
    "deadlock_storm": (
        TwoPhasePolicy,
        {"num_entities": 20, "num_txns": 30, "accesses_per_txn": 2,
         "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7},
    ),
    "long_transaction": (
        AltruisticPolicy,
        {"num_entities": 12, "num_short": 6, "short_start": 4},
    ),
    "random_access": (TwoPhasePolicy, {"num_entities": 8, "num_txns": 8}),
    "traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
    "dynamic_traversal": (DdagPolicy, {"nodes": 8, "num_txns": 5}),
}


class TestFullRunInvariance:
    @pytest.mark.parametrize("factory_name", sorted(GRID_FACTORIES))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_every_factory_is_shard_invariant(self, factory_name, seed):
        """Property: for every registered grid factory, a seeded run's
        whole :class:`SeedOutcome` (metric summary, work counters,
        serializability verdict) is identical at every shard count."""
        assert factory_name in FACTORY_CELLS, (
            f"add a FACTORY_CELLS entry for new factory {factory_name!r}"
        )
        policy_cls, kwargs = FACTORY_CELLS[factory_name]
        outcomes = []
        for shards in SHARD_COUNTS:
            items, initial, context_kwargs = grid_factory(factory_name)(
                seed, **kwargs
            )
            outcomes.append(run_seed(
                policy_cls(), items, initial, seed,
                context_kwargs=context_kwargs,
                max_ticks=500_000,
                lock_shards=shards,
            ))
        ref = outcomes[0]
        assert ref.error is None, f"seed run failed: {ref.error}"
        for shards, outcome in zip(SHARD_COUNTS[1:], outcomes[1:]):
            assert outcome.summary == ref.summary, (
                f"{factory_name}: summary diverges at shards={shards}"
            )
            assert outcome.work == ref.work, (
                f"{factory_name}: work counters diverge at shards={shards}"
            )
            assert outcome.serializable == ref.serializable
            assert outcome.error == ref.error

    def test_grid_cell_rows_identical_across_shard_counts(self):
        """End to end through the grid runner: ``lock_shards=8`` must
        produce byte-identical ``CellResult.row()`` dicts to the
        single-partition reference on a multi-cell grid."""
        spec = GridSpec(
            policies=(PolicySpec(TwoPhasePolicy), PolicySpec(AltruisticPolicy)),
            workloads=(
                WorkloadSpec("deadlock_storm", {
                    "num_entities": 20, "num_txns": 25, "accesses_per_txn": 2,
                    "arrival_rate": 0.5, "hot_set_size": 4, "hot_traffic": 0.7,
                }),
            ),
            seeds=(0, 1),
            max_ticks=500_000,
            lock_shards=1,
        )
        reference = run_grid(spec, workers=0)
        sharded = run_grid(
            dataclasses.replace(spec, lock_shards=8), workers=0
        )
        assert [c.row() for c in sharded] == [c.row() for c in reference]
        assert [c.work_means for c in sharded] == [
            c.work_means for c in reference
        ]
