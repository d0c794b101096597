"""The parallel experiment grid and the harness correctness fixes.

1. ``run_grid(spec, workers=0)`` reproduces the serial ``run_cell`` path
   exactly (same rows from the same seeds), and ``workers >= 2`` reproduces
   ``workers=0`` byte-identically — the grid's core contract;
2. every registered workload factory is deterministic *across processes*:
   the same seed yields identical items and initial state whether built
   in-process or in a spawned worker (what makes by-name fan-out sound);
3. every row carries a real serializability verdict (a bool; an
   all-failed cell is covered by ``test_scheduler_fixes``);
4. failed seeds are recorded as diagnosable ``(seed, error)`` pairs,
   truncated like ``SimulationError`` live lists;
5. mean/stdev aggregation works over the summaries' key intersection, so a
   partially-present metric cannot KeyError mid-aggregation.
"""

from __future__ import annotations

import multiprocessing
import sys

import pytest

from repro.core.states import StructuralState
from repro.policies import Access, DdagPolicy, TwoPhasePolicy
from repro.sim import (
    FAILED_SEEDS_LIMIT,
    GRID_FACTORIES,
    GridSpec,
    PolicySpec,
    SeedOutcome,
    WorkloadItem,
    WorkloadSpec,
    aggregate_outcomes,
    grid_factory,
    long_transaction_workload,
    run_cell,
    run_grid,
    traversal_workload,
)
from repro.graphs import random_rooted_dag

# ----------------------------------------------------------------------
# 1. Grid equivalence: workers=0 == run_cell, workers=2 == workers=0
# ----------------------------------------------------------------------


class TestGridEquivalence:
    def test_workers0_matches_legacy_run_cell(self):
        spec = GridSpec(
            policies=(PolicySpec(TwoPhasePolicy),),
            workloads=(WorkloadSpec(
                "long_transaction", {"num_entities": 5, "num_short": 2},
            ),),
            seeds=(0, 1, 2, 3),
        )
        [grid_cell] = run_grid(spec, workers=0)
        legacy = run_cell(
            TwoPhasePolicy(),
            "long_transaction",
            lambda seed: long_transaction_workload(5, 2, seed=seed),
            seeds=range(4),
        )
        assert grid_cell == legacy
        assert grid_cell.row() == legacy.row()

    def test_workers0_matches_legacy_run_cell_with_context(self):
        """The DDAG cell: the registered factory supplies the context
        kwargs the legacy path got from ``context_kwargs_factory``."""
        spec = GridSpec(
            policies=(PolicySpec(DdagPolicy),),
            workloads=(WorkloadSpec(
                "traversal",
                {"nodes": 8, "edge_prob": 0.25, "num_txns": 4, "walk_length": 4},
            ),),
            seeds=(0, 1, 2),
        )
        [grid_cell] = run_grid(spec, workers=0)
        legacy = run_cell(
            DdagPolicy(),
            "traversal",
            lambda seed: traversal_workload(
                random_rooted_dag(8, 0.25, seed=seed), 4, 4, seed=seed
            ),
            seeds=range(3),
            context_kwargs_factory=lambda seed: {
                "dag": random_rooted_dag(8, 0.25, seed=seed).snapshot()
            },
        )
        assert grid_cell == legacy

    def test_parallel_matches_serial(self):
        spec = GridSpec(
            policies=(PolicySpec(TwoPhasePolicy), PolicySpec(DdagPolicy)),
            workloads=(
                WorkloadSpec("traversal", {"nodes": 8, "num_txns": 4}),
                WorkloadSpec("dynamic_traversal", {
                    "nodes": 8, "num_txns": 4, "insert_prob": 0.5,
                }),
            ),
            seeds=(0, 1),
        )
        serial = run_grid(spec, workers=0)
        parallel = run_grid(spec, workers=2)
        assert len(serial) == 4  # cross product
        assert serial == parallel

    def test_streamed_progress_sees_every_cell(self):
        spec = GridSpec(
            policies=(PolicySpec(TwoPhasePolicy),),
            workloads=(
                WorkloadSpec("random_access", {
                    "num_entities": 10, "num_txns": 4,
                }),
                WorkloadSpec("long_transaction", {
                    "num_entities": 4, "num_short": 1,
                }),
            ),
            seeds=(0, 1),
        )
        streamed = []
        results = run_grid(spec, workers=2, progress=streamed.append)
        # Cells may complete out of order; the returned list is in cell
        # order and the streamed set matches it exactly.
        assert sorted(c.workload for c in streamed) == sorted(
            c.workload for c in results
        )

    def test_pairs_override_cross_product(self):
        p1, p2 = PolicySpec(TwoPhasePolicy), PolicySpec(DdagPolicy)
        w = WorkloadSpec("random_access", {"num_entities": 8, "num_txns": 3})
        spec = GridSpec(pairs=((p1, w), (p2, w)), seeds=(0,))
        assert [pw for pw in spec.cells()] == [(p1, w), (p2, w)]

    def test_unspawnable_main_fails_fast(self, monkeypatch):
        """A __main__ whose __file__ does not exist (stdin/heredoc script)
        cannot be re-imported by spawn workers; the pool would respawn
        crashing workers forever.  run_grid must refuse up front, naming
        the start method."""
        import types

        import repro.sim.grid as grid_module

        def no_pool(method):
            raise AssertionError(f"a {method!r} pool was started")

        # Were the check skipped, the test fails here instead of hanging.
        monkeypatch.setattr(grid_module.multiprocessing, "get_context", no_pool)
        fake_main = types.ModuleType("__main__")
        fake_main.__file__ = "/tmp/<stdin>"
        fake_main.__spec__ = None
        monkeypatch.setitem(sys.modules, "__main__", fake_main)
        spec = GridSpec(
            policies=(PolicySpec(TwoPhasePolicy),),
            workloads=(WorkloadSpec("random_access", {
                "num_entities": 8, "num_txns": 3,
            }),),
            seeds=(0,),
        )
        with pytest.raises(RuntimeError, match="'spawn'.*workers=0"):
            run_grid(spec, workers=2)
        # the serial path stays available regardless of __main__
        [cell] = run_grid(spec, workers=0)
        assert cell.failures == 0

    def test_empty_seed_grid_is_not_green(self):
        spec = GridSpec(
            policies=(PolicySpec(TwoPhasePolicy),),
            workloads=(WorkloadSpec("random_access", {
                "num_entities": 8, "num_txns": 3,
            }),),
            seeds=(),
        )
        [cell] = run_grid(spec, workers=0)
        assert cell.runs == 0
        assert cell.row()["serializable"] is False


# ----------------------------------------------------------------------
# 2. Cross-process factory determinism (the fan-out's soundness contract)
# ----------------------------------------------------------------------

#: Small-but-nontrivial kwargs per registered factory.  Every registered
#: name must appear here: a factory added without a determinism check is a
#: hole in the grid's correctness contract, so the test fails loud.
FACTORY_CASES = {
    "stress": {"num_entities": 40, "num_txns": 20, "arrival_rate": 2.0},
    "deadlock_storm": {"num_entities": 30, "num_txns": 12},
    "long_transaction": {"num_entities": 6, "num_short": 3},
    "random_access": {"num_entities": 20, "num_txns": 8, "hot_fraction": 0.2},
    "traversal": {"nodes": 8, "num_txns": 5, "walk_length": 4},
    "dynamic_traversal": {"nodes": 8, "num_txns": 5, "insert_prob": 0.5},
}


def _fingerprint(name: str, kwargs: dict, seed: int) -> dict:
    """A picklable digest of a factory's output: item identities in order,
    intent scripts, arrival ticks, restart presence, the initial state, and
    the context kwarg names.  (The items themselves can hold closures —
    restart strategies — so they never cross the process boundary; the grid
    rebuilds them in the worker, which is exactly what this digest
    verifies.)"""
    items, initial, ctx = grid_factory(name)(seed, **kwargs)
    return {
        "items": [
            (it.name, tuple(it.intents), it.start_tick, it.restart is not None)
            for it in items
        ],
        "initial": sorted(repr(e) for e in initial.entities),
        "ctx_keys": sorted(ctx),
    }


class TestCrossProcessDeterminism:
    def test_every_factory_has_a_case(self):
        assert set(FACTORY_CASES) == set(GRID_FACTORIES), (
            "every registered grid factory needs a determinism case"
        )

    @pytest.mark.parametrize("name", sorted(FACTORY_CASES))
    def test_spawned_worker_builds_identical_workload(self, name):
        kwargs = FACTORY_CASES[name]
        local = [_fingerprint(name, kwargs, seed) for seed in (0, 7)]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            remote = [
                pool.apply(_fingerprint, (name, kwargs, seed))
                for seed in (0, 7)
            ]
        assert local == remote, (
            f"{name}: same seed must build the same workload in a spawned "
            f"worker as in-process"
        )
        # Different seeds actually vary the workload (the digest is not
        # degenerate).
        assert local[0] != local[1]

    @pytest.mark.parametrize("name", sorted(FACTORY_CASES))
    def test_every_factory_runs_in_a_spawned_worker(self, name):
        """Each factory's whole cell, not just its digest, gives the same
        rows from one spawned worker as in-process.  A spec that cannot
        cross the process boundary fails here: a lambda policy constructor
        does not pickle, and a factory registered anywhere but at import
        time is unknown to the worker, which re-imports the registry
        fresh."""
        policy = DdagPolicy if "traversal" in name else TwoPhasePolicy
        spec = GridSpec(
            policies=(PolicySpec(policy),),
            workloads=(WorkloadSpec(name, FACTORY_CASES[name]),),
            seeds=(0, 1),
        )
        serial = run_grid(spec, workers=0)
        assert serial == run_grid(spec, workers=1)
        assert serial[0].runs == 2


# ----------------------------------------------------------------------
# 3. Every row carries a real verdict
# ----------------------------------------------------------------------


class TestRowVerdict:
    def test_row_verdict_is_a_bool(self):
        cell = run_cell(
            TwoPhasePolicy(), "long",
            lambda seed: long_transaction_workload(4, 1, seed=seed),
            seeds=range(2),
        )
        assert cell.row()["serializable"] is True


# ----------------------------------------------------------------------
# 4. Failed seeds are diagnosable (and truncated)
# ----------------------------------------------------------------------


class TestFailedSeeds:
    @staticmethod
    def _doomed(seed):
        items = [
            WorkloadItem("T1", [Access("a"), Access("b")]),
            WorkloadItem("T2", [Access("b"), Access("a")]),
        ]
        return items, StructuralState.of("a", "b")

    def test_failed_seed_pairs_recorded(self):
        cell = run_cell(
            TwoPhasePolicy(), "doomed", self._doomed, seeds=(3, 5),
            max_ticks=2,
        )
        assert cell.failures == 2
        assert [seed for seed, _ in cell.failed_seeds] == [3, 5]
        assert all("exceeded 2 ticks" in msg for _, msg in cell.failed_seeds)
        assert cell.row()["failed_seeds"] == [list(p) for p in cell.failed_seeds]

    def test_failed_seeds_truncated_but_fully_counted(self):
        seeds = range(FAILED_SEEDS_LIMIT + 5)
        cell = run_cell(
            TwoPhasePolicy(), "doomed", self._doomed, seeds=seeds, max_ticks=2,
        )
        assert cell.failures == len(list(seeds))
        assert len(cell.failed_seeds) == FAILED_SEEDS_LIMIT

    def test_successful_cell_has_no_failed_seeds_key(self):
        cell = run_cell(
            TwoPhasePolicy(), "long",
            lambda seed: long_transaction_workload(4, 1, seed=seed),
            seeds=range(2),
        )
        assert cell.failed_seeds == ()
        assert "failed_seeds" not in cell.row()


# ----------------------------------------------------------------------
# 5. Aggregation over the key intersection
# ----------------------------------------------------------------------


class TestKeyIntersectionAggregation:
    def test_partial_metric_does_not_keyerror(self):
        outcomes = [
            SeedOutcome(seed=0, summary={"ticks": 10.0, "experimental": 1.0}),
            SeedOutcome(seed=1, summary={"ticks": 14.0}),
        ]
        cell = aggregate_outcomes("P", "w", outcomes)
        assert cell.means == {"ticks": 12.0}
        assert "experimental" not in cell.means
        assert cell.stdevs["ticks"] == pytest.approx(2.0)

    def test_key_order_follows_first_summary(self):
        outcomes = [
            SeedOutcome(seed=0, summary={"b": 1.0, "a": 2.0}),
            SeedOutcome(seed=1, summary={"a": 4.0, "b": 3.0}),
        ]
        cell = aggregate_outcomes("P", "w", outcomes)
        assert list(cell.means) == ["b", "a"]

    def test_failed_outcomes_excluded_from_aggregation(self):
        outcomes = [
            SeedOutcome(seed=0, summary={"ticks": 10.0}, serializable=True),
            SeedOutcome(seed=1, error="exceeded 2 ticks"),
        ]
        cell = aggregate_outcomes("P", "w", outcomes)
        assert cell.runs == 1 and cell.failures == 1
        assert cell.means == {"ticks": 10.0}
        assert cell.all_serializable is True
        assert cell.failed_seeds == ((1, "exceeded 2 ticks"),)
