"""The cell runner over registered workload factories, and the harness
correctness fixes.

1. a registered factory with its keyword arguments bound
   (``functools.partial(grid_factory(name), **kwargs)``) gives the same
   cell as the generator it wraps, context kwargs included;
2. every registered workload factory is deterministic — the same seed
   builds the same items and initial state — and every one runs as a
   ``run_cell`` cell (cross-interpreter determinism of every factory is
   checked by ``test_pinned_schedules.py``);
3. every row carries a real serializability verdict (a bool; an
   all-failed cell is covered by ``test_scheduler_fixes``);
4. failed seeds are recorded as diagnosable ``(seed, error)`` pairs,
   truncated like ``SimulationError`` live lists;
5. mean/stdev aggregation works over the summaries' key intersection, so a
   partially-present metric cannot KeyError mid-aggregation.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.states import StructuralState
from repro.policies import Access, DdagPolicy, TwoPhasePolicy
from repro.sim import (
    FAILED_SEEDS_LIMIT,
    GRID_FACTORIES,
    SeedOutcome,
    WorkloadItem,
    aggregate_outcomes,
    grid_factory,
    long_transaction_workload,
    run_cell,
    traversal_workload,
)
from repro.graphs import random_rooted_dag

# ----------------------------------------------------------------------
# 1. A registered factory is the generator it wraps
# ----------------------------------------------------------------------


class TestRegisteredFactories:
    def test_matches_its_generator(self):
        registered = run_cell(
            TwoPhasePolicy(), "long_transaction",
            partial(
                grid_factory("long_transaction"), num_entities=5, num_short=2,
            ),
            seeds=range(4),
        )
        direct = run_cell(
            TwoPhasePolicy(), "long_transaction",
            lambda seed: (*long_transaction_workload(5, 2, seed=seed), {}),
            seeds=range(4),
        )
        assert registered == direct
        assert registered.row() == direct.row()

    def test_matches_its_generator_with_context(self):
        """The DDAG cell: the registered factory supplies the DAG context
        a hand-written factory builds from the same seed."""
        registered = run_cell(
            DdagPolicy(), "traversal",
            partial(
                grid_factory("traversal"),
                nodes=8, edge_prob=0.25, num_txns=4, walk_length=4,
            ),
            seeds=range(3),
        )

        def direct_factory(seed):
            dag = random_rooted_dag(8, 0.25, seed=seed)
            items, initial = traversal_workload(dag, 4, 4, seed=seed)
            return items, initial, {"dag": dag.snapshot()}

        direct = run_cell(DdagPolicy(), "traversal", direct_factory, range(3))
        assert registered == direct

    def test_empty_seed_cell_is_not_green(self):
        cell = run_cell(
            TwoPhasePolicy(), "random_access",
            partial(
                grid_factory("random_access"), num_entities=8, num_txns=3,
            ),
            seeds=(),
        )
        assert cell.runs == 0
        assert cell.row()["serializable"] is False


# ----------------------------------------------------------------------
# 2. Factory determinism, and every factory runs as a cell
# ----------------------------------------------------------------------

#: Small-but-nontrivial kwargs per registered factory.  Every registered
#: name must appear here: a factory added without a determinism check is a
#: hole in the harness's correctness contract, so the test fails loud.
FACTORY_CASES = {
    "stress": {"num_entities": 40, "num_txns": 20, "arrival_rate": 2.0},
    "deadlock_storm": {"num_entities": 30, "num_txns": 12},
    "long_transaction": {"num_entities": 6, "num_short": 3},
    "random_access": {"num_entities": 20, "num_txns": 8, "hot_fraction": 0.2},
    "traversal": {"nodes": 8, "num_txns": 5, "walk_length": 4},
    "dynamic_traversal": {"nodes": 8, "num_txns": 5, "insert_prob": 0.5},
}


def _fingerprint(name: str, kwargs: dict, seed: int) -> dict:
    """A comparable digest of a factory's output: item identities in
    order, intent scripts, arrival ticks, restart presence, the initial
    state, and the context kwarg names.  (The items themselves hold
    closures — restart strategies — which compare by identity, so two
    builds are compared through this digest.)"""
    items, initial, ctx = grid_factory(name)(seed, **kwargs)
    return {
        "items": [
            (it.name, tuple(it.intents), it.start_tick, it.restart is not None)
            for it in items
        ],
        "initial": sorted(repr(e) for e in initial.entities),
        "ctx_keys": sorted(ctx),
    }


class TestFactoryDeterminism:
    def test_every_factory_has_a_case(self):
        assert set(FACTORY_CASES) == set(GRID_FACTORIES), (
            "every registered grid factory needs a determinism case"
        )

    @pytest.mark.parametrize("name", sorted(FACTORY_CASES))
    def test_same_seed_builds_identical_workload(self, name):
        kwargs = FACTORY_CASES[name]
        first = [_fingerprint(name, kwargs, seed) for seed in (0, 7)]
        again = [_fingerprint(name, kwargs, seed) for seed in (0, 7)]
        assert first == again, (
            f"{name}: the same seed must build the same workload"
        )
        # Different seeds actually vary the workload (the digest is not
        # degenerate).
        assert first[0] != first[1]

    @pytest.mark.parametrize("name", sorted(FACTORY_CASES))
    def test_every_factory_runs_in_a_cell(self, name):
        """Each factory's whole cell runs: DDAG over the traversal
        factories (whose DAG context it needs), 2PL over the others."""
        policy = DdagPolicy() if "traversal" in name else TwoPhasePolicy()
        cell = run_cell(
            policy, name, partial(grid_factory(name), **FACTORY_CASES[name]),
            seeds=(0, 1),
        )
        assert (cell.runs, cell.failures) == (2, 0)
        assert cell.row()["serializable"] is True


# ----------------------------------------------------------------------
# 3. Every row carries a real verdict
# ----------------------------------------------------------------------


class TestRowVerdict:
    def test_row_verdict_is_a_bool(self):
        cell = run_cell(
            TwoPhasePolicy(), "long",
            partial(
                grid_factory("long_transaction"), num_entities=4, num_short=1,
            ),
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
        return items, StructuralState.of("a", "b"), {}

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
            partial(
                grid_factory("long_transaction"), num_entities=4, num_short=1,
            ),
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
