"""Pinned simulator behaviour for every registered grid factory.

Each case runs one ``(factory, policy, seed)`` cell on one engine and
compares what the run did with its record in ``pinned_schedules.json``:
a digest of the schedule's events and deadlock victims, the event count,
the metric summary and the serializability verdict — or, for a cell the
policy refuses, the refusal.  The records were taken while the classify
phase still walked per-shard slices, and every shard count and executor
produced them identically, so a classify walk that visits one session
out of order, skips one, or visits one twice fails here on some cell.

Both engines are pinned against the same record, so a change that moves
the naive reference and the event engine together is caught too.

Regenerate the records only for an intended behaviour change::

    PYTHONPATH=src python tests/test_pinned_schedules.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.core.serializability import is_serializable
from repro.exceptions import PolicyViolation
from repro.policies import AltruisticPolicy, DdagPolicy, DtrPolicy, TwoPhasePolicy
from repro.sim import GRID_FACTORIES, Simulator, grid_factory

RECORDS = pathlib.Path(__file__).with_name("pinned_schedules.json")

# Small-but-contended kwargs per registered factory.
FACTORY_KWARGS = {
    "stress": {"num_entities": 30, "num_txns": 40, "arrival_rate": 1.0,
               "hot_fraction": 0.1},
    "deadlock_storm": {"num_entities": 20, "num_txns": 30,
                       "accesses_per_txn": 2, "arrival_rate": 0.5,
                       "hot_set_size": 4, "hot_traffic": 0.7},
    "long_transaction": {"num_entities": 12, "num_short": 6, "short_start": 4},
    "random_access": {"num_entities": 8, "num_txns": 8},
    "traversal": {"nodes": 8, "num_txns": 5},
    "dynamic_traversal": {"nodes": 8, "num_txns": 5},
}
POLICIES = {
    p.__name__: p
    for p in (TwoPhasePolicy, DdagPolicy, DtrPolicy, AltruisticPolicy)
}
SEEDS = (0, 1)
ENGINES = ("event", "naive")


def cells():
    """Every (factory, policy, seed) the policy can be handed: DDAG runs
    only workloads that carry a DAG."""
    for factory in sorted(FACTORY_KWARGS):
        carries_dag = "dag" in grid_factory(factory)(
            0, **FACTORY_KWARGS[factory]
        )[2]
        for policy in sorted(POLICIES):
            if policy == "DdagPolicy" and not carries_dag:
                continue
            for seed in SEEDS:
                yield f"{factory}/{policy}/seed{seed}"


def observe(cell, engine):
    """Run one cell on one engine and reduce it to its record."""
    factory, policy, seed = cell.split("/")
    seed = int(seed[len("seed"):])
    items, initial, context_kwargs = grid_factory(factory)(
        seed, **FACTORY_KWARGS[factory]
    )
    sim = Simulator(
        POLICIES[policy](), seed=seed, max_ticks=500_000,
        context_kwargs=context_kwargs, engine=engine,
    )
    try:
        result = sim.run(items, initial)
    except PolicyViolation as exc:
        return {"refused": type(exc).__name__}
    digest = hashlib.sha256()
    for event in result.schedule.events:
        digest.update(f"{event}\n".encode())
    digest.update("\n".join(result.metrics.deadlock_victims).encode())
    return {
        "schedule_sha256": digest.hexdigest(),
        "events": len(result.schedule.events),
        "summary": result.metrics.summary(),
        "serializable": is_serializable(result.schedule),
    }


def load_records():
    return json.loads(RECORDS.read_text())


def test_every_registered_factory_is_pinned():
    assert set(FACTORY_KWARGS) == set(GRID_FACTORIES)
    assert sorted(load_records()) == sorted(cells())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("cell", list(cells()))
def test_run_matches_its_record(cell, engine):
    assert observe(cell, engine) == load_records()[cell], (
        f"{cell} on the {engine} engine no longer behaves as recorded"
    )


if __name__ == "__main__":
    records = {cell: observe(cell, "naive") for cell in cells()}
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {RECORDS}")
