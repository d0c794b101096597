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
the naive reference and the event engine together is caught too.  At the
default kwargs the order a DDAG session auto-releases in, or an
altruistic session drains in, never reaches the schedule, so a few
scaled cells pin it: a larger DDAG traversal, and altruistic sessions
that do not donate and so drain two or more held entities at once.  One
more case reruns every cell in a fresh interpreter under another
``PYTHONHASHSEED``: a schedule that follows set order over str keys or
over ``LockMode``/``Operation`` members (hashed by address) differs
between processes, and fails there within one run.

Regenerate the records only for an intended behaviour change::

    PYTHONPATH=src python tests/test_pinned_schedules.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from functools import partial

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
#: Cells at a scale where release order reaches the schedule:
#: name -> (factory, kwargs, policy constructor).
SCALED_CELLS = {
    "dynamic_traversal[nodes=20,num_txns=16]/DdagPolicy": (
        "dynamic_traversal", {"nodes": 20, "num_txns": 16}, DdagPolicy,
    ),
    "random_access/AltruisticPolicy[donate_immediately=False]": (
        "random_access", FACTORY_KWARGS["random_access"],
        partial(AltruisticPolicy, donate_immediately=False),
    ),
    "stress/AltruisticPolicy[donate_immediately=False]": (
        "stress", FACTORY_KWARGS["stress"],
        partial(AltruisticPolicy, donate_immediately=False),
    ),
}
SEEDS = (0, 1)
ENGINES = ("event", "naive")


def cells():
    """Cell name -> (factory, kwargs, policy constructor, seed): every
    (factory, policy, seed) the policy can be handed — DDAG runs only
    workloads that carry a DAG — and every scaled cell."""
    out = {}
    for factory in sorted(FACTORY_KWARGS):
        kwargs = FACTORY_KWARGS[factory]
        carries_dag = "dag" in grid_factory(factory)(0, **kwargs)[2]
        for policy in sorted(POLICIES):
            if policy == "DdagPolicy" and not carries_dag:
                continue
            for seed in SEEDS:
                out[f"{factory}/{policy}/seed{seed}"] = (
                    factory, kwargs, POLICIES[policy], seed,
                )
    for name, (factory, kwargs, make_policy) in SCALED_CELLS.items():
        for seed in SEEDS:
            out[f"{name}/seed{seed}"] = (factory, kwargs, make_policy, seed)
    return out


CELLS = cells()


def observe(cell, engine):
    """Run one cell on one engine and reduce it to its record."""
    factory, kwargs, make_policy, seed = CELLS[cell]
    items, initial, context_kwargs = grid_factory(factory)(seed, **kwargs)
    sim = Simulator(
        make_policy(), seed=seed, max_ticks=500_000,
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
    assert sorted(load_records()) == sorted(CELLS)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_run_matches_its_record(cell, engine):
    assert observe(cell, engine) == load_records()[cell], (
        f"{cell} on the {engine} engine no longer behaves as recorded"
    )


def test_records_hold_under_another_hash_seed():
    """One fresh interpreter, started under a ``PYTHONHASHSEED`` other
    than this process's, reruns every cell on the event engine."""
    ours = os.environ.get("PYTHONHASHSEED")
    env = dict(os.environ, PYTHONHASHSEED="2" if ours == "1" else "1")
    code = (
        "import json, runpy\n"
        f"ns = runpy.run_path({str(pathlib.Path(__file__))!r})\n"
        "print(json.dumps({c: ns['observe'](c, 'event') for c in ns['CELLS']}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    spawned = json.loads(done.stdout)
    records = load_records()
    assert [c for c in sorted(CELLS) if spawned[c] != records[c]] == []


if __name__ == "__main__":
    records = {cell: observe(cell, "naive") for cell in CELLS}
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {RECORDS}")
