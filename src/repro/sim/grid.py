"""Declarative experiment grids with multiprocess fan-out.

The paper's claims are comparative — policies against policies across
workload × concurrency grids — so the reproduction's evaluation budget is
measured in (policy, workload, seed) cells.  :func:`run_cell` runs one
cell's seeds serially in-process; this module scales that out: a
:class:`GridSpec` names the cells declaratively, and :func:`run_grid`
executes every seed-run of every cell over a :mod:`multiprocessing` pool.

The unit that crosses the process boundary is a picklable :class:`_SeedTask`
— a policy *constructor* (class + kwargs), a registered workload factory
*name* (see :data:`~repro.sim.workloads.GRID_FACTORIES`) + kwargs, and a
seed; never live policies, workload items, or simulator state.  Workers
build everything locally from the seed, run the simulation, and stream back
plain :class:`~repro.sim.runner.SeedOutcome` records; the parent aggregates
each cell (in seed order, so floating-point reduction order is fixed) with
the same :func:`~repro.sim.runner.aggregate_outcomes` the serial path uses.
``workers=0`` keeps the whole pipeline in-process as the reference —
mirroring the scheduler's ``engine="naive"`` pattern — and the seeded
equivalence tests assert that parallel runs produce byte-identical
:class:`CellResult` rows.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..policies.base import LockingPolicy
from .runner import CellResult, SeedOutcome, aggregate_outcomes, run_seed
from .workloads import grid_factory


@dataclass(frozen=True)
class PolicySpec:
    """A policy *constructor*: class plus keyword arguments.  Classes pickle
    by reference and the kwargs are plain data, so the spec crosses process
    boundaries; each worker builds its own instance (policies are stateless
    factories — per-run state lives in the context they create)."""

    cls: Type[LockingPolicy]
    kwargs: Dict[str, object] = field(default_factory=dict)
    #: Row label; defaults to the constructed policy's ``name``.
    label: Optional[str] = None

    def build(self) -> LockingPolicy:
        return self.cls(**self.kwargs)

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.build().name


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload by registered factory name plus keyword arguments (the
    seed is supplied per run).  See
    :func:`~repro.sim.workloads.register_grid_factory`."""

    factory: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    #: Row label; defaults to the factory name.
    label: Optional[str] = None

    def build(self, seed: int):
        """Construct ``(items, initial, context_kwargs)`` for ``seed``."""
        return grid_factory(self.factory)(seed, **self.kwargs)

    @property
    def name(self) -> str:
        return self.label if self.label is not None else self.factory


@dataclass(frozen=True)
class GridSpec:
    """One experiment grid: policies × workloads × seeds under one engine.

    ``pairs`` overrides the cross product for grids whose cells do not
    factor (e.g. each policy gets its own tuned workload).
    """

    policies: Tuple[PolicySpec, ...] = ()
    workloads: Tuple[WorkloadSpec, ...] = ()
    seeds: Tuple[int, ...] = ()
    engine: str = "event"
    max_ticks: int = 200_000
    #: Lock-table shard count for every seed-run (any count produces
    #: byte-identical rows; 1 is the single-partition reference).
    lock_shards: int = 1
    #: Classify-phase shard workers per seed-run (0 = serial reference;
    #: any count produces byte-identical rows; event engine only).
    shard_workers: int = 0
    #: Classify-phase executor kind when ``shard_workers >= 1``
    #: ("serial" / "thread" / "process"; any kind produces byte-identical
    #: rows — see :func:`repro.sim.executor.make_executor`).
    executor: str = "thread"
    pairs: Optional[Tuple[Tuple[PolicySpec, WorkloadSpec], ...]] = None

    def cells(self) -> List[Tuple[PolicySpec, WorkloadSpec]]:
        if self.pairs is not None:
            return list(self.pairs)
        return [(p, w) for p in self.policies for w in self.workloads]


@dataclass(frozen=True)
class _SeedTask:
    """One seed-run, addressed by (cell index, seed index) so the parent
    can bucket streamed results regardless of completion order."""

    cell: int
    slot: int
    policy: PolicySpec
    workload: WorkloadSpec
    seed: int
    engine: str
    max_ticks: int
    lock_shards: int = 1
    shard_workers: int = 0
    executor: str = "thread"


def _run_task(task: _SeedTask) -> Tuple[int, int, SeedOutcome]:
    """Worker entry point (module-level so it pickles under spawn)."""
    policy = task.policy.build()
    items, initial, context_kwargs = task.workload.build(task.seed)
    outcome = run_seed(
        policy, items, initial, task.seed,
        context_kwargs=context_kwargs,
        max_ticks=task.max_ticks,
        engine=task.engine,
        lock_shards=task.lock_shards,
        shard_workers=task.shard_workers,
        executor=task.executor,
    )
    return task.cell, task.slot, outcome


def _check_spawnable_main() -> None:
    """Fail fast where ``spawn`` cannot work: re-importing ``__main__`` in
    each worker requires its ``__file__`` (when it has one) to exist on
    disk.  A stdin/heredoc script (``python - <<EOF``) records
    ``__file__ = "<stdin>"`` — workers crash during bootstrap and the pool
    respawns them forever, hanging the caller with no diagnosis.  Raising
    here turns that hang into an actionable error."""
    main_module = sys.modules.get("__main__")
    if main_module is None or getattr(main_module, "__spec__", None) is not None:
        return  # importable by name; spawn re-imports it fine
    main_file = getattr(main_module, "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        raise RuntimeError(
            f"run_grid with workers > 0 uses the 'spawn' start method, "
            f"which re-imports __main__ in every worker — impossible here "
            f"(__main__.__file__ is {main_file!r}, which does not exist; "
            f"typically a stdin/heredoc script).  Run from a real script "
            f"(with its run_grid call under `if __name__ == '__main__'`) "
            f"or pass workers=0."
        )


def run_grid(
    spec: GridSpec,
    workers: int = 0,
    mp_context: str = "spawn",
    progress: Optional[Callable[[CellResult], None]] = None,
) -> List[CellResult]:
    """Execute every cell of ``spec``; return one :class:`CellResult` per
    cell, in cell order.

    ``workers=0`` runs everything in-process (the serial reference path);
    ``workers >= 1`` fans the seed tasks out over a pool of that many
    processes, streaming outcomes back as they finish.  Aggregation is
    identical either way: a cell is folded the moment its last seed lands,
    always in seed order, so the rows are byte-identical across worker
    counts.  ``progress`` (if given) receives each :class:`CellResult` as
    soon as its cell completes — cells finish out of order under a pool.

    ``mp_context`` selects the multiprocessing start method; ``"spawn"``
    is the default because it is portable and proves the picklability /
    cross-process determinism contract (workers rebuild workloads from
    specs, sharing nothing with the parent).
    """
    if workers < 0:
        raise ValueError("workers must be >= 0")
    cells = spec.cells()
    seeds = list(spec.seeds)
    tasks = [
        _SeedTask(
            cell=ci, slot=si, policy=p, workload=w, seed=seed,
            engine=spec.engine, max_ticks=spec.max_ticks,
            lock_shards=spec.lock_shards,
            shard_workers=spec.shard_workers,
            executor=spec.executor,
        )
        for ci, (p, w) in enumerate(cells)
        for si, seed in enumerate(seeds)
    ]
    buckets: List[List[Optional[SeedOutcome]]] = [
        [None] * len(seeds) for _ in cells
    ]
    remaining = [len(seeds)] * len(cells)
    results: List[Optional[CellResult]] = [None] * len(cells)

    def land(ci: int, si: int, outcome: SeedOutcome) -> None:
        buckets[ci][si] = outcome
        remaining[ci] -= 1
        if remaining[ci] == 0:
            p, w = cells[ci]
            outcomes = buckets[ci]
            assert all(o is not None for o in outcomes)
            results[ci] = aggregate_outcomes(p.name, w.name, outcomes)
            if progress is not None:
                progress(results[ci])

    if not seeds:
        # Degenerate grid: every cell aggregates to an empty (all-failed
        # semantics: not green) result without spinning up a pool.
        for ci, (p, w) in enumerate(cells):
            results[ci] = aggregate_outcomes(p.name, w.name, [])
            if progress is not None:
                progress(results[ci])
    elif workers == 0 or not tasks:
        for task in tasks:
            land(*_run_task(task))
    else:
        if mp_context == "spawn":
            _check_spawnable_main()
        ctx = multiprocessing.get_context(mp_context)
        with ctx.Pool(processes=workers) as pool:
            for ci, si, outcome in pool.imap_unordered(_run_task, tasks):
                land(ci, si, outcome)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
