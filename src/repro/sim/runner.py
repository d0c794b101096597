"""Experiment driver: run policy × workload cells and aggregate metrics.

This is the harness behind the performance benchmark (the simulated
substitute for [CHMS94]).  Each cell runs several seeds and averages the
metric summaries; results come back as plain dict rows so the benches can
print paper-style tables without any plotting dependencies.

The per-seed unit of work is :func:`run_seed`, which returns a plain
:class:`SeedOutcome`; :func:`aggregate_outcomes` turns a cell's outcomes
(in seed order) into a :class:`CellResult`.  :func:`run_cell` composes
the two over a :data:`WorkloadFactory` — the shape of the registered
grid factories, so ``functools.partial(grid_factory(name), **kwargs)``
is a cell's workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.schedules import Schedule
from ..core.serializability import is_serializable
from ..core.states import StructuralState
from ..exceptions import SimulationError
from ..policies.base import LockingPolicy
from .scheduler import Simulator, WorkloadItem

#: A workload factory: seed -> (items, initial structural state, the
#: policy-context kwargs the workload implies) — a registered grid factory
#: with its keyword arguments bound.
WorkloadFactory = Callable[
    [int], Tuple[Sequence[WorkloadItem], StructuralState, dict]
]

#: How many ``(seed, error)`` pairs a :class:`CellResult` records before
#: truncating — the same discipline as ``SimulationError`` live-list
#: messages (``CellResult.failures`` always carries the true count).
FAILED_SEEDS_LIMIT = 12
#: Cap on one recorded failure message (SimulationError texts embed
#: truncated live lists, but a custom restart strategy could raise with
#: anything).
_ERROR_CHARS = 300


@dataclass
class SeedOutcome:
    """What one seed-run of one cell produced.

    Plain data (dicts, floats, strings): no schedules, sessions, or other
    live simulator objects outlive the run.
    """

    seed: int
    #: ``metrics.summary()`` of a successful run; ``None`` if it failed.
    summary: Optional[Dict[str, float]] = None
    #: Serializability verdict of a successful run; ``None`` if it failed.
    serializable: Optional[bool] = None
    #: How many findings the ``rule_check`` given to :func:`run_seed`
    #: reported on a successful run; ``None`` when none was given.
    rule_violations: Optional[int] = None
    #: ``SimulationError`` text (truncated) when the run failed.
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class CellResult:
    """Aggregated metrics for one (policy, workload) cell."""

    policy: str
    workload: str
    runs: int
    failures: int
    means: Dict[str, float]
    stdevs: Dict[str, float]
    #: True iff at least one run succeeded and every successful run was
    #: serializable.  A cell whose every seed failed reports False — it
    #: must not read as green.
    all_serializable: bool
    #: ``(seed, error message)`` pairs for the failed seeds, truncated at
    #: :data:`FAILED_SEEDS_LIMIT` (``failures`` is the true count), so a red
    #: cell in BENCH output is diagnosable without a rerun.
    failed_seeds: Tuple[Tuple[int, str], ...] = ()

    def row(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "policy": self.policy,
            "workload": self.workload,
            "runs": self.runs,
            "failures": self.failures,
            "serializable": self.all_serializable,
        }
        out.update({k: round(v, 4) for k, v in self.means.items()})
        # The per-seed spread was computed but silently dropped; surface it
        # so BENCH_* artifacts record variance alongside the means.
        out.update({f"{k}_sd": round(v, 4) for k, v in self.stdevs.items()})
        if self.failed_seeds:
            out["failed_seeds"] = [list(pair) for pair in self.failed_seeds]
        return out


def run_seed(
    policy: LockingPolicy,
    items: Sequence[WorkloadItem],
    initial: StructuralState,
    seed: int,
    context_kwargs: Optional[dict] = None,
    max_ticks: int = 200_000,
    engine: str = "event",
    rule_check: Optional[Callable[[Schedule], Sequence[str]]] = None,
) -> SeedOutcome:
    """Run one seeded instance of a cell and reduce it to a
    :class:`SeedOutcome`.  ``rule_check``, an offline checker of the
    policy's own locking rules (``check_altruistic_schedule``, say), is run
    on the schedule too."""
    sim = Simulator(
        policy, seed=seed, max_ticks=max_ticks,
        context_kwargs=context_kwargs or {}, engine=engine,
    )
    try:
        result = sim.run(items, initial)
    except SimulationError as exc:
        return SeedOutcome(seed=seed, error=str(exc)[:_ERROR_CHARS])
    return SeedOutcome(
        seed=seed,
        summary=result.metrics.summary(),
        serializable=is_serializable(result.schedule),
        rule_violations=(
            None if rule_check is None else len(rule_check(result.schedule))
        ),
    )


def _mean_keys(summaries: Sequence[Dict[str, float]]) -> List[str]:
    """Aggregation keys: the intersection of every summary's key set, in
    the first summary's order.  Aggregating over ``summaries[0]`` alone used
    to KeyError mid-aggregation if a future metric ever appeared in only
    some runs; the intersection keeps every key all runs can answer for."""
    if not summaries:
        return []
    key_sets = [set(s) for s in summaries[1:]]
    return [k for k in summaries[0] if all(k in s for s in key_sets)]


def aggregate_outcomes(
    policy_name: str,
    workload_name: str,
    outcomes: Sequence[SeedOutcome],
) -> CellResult:
    """Fold one cell's seed outcomes (in seed order) into a
    :class:`CellResult`."""
    summaries = [o.summary for o in outcomes if not o.failed]
    failed = [(o.seed, o.error or "") for o in outcomes if o.failed]
    all_srz = all(o.serializable is not False for o in outcomes)
    if not summaries:
        # Every seed failed: nothing was verified, so the cell must not
        # report itself serializable (it used to come back green with empty
        # means, hiding total failure).
        all_srz = False
    keys = _mean_keys(summaries)
    means = {k: statistics.fmean(s[k] for s in summaries) for k in keys}
    stdevs = {
        k: (statistics.pstdev([s[k] for s in summaries]) if len(summaries) > 1 else 0.0)
        for k in keys
    }
    return CellResult(
        policy=policy_name,
        workload=workload_name,
        runs=len(summaries),
        failures=len(failed),
        means=means,
        stdevs=stdevs,
        all_serializable=all_srz,
        failed_seeds=tuple(failed[:FAILED_SEEDS_LIMIT]),
    )


def run_cell(
    policy: LockingPolicy,
    workload_name: str,
    factory: WorkloadFactory,
    seeds: Sequence[int],
    max_ticks: int = 200_000,
    engine: str = "event",
) -> CellResult:
    """Run one policy over several seeded instances of a workload, one
    seed after another, and aggregate them in seed order."""
    outcomes: List[SeedOutcome] = []
    for seed in seeds:
        items, initial, context_kwargs = factory(seed)
        outcomes.append(run_seed(
            policy, items, initial, seed,
            context_kwargs=context_kwargs, max_ticks=max_ticks, engine=engine,
        ))
    return aggregate_outcomes(policy.name, workload_name, outcomes)


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Monospace table used by the bench harness to print paper-style rows."""
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for c in columns:
            text = str(row.get(c, ""))
            widths[c] = max(widths[c], len(text))
            cells.append(text)
        rendered.append(cells)
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    rule = "-+-".join("-" * widths[c] for c in columns)
    lines = [header, rule]
    for cells in rendered:
        lines.append(
            " | ".join(cell.ljust(widths[c]) for cell, c in zip(cells, columns))
        )
    return "\n".join(lines)
