"""Command-line experiment grids: ``python -m repro.bench``.

Runs a named grid preset (policies × workloads × seeds) through the
multiprocess grid runner and writes the unified BENCH artifact.  Examples::

    # the 1,200-txn open-system stress grid, 4 worker processes
    python -m repro.bench stress --workers 4

    # CI smoke: shrunken deadlock storms, serial-vs-parallel comparable
    python -m repro.bench deadlock --scale 0.1 --workers 2 --out BENCH_x.json

    # what exists
    python -m repro.bench --list

``--scale`` shrinks the transaction counts exactly like the benches'
``BENCH_SMOKE_SCALE``.  Omitting ``--workers`` runs the in-process
reference path; ``--workers N`` (N >= 1) fans out to N spawn processes,
and the same invocation with and without workers must produce identical
rows.  ``--shard-workers N`` selects the in-run parallel classify
executor (0 = the serial reference; rows stay byte-identical at any
count).  Explicit ``--workers``/``--seeds``/``--shards`` values below 1,
non-positive ``--scale`` values, and negative ``--shard-workers`` are
rejected at parse time.

Besides the grid presets there are *special* benches with their own
sweep logic; ``parallel_shards`` sweeps shards × shard_workers ×
executor (serial / thread / process) over an upscaled mega-stress
workload, asserts every configuration is byte-identical to the serial
shards=1 reference, and writes ``BENCH_parallel_shards.json`` with
per-phase work counters (per-shard classify counts, barrier waits,
per-cause spills, replica delta bytes and IPC round trips) alongside
``wall_s``; ``service`` stress-tests the asyncio lock service with
concurrent in-process clients mixing authorized and unauthorized
operations and writes ``BENCH_service_stress.json`` with per-op
throughput and p50/p99 request latencies; ``scaling`` runs the default
serial configuration over 5k / 15k / 50k staggered transactions and
writes ``BENCH_scaling.json`` with one ``us_per_tick`` row per size — the
per-tick cost must stay flat while the live population grows.

``--compare OLD.json NEW.json`` diffs two artifacts of the same bench
row by row (every numeric column, nested work counters included) and —
with ``--max-wall-regression FRAC`` — exits non-zero when any wall
clock grew past the allowance; CI uses it as the regression gate
instead of ad-hoc inline wall checks.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

from .policies import AltruisticPolicy, DdagPolicy, TwoPhasePolicy
from .sim import (
    CellResult,
    GridSpec,
    PolicySpec,
    Simulator,
    WorkloadSpec,
    cell_rows_with_work,
    format_table,
    grid_factory,
    grid_factory_names,
    run_grid,
    run_seed,
    write_bench_artifact,
)
from .sim.executor import executor_kind


def _scaled(n: int, scale: float) -> int:
    return max(50, int(n * scale))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Parse-time twin of :func:`_positive_int` for ``--scale``: a zero or
    negative scale used to clamp silently to the 50-txn floor (``not
    value > 0`` also rejects NaN)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _stamp() -> Dict[str, object]:
    """What an artifact was measured on, for its ``extra``: interpreter,
    processor count, and the commit of this checkout (``-dirty`` when the
    run had uncommitted changes on top of it; ``unknown`` outside git)."""
    def git(*args: str) -> str:
        return subprocess.run(
            ("git", *args), cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            sha += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def _preset_stress(scale: float) -> GridSpec:
    """Open-system short-transaction stress: 2PL vs altruistic at 1,200
    transactions (the invalidation bench's altruistic-stress shape)."""
    n = _scaled(1200, scale)
    return GridSpec(
        policies=(PolicySpec(TwoPhasePolicy), PolicySpec(AltruisticPolicy)),
        workloads=(
            WorkloadSpec("stress", {
                "num_entities": 2000, "num_txns": n,
                "arrival_rate": 0.085, "hot_fraction": 0.0,
            }),
        ),
        seeds=(0, 1, 2),
        max_ticks=2_000_000,
    )


def _preset_deadlock(scale: float) -> GridSpec:
    """Deadlock storms (unordered access sets over a hot set): 2PL vs
    altruistic, the always-fresh waits-for graph's scale scenario."""
    return GridSpec(
        policies=(PolicySpec(TwoPhasePolicy), PolicySpec(AltruisticPolicy)),
        workloads=(
            WorkloadSpec("deadlock_storm", {
                "num_entities": 600, "num_txns": _scaled(1200, scale),
                "accesses_per_txn": 2, "arrival_rate": 0.4,
                "hot_set_size": 8, "hot_traffic": 0.5,
            }),
        ),
        seeds=(0, 1, 2),
        max_ticks=2_000_000,
    )


def _preset_traversal(scale: float) -> GridSpec:
    """DDAG vs 2PL on random-DAG traversals (the [CHMS94]-substitute
    comparison); already small, so ``--scale`` leaves it alone."""
    return GridSpec(
        policies=(PolicySpec(DdagPolicy), PolicySpec(TwoPhasePolicy)),
        workloads=(
            WorkloadSpec("traversal", {
                "nodes": 10, "edge_prob": 0.25, "num_txns": 6,
                "walk_length": 5,
            }),
        ),
        seeds=tuple(range(8)),
    )


def _preset_mega_stress(scale: float) -> GridSpec:
    """The headroom probe for the layered kernel: 5,000 staggered short
    transactions over a wide entity space, admitted in arrival-tick
    batches and served through the sharded lock table (``lock_shards=8``;
    any shard count is byte-identical, so this doubles as a standing
    shard-invariance exercise at scale)."""
    n = _scaled(5000, scale)
    return GridSpec(
        policies=(PolicySpec(TwoPhasePolicy),),
        workloads=(
            WorkloadSpec("stress", {
                "num_entities": 8000, "num_txns": n,
                "arrival_rate": 0.085, "hot_fraction": 0.0,
            }),
        ),
        seeds=(0,),
        max_ticks=20_000_000,
        lock_shards=8,
    )


def _preset_mega_stress_50k(scale: float) -> GridSpec:
    """The ROADMAP's 50k-transaction target: 50,000 staggered short
    transactions over 64,000 entities through the 8-shard table.  The
    scale knob shrinks it for CI; at full scale this is the configuration
    the executor axis (``--executor process --shard-workers N``) is
    priced against."""
    n = _scaled(50_000, scale)
    return GridSpec(
        policies=(PolicySpec(TwoPhasePolicy),),
        workloads=(
            WorkloadSpec("stress", {
                "num_entities": 64_000, "num_txns": n,
                "arrival_rate": 0.085, "hot_fraction": 0.0,
            }),
        ),
        seeds=(0,),
        max_ticks=100_000_000,
        lock_shards=8,
    )


PRESETS: Dict[str, Callable[[float], GridSpec]] = {
    "stress": _preset_stress,
    "deadlock": _preset_deadlock,
    "traversal": _preset_traversal,
    "mega_stress": _preset_mega_stress,
    "mega_stress_50k": _preset_mega_stress_50k,
}

_COLUMNS = [
    "policy", "workload", "runs", "failures", "serializable",
    "ticks", "committed", "throughput", "mean_latency", "wait_fraction",
]

#: (shards, shard_workers, executor) configurations the parallel_shards
#: bench sweeps; the first entry is the serial single-partition reference
#: every other configuration must reproduce byte-identically.
_PARALLEL_SWEEP = (
    (1, 0, "serial"),
    (4, 0, "serial"),
    (4, 2, "thread"),
    (4, 2, "process"),
    (8, 0, "serial"),
    (8, 2, "thread"),
    (8, 2, "process"),
    (8, 4, "thread"),
    (8, 4, "process"),
)

_PARALLEL_COLUMNS = [
    "shards", "shard_workers", "executor", "wall_s",
    "ticks", "committed", "throughput", "mean_latency", "wait_fraction",
]


def _run_parallel_shards(args: argparse.Namespace) -> int:
    """The parallel-executor bench: mega_stress scaled up, swept over
    shards × shard_workers × executor, with every configuration asserted
    byte-identical to the serial shards=1 reference and the executors'
    per-phase work counters recorded per row.

    Honest numbers note: the thread executor fans out *pure Python*
    derivations under the GIL, so its rows are expected to cost more wall
    clock than serial at the same shard count; the process executor pays
    the replica-delta protocol instead (``delta_bytes``,
    ``ipc_round_trips`` in each row's work counters) and ships only
    batches big enough to amortize a pipe round trip.  The per-cause
    spill counters and per-shard classify counts are the figures that
    prove the partitioning; the wall clock is the standing record of what
    each executor buys (or costs) at this scale."""
    scale = args.scale
    sweep = [
        (shards, workers, executor)
        for shards, workers, executor in _PARALLEL_SWEEP
        if (args.shard_workers is None
            or workers in (0, args.shard_workers))
        and (args.executor is None or executor in ("serial", args.executor))
    ]
    items, initial, context_kwargs = grid_factory("stress")(
        0,
        num_entities=12_000,
        num_txns=_scaled(8000, scale),
        arrival_rate=0.085,
        hot_fraction=0.0,
    )
    rows: List[Dict[str, object]] = []
    reference = None
    start = time.perf_counter()
    for shards, workers, executor in sweep:
        sim = Simulator(
            TwoPhasePolicy(),
            seed=0,
            max_ticks=20_000_000,
            context_kwargs=context_kwargs,
            engine="event",
            lock_shards=shards,
            shard_workers=workers,
            executor=executor,
        )
        t0 = time.perf_counter()
        result = sim.run(items, initial)
        wall = time.perf_counter() - t0
        summary = result.metrics.summary()
        outcome = (
            summary,
            result.metrics.work_summary(),
            result.committed,
            result.aborted,
            tuple(result.metrics.deadlock_victims),
        )
        if reference is None:
            reference = outcome
        elif outcome != reference:
            raise SystemExit(
                f"parallel_shards: shards={shards} shard_workers={workers} "
                f"executor={executor} diverged from the serial shards=1 "
                f"reference"
            )
        row: Dict[str, object] = {
            "shards": shards,
            "shard_workers": workers,
            "executor": executor,
            "wall_s": round(wall, 4),
        }
        row.update({
            k: round(summary[k], 4)
            for k in (
                "ticks", "committed", "throughput",
                "mean_latency", "wait_fraction",
            )
        })
        stats = result.executor_stats
        row["work"] = stats
        rows.append(row)
        causes = stats["spill_causes"]
        cause_text = ", ".join(
            f"{cause}={count}" for cause, count in causes.items()
        ) or "none"
        print(f"  shards={shards} shard_workers={workers} "
              f"executor={executor}: {wall:.2f}s "
              f"(sharded={stats['sharded_classifications']}, "
              f"spill={stats['spill_classifications']} [{cause_text}], "
              f"spill_fraction={stats['spill_fraction']:.4f}, "
              f"barriers={stats['barrier_waits']}, "
              f"ipc={stats['ipc_round_trips']}, "
              f"delta_bytes={stats['delta_bytes']})")
    total = time.perf_counter() - start
    print(format_table(rows, _PARALLEL_COLUMNS))
    print(f"\n{len(rows)} configurations in {total:.2f}s "
          f"(byte-identical to the serial shards=1 reference)")
    out = args.out or "BENCH_parallel_shards.json"
    write_bench_artifact(
        out, "parallel_shards", rows,
        scale=scale, workers=0, wall_s=total,
        extra={
            **_stamp(),
            "engine": "event",
            "num_txns": _scaled(8000, scale),
            "num_entities": 12_000,
            "sweep": [list(entry) for entry in sweep],
        },
    )
    print(f"artifact: {out}")
    return 0


_SERVICE_COLUMNS = [
    "case", "requests", "throughput", "p50_ms", "p99_ms", "mean_ms",
]


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    return values[min(len(values) - 1, int(round(q * (len(values) - 1))))]


def _run_service_stress(args: argparse.Namespace) -> int:
    """The lock-service bench: concurrent in-process clients driving the
    audited asyncio front-end (:mod:`repro.service`) through contended
    begin/acquire/locks/release/commit rounds, with a sprinkle of
    unauthorized cross-actor requests that must be denied without state
    change.  Request latency is measured client-side around the full
    round trip (for a blocked acquire, up to and including the wake
    event), so the p50/p99 rows price the whole service stack — protocol,
    authorization, kernel, audit — not just the lock table."""
    from .service import LockService

    scale = args.scale
    clients = max(4, int(16 * scale))
    rounds = max(5, int(40 * scale))
    hot = [f"hot{i}" for i in range(6)]
    latencies: Dict[str, List[float]] = {}
    counts = {"denied": 0, "blocked": 0, "woken": 0}

    async def timed(client, op: str, **fields):
        t0 = time.perf_counter()
        reply = await client.request(op, **fields)
        if reply.get("outcome") == "blocked":
            counts["blocked"] += 1
            wake = await client.wait_wake(reply["id"])
            counts["woken"] += 1
            reply = {**reply, "outcome": wake["outcome"]}
        latencies.setdefault(op, []).append(time.perf_counter() - t0)
        if reply.get("outcome") == "denied":
            counts["denied"] += 1
        return reply

    async def run_client(svc, i: int) -> None:
        client = await svc.connect(f"actor{i}")
        for r in range(rounds):
            txn = f"c{i}-r{r}"
            await timed(client, "begin", txn=txn)
            await timed(client, "acquire", txn=txn, entity=f"p{i}", mode="X")
            entity = hot[(i + r) % len(hot)]
            mode = "X" if (i + r) % 5 == 0 else "S"
            got = await timed(client, "acquire", txn=txn, entity=entity,
                              mode=mode)
            await timed(client, "locks", txn=txn)
            if r % 7 == 3:
                # Unauthorized: another actor's transaction.  Denied (or,
                # if that client hasn't begun yet, a kernel ERROR) — never
                # a state change.
                other = f"c{(i + 1) % clients}-r0"
                await timed(client, "release", txn=other, entity="p0")
            if got.get("outcome") == "granted":
                await timed(client, "release", txn=txn, entity=entity)
            await timed(client, "commit", txn=txn)
        await client.close()

    async def drive():
        svc = LockService(max_inflight=8)
        t0 = time.perf_counter()
        await asyncio.gather(*(run_client(svc, i) for i in range(clients)))
        wall = time.perf_counter() - t0
        drained = await svc.drain()
        return svc, wall, drained

    svc, wall, drained = asyncio.run(drive())

    def render_row(case: str, values: List[float]) -> Dict[str, object]:
        ordered = sorted(values)
        return {
            "case": case,
            "requests": len(ordered),
            "throughput": round(len(ordered) / wall, 1),
            "p50_ms": round(1000 * _percentile(ordered, 0.50), 3),
            "p99_ms": round(1000 * _percentile(ordered, 0.99), 3),
            "mean_ms": round(1000 * sum(ordered) / len(ordered), 3),
        }

    every = [x for values in latencies.values() for x in values]
    rows = [render_row("all", every)] + [
        render_row(op, values) for op, values in sorted(latencies.items())
    ]
    print(format_table(rows, _SERVICE_COLUMNS))
    print(f"\n{clients} clients × {rounds} rounds in {wall:.2f}s "
          f"(denied={counts['denied']}, blocked={counts['blocked']}, "
          f"audit entries={len(svc.audit)})")
    out = args.out or "BENCH_service_stress.json"
    write_bench_artifact(
        out, "service_stress", rows,
        scale=scale, workers=0, wall_s=wall,
        extra={
            **_stamp(),
            "clients": clients,
            "rounds": rounds,
            "max_inflight": svc.max_inflight,
            "lock_shards": svc.kernel.table.shards,
            "denied": counts["denied"],
            "blocked": counts["blocked"],
            "woken": counts["woken"],
            "audit_entries": len(svc.audit),
            "drained": len(drained),
        },
    )
    print(f"artifact: {out}")
    return 0


#: ``(num_txns, num_entities)`` of the scaling curve at scale 1: the
#: ``mega_stress`` and ``mega_stress_50k`` sizes and one point between.
_SCALING_POINTS = ((5_000, 8_000), (15_000, 22_000), (50_000, 64_000))

_SCALING_COLUMNS = [
    "txns", "failures", "serializable", "ticks", "committed", "mean_active",
    "wall_s", "us_per_tick",
]


def _run_scaling(args: argparse.Namespace) -> int:
    """The per-tick-cost curve: 2PL over the ``stress`` factory at three
    population sizes, every row through the configuration a caller gets
    by default (event engine, ``lock_shards=1``, serial executor).  The
    default arrival rate (that of the mega presets) sits just above
    capacity, so the live population (``mean_active``) grows with the
    transaction count while the work per tick does not: ``us_per_tick``
    rising from the first row to the last is a per-tick cost that grows
    with the population — the regression this bench exists to show.
    ``--arrival-rate`` overloads the system further, which is how a
    reduced ``--scale`` run still reaches populations in the hundreds
    and thousands.  ``wall_s`` is one whole seed-run per row (simulation,
    schedule assembly, legality and properness checks, serializability
    verdict), so the 5k and 50k rows compare with what ``mega_stress``
    and ``mega_stress_50k`` pay per run."""
    scale = args.scale
    arrival_rate = args.arrival_rate or 0.085
    rows: List[Dict[str, object]] = []
    start = time.perf_counter()
    for txns, entities in _SCALING_POINTS:
        n = _scaled(txns, scale)
        items, initial, context_kwargs = grid_factory("stress")(
            0, num_entities=entities, num_txns=n,
            arrival_rate=arrival_rate, hot_fraction=0.0,
        )
        t0 = time.perf_counter()
        outcome = run_seed(
            TwoPhasePolicy(), items, initial, 0,
            context_kwargs=context_kwargs, max_ticks=100_000_000,
        )
        wall = time.perf_counter() - t0
        if outcome.failed:
            print(f"  txns={n} FAILED: {outcome.error}")
        summary = outcome.summary or {}
        ticks = int(summary.get("ticks", 0))
        rows.append({
            "txns": n,
            "failures": int(outcome.failed),
            "serializable": outcome.serializable is True,
            "ticks": ticks,
            "committed": int(summary.get("committed", 0)),
            "mean_active": round(summary.get("mean_active", 0.0), 2),
            "wall_s": round(wall, 4),
            "us_per_tick": round(1e6 * wall / ticks, 2) if ticks else 0.0,
        })
    total = time.perf_counter() - start
    print(format_table(rows, _SCALING_COLUMNS))
    print(f"\n{len(rows)} sizes in {total:.2f}s")
    out = args.out or "BENCH_scaling.json"
    write_bench_artifact(
        out, "scaling", rows,
        scale=scale, workers=0, wall_s=total,
        extra={
            **_stamp(),
            "engine": "event",
            "policy": "2PL",
            "lock_shards": 1,
            "executor": "serial",
            "arrival_rate": arrival_rate,
            "num_entities": [entities for _, entities in _SCALING_POINTS],
        },
    )
    print(f"artifact: {out}")
    return 1 if any(row["failures"] for row in rows) else 0


#: Benches with their own sweep logic (not GridSpec presets); they share
#: the CLI surface (``--scale``, ``--shard-workers``, ``--out``).
SPECIAL_BENCHES: Dict[str, Callable[[argparse.Namespace], int]] = {
    "parallel_shards": _run_parallel_shards,
    "scaling": _run_scaling,
    "service": _run_service_stress,
}


# ----------------------------------------------------------------------
# Artifact diff (--compare): the CI regression gate
# ----------------------------------------------------------------------

#: Row keys that *identify* a row rather than measure it: two compared
#: artifacts must agree on these per row (same sweep, same cells).
_IDENTITY_KEYS = (
    "policy", "workload", "case", "shards", "shard_workers", "executor",
    "txns",
)

_COMPARE_COLUMNS = ["row", "metric", "old", "new", "delta", "delta_pct"]


def _row_label(row: Dict[str, object]) -> str:
    parts = [
        f"{k}={row[k]}" for k in _IDENTITY_KEYS if k in row
    ]
    return " ".join(parts) if parts else "<row>"


def _flatten_numeric(row: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a row (descending into the nested ``work``
    counter dict), keyed ``name`` / ``work.name``; bools excluded."""
    out: Dict[str, float] = {}
    for key, value in row.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[prefix + key] = float(value)
        elif isinstance(value, dict):
            out.update(_flatten_numeric(value, prefix=f"{prefix}{key}."))
    return out


def _run_compare(args: argparse.Namespace) -> int:
    """``--compare OLD.json NEW.json``: the artifact-diff mode CI uses as
    its regression gate instead of ad-hoc wall-clock guards.  Asserts the
    two artifacts describe the same bench and row identities, prints
    per-row deltas (absolute and %) for every shared numeric column —
    including the nested work counters — and fails (exit 1) when any
    row's ``wall_s`` regressed by more than ``--max-wall-regression``
    (a fraction: 0.5 allows +50%).  Without the threshold the diff is
    report-only and always exits 0."""
    old_path, new_path = args.compare
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    for field in ("bench", "schema"):
        if old.get(field) != new.get(field):
            print(f"compare: {field!r} mismatch: "
                  f"{old.get(field)!r} vs {new.get(field)!r}")
            return 2
    old_rows, new_rows = old.get("rows", []), new.get("rows", [])
    if len(old_rows) != len(new_rows):
        print(f"compare: row count mismatch: {len(old_rows)} vs "
              f"{len(new_rows)}")
        return 2
    failures: List[str] = []
    table: List[Dict[str, object]] = []
    for i, (o, n) in enumerate(zip(old_rows, new_rows)):
        for key in _IDENTITY_KEYS:
            if o.get(key) != n.get(key):
                print(f"compare: row {i} identity {key!r} mismatch: "
                      f"{o.get(key)!r} vs {n.get(key)!r}")
                return 2
        o_num, n_num = _flatten_numeric(o), _flatten_numeric(n)
        shared = [k for k in o_num if k in n_num]
        missing = sorted(set(o_num).symmetric_difference(n_num))
        if missing:
            print(f"compare: row {i} ({_row_label(o)}): keys only on one "
                  f"side (skipped): {', '.join(missing)}")
        label = _row_label(o)
        for key in shared:
            before, after = o_num[key], n_num[key]
            delta = after - before
            pct = (100.0 * delta / before) if before else float("inf")
            if delta == 0:
                continue
            table.append({
                "row": label,
                "metric": key,
                "old": round(before, 4),
                "new": round(after, 4),
                "delta": round(delta, 4),
                "delta_pct": (f"{pct:+.1f}%" if before else "new"),
            })
        if (args.max_wall_regression is not None
                and "wall_s" in o_num and "wall_s" in n_num
                and n_num["wall_s"] > o_num["wall_s"]
                * (1.0 + args.max_wall_regression)):
            failures.append(
                f"row {i} ({label}): wall_s {o_num['wall_s']:.4f} -> "
                f"{n_num['wall_s']:.4f} exceeds allowed "
                f"+{100 * args.max_wall_regression:.0f}%"
            )
    # The harness wall clock lives at the top level (grid presets do not
    # record per-row walls) — gate it under the same threshold.
    old_wall, new_wall = old.get("wall_s"), new.get("wall_s")
    if isinstance(old_wall, (int, float)) and isinstance(new_wall, (int, float)):
        delta = new_wall - old_wall
        if delta:
            table.append({
                "row": "<artifact>", "metric": "wall_s",
                "old": round(float(old_wall), 4),
                "new": round(float(new_wall), 4),
                "delta": round(delta, 4),
                "delta_pct": (f"{100.0 * delta / old_wall:+.1f}%"
                              if old_wall else "new"),
            })
        if (args.max_wall_regression is not None
                and new_wall > old_wall * (1.0 + args.max_wall_regression)):
            failures.append(
                f"artifact wall_s {old_wall:.4f} -> {new_wall:.4f} exceeds "
                f"allowed +{100 * args.max_wall_regression:.0f}%"
            )
    if table:
        print(format_table(table, _COMPARE_COLUMNS))
    else:
        print("compare: no numeric differences")
    print(f"\ncompared {len(old_rows)} rows "
          f"({old.get('bench')!r}, {old_path} -> {new_path})")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a (policy × workload × seed) experiment grid.",
    )
    parser.add_argument(
        "preset", nargs="?", choices=sorted([*PRESETS, *SPECIAL_BENCHES]),
        help="grid preset or special bench to run",
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=0,
        help="worker processes, >= 1 (omit for the in-process reference path)",
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=None,
        help="override the preset's seed count with range(N), N >= 1",
    )
    parser.add_argument(
        "--scale", type=_positive_float, default=1.0,
        help="shrink transaction counts (like BENCH_SMOKE_SCALE); must be > 0",
    )
    parser.add_argument(
        "--engine", choices=("event", "naive"), default=None,
        help="override the scheduler engine",
    )
    parser.add_argument(
        "--max-ticks", type=int, default=None,
        help="override the per-run tick budget",
    )
    parser.add_argument(
        "--shards", type=_positive_int, default=None,
        help="override the lock-table shard count (rows are byte-identical "
             "at any count; 1 is the single-partition reference)",
    )
    parser.add_argument(
        "--shard-workers", type=_nonnegative_int, default=None,
        help="in-run classify-phase shard workers (0 = serial reference; "
             "rows are byte-identical at any count; for parallel_shards "
             "this filters the sweep to workers in {0, N})",
    )
    parser.add_argument(
        "--executor", choices=("serial", "thread", "process"), default=None,
        help="in-run classify executor kind when --shard-workers >= 1 "
             "(rows are byte-identical for any kind; for parallel_shards "
             "this filters the sweep to {serial, KIND} rows)",
    )
    parser.add_argument(
        "--arrival-rate", type=_positive_float, default=None,
        help="scaling only: transactions admitted per tick (default 0.085, "
             "just above capacity; a higher rate holds a larger live "
             "population at a reduced --scale)",
    )
    parser.add_argument(
        "--out", default=None,
        help="artifact path (default: BENCH_grid_<preset>.json)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list presets and registered workload factories, then exit",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD.json", "NEW.json"), default=None,
        help="artifact-diff mode: print per-row metric deltas between two "
             "BENCH artifacts of the same bench; with "
             "--max-wall-regression, exit 1 on a wall_s regression",
    )
    parser.add_argument(
        "--max-wall-regression", type=_positive_float, default=None,
        help="with --compare: allowed fractional wall_s growth "
             "(0.5 = +50%%) before the diff exits non-zero",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        print("presets:   ", ", ".join(sorted(PRESETS)))
        print("special:   ", ", ".join(sorted(SPECIAL_BENCHES)))
        print("factories: ", ", ".join(grid_factory_names()))
        return 0
    if args.compare is not None:
        if args.preset is not None:
            build_parser().error("--compare takes no preset")
        return _run_compare(args)
    if args.preset is None:
        build_parser().error("a preset is required (or --list, --compare)")
    if args.arrival_rate is not None and args.preset != "scaling":
        build_parser().error("--arrival-rate applies to the scaling bench only")
    if args.preset in SPECIAL_BENCHES:
        return SPECIAL_BENCHES[args.preset](args)
    spec = PRESETS[args.preset](args.scale)
    overrides: Dict[str, object] = {}
    if args.seeds is not None:
        overrides["seeds"] = tuple(range(args.seeds))
    if args.engine is not None:
        overrides["engine"] = args.engine
    if args.max_ticks is not None:
        overrides["max_ticks"] = args.max_ticks
    if args.shards is not None:
        overrides["lock_shards"] = args.shards
    if args.shard_workers is not None:
        overrides["shard_workers"] = args.shard_workers
    if args.executor is not None:
        overrides["executor"] = args.executor
    if overrides:
        spec = dataclasses.replace(spec, **overrides)

    def announce(cell: CellResult) -> None:
        print(f"  cell done: {cell.policy} × {cell.workload} "
              f"({cell.runs} runs, {cell.failures} failures)")

    start = time.perf_counter()
    cells = run_grid(spec, workers=args.workers, progress=announce)
    wall = time.perf_counter() - start
    rows = [c.row() for c in cells]
    print(format_table(rows, _COLUMNS))
    print(f"\n{len(cells)} cells × {len(spec.seeds)} seeds in {wall:.2f}s "
          f"({args.workers} workers)")
    out = args.out or f"BENCH_grid_{args.preset}.json"
    write_bench_artifact(
        out, f"grid_{args.preset}",
        cell_rows_with_work(cells),
        scale=args.scale, workers=args.workers, wall_s=wall,
        extra={
            **_stamp(),
            "engine": spec.engine,
            "seeds": list(spec.seeds),
            "lock_shards": spec.lock_shards,
            "shard_workers": spec.shard_workers,
            "executor": executor_kind(spec.shard_workers, spec.executor),
        },
    )
    print(f"artifact: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
