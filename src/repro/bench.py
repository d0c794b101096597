"""Command-line benches: ``python -m repro.bench``.

``scaling`` runs 2PL and altruistic locking over 5k / 15k / 50k
staggered transactions and writes ``BENCH_scaling.json`` with one
``us_per_tick`` row per policy and size — each policy's per-tick cost
must stay flat while the live population grows.  Examples::

    # the full curve
    python -m repro.bench scaling

    # CI smoke: reduced and overloaded
    python -m repro.bench scaling --scale 0.1 --arrival-rate 0.25 --out BENCH_x.json

``--scale`` multiplies the transaction counts (floor 50); non-positive
values are rejected at parse time.

``--compare OLD.json NEW.json`` diffs two artifacts of the same bench
row by row (every numeric column) and — with ``--max-wall-regression
FRAC`` — exits non-zero when any wall clock grew past the allowance; CI
uses it as the regression gate instead of ad-hoc inline wall checks.
The comparable experiment grids (2PL against altruistic locking, DDAG
against 2PL) are run and asserted by the tier-1 benches under
``benchmarks/``, not by this CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from .core import Schedule, candidate_distinguished_transactions
from .policies import AltruisticPolicy, TwoPhasePolicy, check_altruistic_schedule
from .sim import format_table, grid_factory, run_seed, write_bench_artifact


def _scaled(n: int, scale: float) -> int:
    return max(50, int(n * scale))


def _positive_float(text: str) -> float:
    """Parse-time check for ``--scale`` and the other fractional flags: a
    zero or negative scale used to clamp silently to the 50-txn floor
    (``not value > 0`` also rejects NaN)."""
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


#: ``(num_txns, num_entities)`` of the scaling curve at scale 1: from the
#: 5,000-transaction headroom probe up to the 50,000-transaction ceiling.
_SCALING_POINTS = ((5_000, 8_000), (15_000, 22_000), (50_000, 64_000))


def _two_phase_violations(schedule: Schedule) -> List[str]:
    """2PL's rule, checked offline: the transactions that lock an item
    after unlocking one."""
    return [
        txn.name for txn in candidate_distinguished_transactions(
            list(schedule.transactions.values())
        )
    ]


#: One row set per policy, each over every point, with the offline
#: checker of that policy's own rules: 2PL, and altruistic locking, whose
#: AL2 verdict reads the other live sessions' donations.
_SCALING_POLICIES = (
    (TwoPhasePolicy, _two_phase_violations),
    (AltruisticPolicy, check_altruistic_schedule),
)

_SCALING_COLUMNS = [
    "policy", "txns", "failures", "serializable", "rule_violations", "ticks",
    "committed", "mean_active", "wall_s", "us_per_tick",
]


def _scaling_row(
    policy, rule_check, n: int, entities: int, arrival_rate: float
) -> Dict[str, object]:
    """One seed-run of ``policy`` at one point of the scaling curve."""
    items, initial, context_kwargs = grid_factory("stress")(
        0, num_entities=entities, num_txns=n,
        arrival_rate=arrival_rate, hot_fraction=0.0,
    )
    t0 = time.perf_counter()
    outcome = run_seed(
        policy, items, initial, 0,
        context_kwargs=context_kwargs, max_ticks=100_000_000,
        rule_check=rule_check,
    )
    wall = time.perf_counter() - t0
    if outcome.failed:
        print(f"  {policy.name} txns={n} FAILED: {outcome.error}")
    summary = outcome.summary or {}
    ticks = int(summary.get("ticks", 0))
    return {
        "policy": policy.name,
        "txns": n,
        "failures": int(outcome.failed),
        "serializable": outcome.serializable is True,
        "rule_violations": outcome.rule_violations or 0,
        "ticks": ticks,
        "committed": int(summary.get("committed", 0)),
        "mean_active": round(summary.get("mean_active", 0.0), 2),
        "wall_s": round(wall, 6),
        "us_per_tick": round(1e6 * wall / ticks, 2) if ticks else 0.0,
    }


def _run_scaling(args: argparse.Namespace) -> int:
    """The per-tick-cost curve: 2PL, then altruistic locking, over the
    ``stress`` factory at three population sizes, every row through the
    configuration a caller gets by default (the event engine).  The
    default arrival rate (0.085 arrivals per tick) sits just above
    capacity, so the live population (``mean_active``) grows with the
    transaction count while the work per tick does not: ``us_per_tick``
    rising from a policy's first row to its last is a per-tick cost that
    grows with the population — the regression this bench exists to show.
    ``--arrival-rate`` overloads the system further, which is how a
    reduced ``--scale`` run still reaches populations in the hundreds
    and thousands.  ``wall_s`` is one whole seed-run per row (simulation,
    schedule assembly, legality and properness checks, serializability
    verdict, and the offline check of the policy's own rules, whose
    finding count is ``rule_violations``)."""
    scale = args.scale
    arrival_rate = args.arrival_rate or 0.085
    rows: List[Dict[str, object]] = []
    start = time.perf_counter()
    for policy_cls, rule_check in _SCALING_POLICIES:
        for txns, entities in _SCALING_POINTS:
            rows.append(_scaling_row(
                policy_cls(), rule_check, _scaled(txns, scale), entities,
                arrival_rate,
            ))
    total = time.perf_counter() - start
    print(format_table(rows, _SCALING_COLUMNS))
    print(f"\n{len(rows)} rows in {total:.2f}s")
    out = args.out or "BENCH_scaling.json"
    write_bench_artifact(
        out, "scaling", rows,
        scale=scale, wall_s=total,
        extra={
            **_stamp(),
            "engine": "event",
            "arrival_rate": arrival_rate,
            "num_entities": [entities for _, entities in _SCALING_POINTS],
        },
    )
    print(f"artifact: {out}")
    return 1 if any(row["failures"] for row in rows) else 0


# ----------------------------------------------------------------------
# Artifact diff (--compare): the CI regression gate
# ----------------------------------------------------------------------

#: Row keys that *identify* a row rather than measure it: two compared
#: artifacts must agree on these per row (same sweep, same cells).
_IDENTITY_KEYS = ("policy", "workload", "txns")

_COMPARE_COLUMNS = ["row", "metric", "old", "new", "delta", "delta_pct"]


def _row_label(row: Dict[str, object]) -> str:
    parts = [
        f"{k}={row[k]}" for k in _IDENTITY_KEYS if k in row
    ]
    return " ".join(parts) if parts else "<row>"


def _flatten_numeric(row: Dict[str, object]) -> Dict[str, float]:
    """The numeric columns of a (flat) row; bools excluded."""
    return {
        key: float(value)
        for key, value in row.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _load_artifact(path: str) -> Optional[Dict[str, object]]:
    """One ``--compare`` input, or ``None`` after printing why it is not
    a BENCH artifact: an unreadable file, malformed JSON, a top level
    that is not an object, or ``rows`` that are not a list of objects."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"compare: cannot read {path}: {exc}")
        return None
    if not isinstance(doc, dict):
        print(f"compare: {path}: top level is a {type(doc).__name__}, "
              f"not an object")
        return None
    rows = doc.get("rows", [])
    if not (isinstance(rows, list)
            and all(isinstance(row, dict) for row in rows)):
        print(f"compare: {path}: 'rows' is not a list of objects")
        return None
    return doc


def _run_compare(args: argparse.Namespace) -> int:
    """``--compare OLD.json NEW.json``: the artifact-diff mode CI uses as
    its regression gate instead of ad-hoc wall-clock guards.  Asserts the
    two artifacts describe the same bench and row identities, prints
    per-row deltas (absolute and %) for every shared numeric column, and
    fails (exit 1) when any row's ``wall_s`` regressed by more than
    ``--max-wall-regression`` (a fraction: 0.5 allows +50%).  Without the
    threshold the diff is report-only and exits 0; an input that is not
    an artifact, like any mismatch between the two, exits 2."""
    old_path, new_path = args.compare
    old, new = _load_artifact(old_path), _load_artifact(new_path)
    if old is None or new is None:
        return 2
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
    # The harness wall clock lives at the top level — gate it under the
    # same threshold.
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
        description="Run the per-tick scaling bench, or diff two BENCH "
                    "artifacts.",
    )
    parser.add_argument(
        "bench", nargs="?", choices=["scaling"],
        help="bench to run",
    )
    parser.add_argument(
        "--scale", type=_positive_float, default=1.0,
        help="multiply transaction counts (floor 50); must be > 0",
    )
    parser.add_argument(
        "--arrival-rate", type=_positive_float, default=None,
        help="transactions admitted per tick (default 0.085, just above "
             "capacity; a higher rate holds a larger live population at a "
             "reduced --scale)",
    )
    parser.add_argument(
        "--out", default=None,
        help="artifact path (default: BENCH_scaling.json)",
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
    if args.compare is not None:
        if args.bench is not None:
            build_parser().error("--compare takes no bench")
        return _run_compare(args)
    if args.bench is None:
        build_parser().error("a bench is required (or --compare)")
    return _run_scaling(args)


if __name__ == "__main__":
    sys.exit(main())
