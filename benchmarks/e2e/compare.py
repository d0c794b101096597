"""``run.py compare A.json B.json``: is B worse than A?

Reads two result files of this benchmark and prints, per workload, every
end-to-end metric with both medians, the ratio B/A (base A) and the
metric's bound, marked ``ok``, ``worse`` or ``better`` (``worse`` and
``better`` mean: beyond the bound; a metric without a bound is shown and
marked ``-``).  Simulated and served behaviour must
not differ at all: ``schedule_sha256`` and the exact counts have to match.
Exits non-zero on any ``worse`` or mismatch.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

import workloads


def verdict(metric: workloads.Metric, a: float, b: float) -> str:
    """``ok`` / ``worse`` / ``better`` for baseline ``a`` and candidate
    ``b``; ``-`` for a metric without a bound."""
    if metric.bound is None:
        return "-"
    gain = a - b if metric.better == "lower" else b - a
    if not metric.absolute:
        gain /= a
    if gain < -metric.bound:
        return "worse"
    if gain > metric.bound:
        return "better"
    return "ok"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Print the table; returns the findings that fail the comparison."""
    failures: List[str] = []
    for key in ("seed", "scale"):
        if a["stamp"][key] != b["stamp"][key]:
            failures.append(
                f"{key} differs: {a['stamp'][key]} vs {b['stamp'][key]}"
            )
    if set(a["workloads"]) != set(b["workloads"]):
        failures.append("the two files cover different workloads")
    print(f"{'workload':<20}{'metric':<14}{'A':>13}{'B':>13}  unit "
          f"{'B/A':>7}  bound   mark")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        if wa["schedule_sha256"] != wb["schedule_sha256"]:
            failures.append(f"{name}: schedule_sha256 differs")
        for count, value in wa["counts"].items():
            if wb["counts"].get(count) != value:
                failures.append(
                    f"{name}: {count} differs: {value} vs "
                    f"{wb['counts'].get(count)}"
                )
        for metric in workloads.END_TO_END:
            if metric.name not in wa["end_to_end"]:
                continue
            va = wa["end_to_end"][metric.name]["value"]
            vb = wb["end_to_end"][metric.name]["value"]
            mark = verdict(metric, va, vb)
            ratio = f"{vb / va:7.3f}" if va else "      -"
            if metric.bound is None:
                bound = "none"
            elif metric.absolute:
                bound = f"+{metric.bound:g}"
            else:
                bound = f"{metric.bound:.0%}"
            print(f"{name:<20}{metric.name:<14}{va:>13.6g}{vb:>13.6g}  "
                  f"{metric.unit:<5}{ratio}  {bound:<7} {mark}")
            if mark == "worse":
                failures.append(f"{name}: {metric.name} is worse")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    with open(args.baseline) as fh:
        a = json.load(fh)
    with open(args.candidate) as fh:
        b = json.load(fh)
    failures = compare(a, b)
    for failure in failures:
        print(f"FAIL {failure}")
    print("compare: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
