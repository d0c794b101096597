"""The repo benchmark: one command, seven workloads, checked outputs.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S | --reps R] [--scale F]
                                  [--trace 0|1] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs in fresh subprocesses of its own (``worker.py``), one
after another; generator and system share one process and one thread.
Without ``--trace`` a workload gets both passes: the untraced repetitions
that every end-to-end metric comes from, then one traced repetition for
the per-layer numbers.  ``--trace 0`` runs the untraced pass alone and
``--trace 1`` a shortened untraced pass (for the exact counts, the latency
splits and the tracing overhead) followed by the traced one.  Every time
reported is in reference seconds (see ``calibrate.py``).

For every workload the last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics listed in ``BENCHMARK.json`` for ``--trace 0``, the per-layer
metrics for ``--trace 1``, both without ``--trace``.  The exit code is
non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
#: No child may outlive this; the driver allows a run 180 s in all.
CHILD_DEADLINE_S = 150.0


class BenchmarkError(RuntimeError):
    """A child process failed, hung, or reported nonsense."""


def _child(worker_args: List[str]) -> Dict[str, object]:
    """Run one worker; returns ``{"setup_s": spawn -> ready}`` plus the
    worker's JSON report (absent for ``--setup-only``)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *worker_args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_DEADLINE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise BenchmarkError(
            f"worker {' '.join(worker_args)} exited with code {code}"
        )
    out: Dict[str, object] = {"setup_s": setup_s}
    lines = rest.strip().splitlines()
    if lines:
        out.update(json.loads(lines[-1]))
    return out


def _spread(values: List[float]) -> Dict[str, object]:
    """Median, quartiles and the raw values of one metric."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3,
        "raw": list(values),
    }


def measure(
    workload: workloads.Workload,
    *,
    seed: int,
    scale: float,
    seconds: float,
    reps: int,
    setup_samples: int,
    traced: bool,
) -> Dict[str, object]:
    """All passes of one workload; see the module docstring."""
    base = ["--workload", workload.name, "--seed", str(seed),
            "--scale", repr(scale)]
    pace = ["--reps", str(reps)] if reps else ["--seconds", repr(seconds)]

    # Set-up is timed on children that stop once they are ready, so that
    # the speed reference can be taken right after each of them.
    setups = []
    after = calibrate.block()
    for _ in range(setup_samples):
        before = after
        setup_s = _child(base + ["--setup-only"])["setup_s"]
        after = calibrate.block()
        setups.append(setup_s / calibrate.slowdown(before, after))
    report = _child(base + pace)
    violations = list(report["warmup_violations"]) + list(report["violations"])

    end_to_end = {"setup_s": _spread(setups)}
    for name, values in report["raw"].items():
        end_to_end[name] = _spread(values)
    end_to_end["peak_rss_mb"] = _spread([report["peak_rss_mb"]])
    units = {m.name: m.unit for m in workloads.END_TO_END}
    for name, entry in end_to_end.items():
        entry["unit"] = units[name]

    result: Dict[str, object] = {
        "kind": workload.kind,
        "reps": report["reps"],
        "slowdown": report["slowdown"],
        "latency_samples": report["latency_samples"],
        "schedule_sha256": report["schedule_sha256"],
        "counts": report["counts"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "end_to_end": end_to_end,
    }

    if traced:
        trace_file = os.path.join(OUT_DIR, f"trace_{workload.name}.json")
        trace = _child(base + ["--trace-file", trace_file])
        violations += trace["violations"]
        if trace["schedule_sha256"] != report["schedule_sha256"]:
            violations.append("traced repetition behaved differently")
        per_layer: Dict[str, float] = {}
        for span in workloads.SPAN_NAMES:
            stats = trace["spans"].get(span, {"calls": 0, "self_ms": 0.0})
            per_layer[f"{span}.calls"] = stats["calls"]
            per_layer[f"{span}.self_ms"] = stats["self_ms"]
        for name in (workloads.SIM_COUNTS + workloads.SERVICE_COUNTS
                     + workloads.RATIOS):
            per_layer[name] = report["counts"].get(name, 0)
        for name in workloads.LATENCY_SPLITS:
            values = report["splits"].get(name)
            per_layer[name] = statistics.median(values) if values else 0.0
        per_layer["trace_overhead"] = (
            trace["raw"]["wall_s"][0] / end_to_end["wall_s"]["value"]
        )
        per_layer["trace.missing"] = len(trace["trace_missing"])
        result["per_layer"] = per_layer
        result["trace_missing"] = trace["trace_missing"]
        result["trace_file"] = os.path.relpath(trace_file, ROOT)

    result["violations"] = violations
    result["correct"] = not violations
    return result


def contract_line(result: Dict[str, object], trace: Optional[int]) -> str:
    """The JSON object the driver reads from the last line."""
    metrics: Dict[str, Dict[str, object]] = {}
    end_to_end = result["end_to_end"]
    if trace != 1:
        for m in workloads.universal_end_to_end():
            metrics[m.name] = {
                "value": end_to_end[m.name]["value"], "unit": m.unit,
            }
    if trace != 0:
        universal = {m.name for m in workloads.universal_end_to_end()}
        for m in workloads.per_layer_metrics():
            if m.name in end_to_end and m.name not in universal:
                value = end_to_end[m.name]["value"]
            else:
                # A metric that is not defined on this kind of workload
                # (a sim span on a service workload, p99_ms on a sim
                # workload) reads 0.
                value = result["per_layer"].get(m.name, 0)
            metrics[m.name] = {"value": value, "unit": m.unit}
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _print_block(name: str, result: Dict[str, object], stamp: Dict[str, object]) -> None:
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"== {name} ({result['kind']}) seed {stamp['seed']} scale "
          f"{stamp['scale']}: {result['reps']} repetitions, {verdict}")
    for violation in result["violations"]:
        print(f"   violation: {violation}")
    for m in workloads.END_TO_END:
        entry = result["end_to_end"].get(m.name)
        if entry is None:
            continue
        print(f"   {m.name:<14}{entry['value']:>14.6g} {m.unit:<5} "
              f"q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
              f"n {len(entry['raw'])}")
    if result["latency_samples"]:
        print(f"   latency samples per repetition: {result['latency_samples']}")
    print(f"   schedule_sha256 {result['schedule_sha256']}")
    print("   counts " + " ".join(
        f"{k}={v:.6g}" for k, v in result["counts"].items()
    ))
    if "per_layer" in result:
        per_layer = result["per_layer"]
        print(f"   traced pass: trace_overhead x{per_layer['trace_overhead']:.2f}, "
              f"trace.missing {result['trace_missing']}, "
              f"spans in {result['trace_file']}")
        for span in workloads.SPAN_NAMES:
            calls = per_layer[f"{span}.calls"]
            if calls:
                print(f"     {span:<40}{calls:>9} calls "
                      f"{per_layer[f'{span}.self_ms']:>11.3f} ms self")
        for split in workloads.LATENCY_SPLITS:
            if per_layer[split]:
                print(f"     {split:<40}{per_layer[split]:>12.4f} ms")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds only the workload generators")
    parser.add_argument("--seconds", type=float, default=default_seconds,
                        help="how long one untraced pass measures")
    parser.add_argument("--reps", type=int, default=0,
                        help="fixed repetition count instead of --seconds")
    parser.add_argument("--scale", type=float, default=workloads.DEFAULT_SCALE,
                        help="common factor on every transaction count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--setup-samples", type=int, default=5,
                        help="fresh set-ups timed for setup_s (median)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.seconds <= 0 or args.reps < 0 or args.setup_samples < 1:
        parser.error("--scale, --seconds and --setup-samples must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2

    stamp = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": None if args.reps else args.seconds,
        "reps": args.reps or None,
        "setup_samples": args.setup_samples,
        "trace": args.trace,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    results: Dict[str, object] = {}
    names = args.workload or list(workloads.WORKLOADS)
    for name in names:
        try:
            result = measure(
                workloads.WORKLOADS[name],
                seed=args.seed, scale=args.scale,
                seconds=args.seconds / 2 if args.trace == 1 else args.seconds,
                reps=args.reps,
                setup_samples=1 if args.trace == 1 else args.setup_samples,
                traced=args.trace != 0,
            )
        except BenchmarkError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        results[name] = result
        _print_block(name, result, stamp)
        print(contract_line(result, args.trace), flush=True)

    with open(args.out, "w") as fh:
        json.dump({"stamp": stamp, "workloads": results}, fh, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
