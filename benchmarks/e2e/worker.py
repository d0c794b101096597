"""One workload in one fresh process: set up, warm up, repeat, report.

``run.py`` starts this file as a subprocess — once per set-up probe, once
for the untraced repetitions, once for the traced pass — so that every
workload gets a fresh interpreter and ``peak_rss_mb`` belongs to it alone.
Set-up is everything up to the ``ready`` line: imports, workload
generation, and one warm-up repetition at 10% size.  Repetition ``i`` runs
inputs number ``i`` of the seed (``workloads.generator_seed``); the
behaviour record is that of inputs 0, which the traced pass runs again.
The last line of standard output is the JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat until this much time has been measured")
    parser.add_argument("--reps", type=int, default=0,
                        help="repeat exactly this many times instead")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default="",
                        help="run one traced repetition and write its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import calibrate
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workloads.generate(
        workload, workloads.generator_seed(args.seed, 0), args.scale
    )
    warm = workloads.repetition(workload, args.seed, args.scale * 0.1)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    report = {"workload": workload.name, "warmup_violations": warm["violations"]}
    tracer = None
    if args.trace_file:
        import shims
        tracer = shims.Tracer()
        report["trace_missing"] = shims.install(tracer)
        reps = 1
    else:
        reps = args.reps

    results = []
    began = time.perf_counter()
    after = calibrate.block()
    while True:
        before = after
        result = workloads.repetition(
            workload, args.seed, args.scale, instance=len(results)
        )
        after = calibrate.block()
        workloads.to_reference_speed(result, calibrate.slowdown(before, after))
        results.append(result)
        done = len(results)
        elapsed = time.perf_counter() - began
        if reps:
            if done >= reps:
                break
        # At least two, a median of one being a single draw; then stop
        # within half a repetition of the target.
        elif done >= 2 and elapsed + 0.5 * elapsed / done >= args.seconds:
            break

    if tracer is not None:
        os.makedirs(os.path.dirname(args.trace_file) or ".", exist_ok=True)
        tracer.flush(args.trace_file)
        # The trace file keeps measured time; the report is in reference
        # seconds like every other timing.
        slowdown = results[0]["slowdown"]
        report["spans"] = {
            name: {"calls": s["calls"], "self_ms": s["self_ms"] / slowdown}
            for name, s in tracer.summary().items()
        }

    report.update(
        reps=len(results),
        raw={
            name: [r["raw"][name] for r in results]
            for name in results[0]["raw"]
        },
        splits={
            name: [r["splits"][name] for r in results]
            for name in results[0]["splits"]
        },
        slowdown=[r["slowdown"] for r in results],
        latency_samples=results[0].get("latency_samples", 0),
        schedule_sha256=results[0]["sha256"],
        counts=results[0]["counts"],
        attempted=sum(r["attempted"] for r in results),
        failed=sum(r["failed"] for r in results),
        violations=[v for r in results for v in r["violations"]],
        # ru_maxrss is KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
