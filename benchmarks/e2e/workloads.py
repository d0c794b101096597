"""The benchmark's workloads, its metric names, and one repetition of each.

Seven workloads, in two kinds.  A *sim* workload builds its inputs through
a registered grid factory and runs ``Simulator`` with its defaults
(``engine="event"``, ``lock_shards=1``, ``shard_workers=0``) — the
configuration every caller gets.  A *service* workload drives
``LockService`` with the closed-loop generator in :mod:`loadgen`.  Why
each workload exists is recorded next to it, and again in
``BENCHMARK.json`` and ``README.md``.

Nothing here imports ``repro`` at module level: the parent process
(``run.py``) reads the tables without paying for the imports it times in
its children.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import loadgen

#: Transaction counts in the tables below are multiplied by this common
#: factor (``--scale`` overrides it).  The counts are the sizes the issue
#: measured on a 2-CPU box, where one repetition takes 3-8 s.  The speed
#: reference (see :mod:`calibrate`) is taken between repetitions, and the
#: longer a repetition the less the two blocks around it say about the
#: machine during it: on the recorded series, ten-second medians spread
#: by 5% with 0.3 s repetitions, 8% with 1.7 s and 14% with 2.6 s.  So
#: every workload is cut by the same factor and none is dropped.
DEFAULT_SCALE = 0.25

SIM, SERVICE = "sim", "service"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    why: str
    #: sim: policy class name in ``repro.policies``; service: unused.
    policy: str = ""
    #: sim: registered grid factory name.
    factory: str = ""
    #: sim: factory kwargs at scale 1 (``num_txns`` is scaled);
    #: service: ``loadgen.make_plan`` kwargs (``txns_per_session`` is scaled,
    #: then ``sessions``).
    params: Tuple[Tuple[str, object], ...] = ()

    def scaled_params(self, scale: float) -> Dict[str, object]:
        params = dict(self.params)
        if self.kind == SIM:
            params["num_txns"] = max(2, int(params["num_txns"] * scale))
            return params
        # Fewer transactions per session; below one each, fewer sessions.
        txns = params["sessions"] * params["txns_per_session"] * scale
        params["txns_per_session"] = max(1, int(txns / params["sessions"]))
        if txns < params["sessions"]:
            params["sessions"] = max(1, int(txns))
        return params


def service_connections() -> int:
    """``K``: one connection per processor, at most two."""
    return min(2, os.cpu_count() or 1)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "stress_steady", SIM,
            "Open 2PL system below capacity (live population ~1): the wall "
            "is the fixed per-tick cost, so an O(live) fix must not move it "
            "and a fixed-overhead fix moves it most.",
            policy="TwoPhasePolicy", factory="stress",
            # 6,000 transactions where the issue has 10,000: the system is
            # in a steady state, so length adds nothing but seconds, and
            # with 0.57 s repetitions ``req_per_s`` spread by 9-10% over
            # ten seeds.
            params=(("num_txns", 6_000), ("num_entities", 8_000),
                    ("arrival_rate", 0.07), ("hot_fraction", 0)),
        ),
        Workload(
            "stress_backlog", SIM,
            "Same generator and policy as stress_steady, overloaded 3x: "
            "hundreds of live sessions, so the O(live) per-tick terms do "
            "most of the work here and almost none there.",
            policy="TwoPhasePolicy", factory="stress",
            params=(("num_txns", 3_000), ("num_entities", 8_000),
                    ("arrival_rate", 0.25), ("hot_fraction", 0)),
        ),
        Workload(
            "deadlock_storm", SIM,
            "Waits-for graph, victim selection, abort/restart and event-log "
            "erasure do the work; the only workload with fat classify "
            "batches.",
            policy="TwoPhasePolicy", factory="deadlock_storm",
            params=(("num_txns", 2_000), ("num_entities", 600),
                    ("accesses_per_txn", 2), ("arrival_rate", 0.4),
                    ("hot_set_size", 8), ("hot_traffic", 0.5)),
        ),
        Workload(
            "ddag_churn", SIM,
            "The paper's subject: DDAG traversals with node inserts under "
            "rule L5. Policy admission and graph code dominate the run; the "
            "dense conflict graph makes the serializability check costly.",
            policy="DdagPolicy", factory="dynamic_traversal",
            params=(("num_txns", 4_000), ("nodes", 60), ("edge_prob", 0.05),
                    ("walk_length", 3), ("insert_prob", 0.3),
                    ("arrival_rate", 0.18)),
        ),
        Workload(
            "altruistic_wake", SIM,
            "Uses the admission layer the other way from ddag_churn: here "
            "notify_changed -> policy_changed fires (DDAG records 0 "
            "invalidations), so a gain for one use that costs the other "
            "shows.",
            policy="AltruisticPolicy", factory="stress",
            params=(("num_txns", 3_500), ("num_entities", 2_000),
                    ("arrival_rate", 0.085), ("hot_fraction", 0)),
        ),
        Workload(
            "service_uncontended", SERVICE,
            "Closed loop, 2x8 sessions over 100,000 entities, <0.1% of "
            "acquires block: protocol decode/encode, authorization, audit "
            "append and the transport do the work; the blocked path is idle.",
            # 750 transactions a session where the issue has 1,500: with
            # 0.9 s repetitions the run's median spread by 10% over ten
            # seeds on identical request counts.
            params=(("sessions", 8), ("txns_per_session", 750),
                    ("entities", 100_000), ("exclusive_prob", 0.5),
                    ("probe_every", 7)),
        ),
        Workload(
            "service_contended", SERVICE,
            "Closed loop, 2x256 sessions over 64 entities, >20% of acquires "
            "block: LockKernel's per-BLOCKED waits-for rebuild and "
            "from-scratch oracle do the work, through the same protocol "
            "stack.",
            # Four transactions a session where the issue has eight: a
            # repetition cannot be shorter than one transaction in each of
            # the 512 sessions, and with two (1.4 s) a run held four
            # repetitions whose median spread by 13-16% over ten seeds.
            params=(("sessions", 256), ("txns_per_session", 4),
                    ("entities", 64), ("exclusive_prob", 0.3),
                    ("probe_every", 0)),
        ),
    )
}


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may get worse
    #: (``absolute`` bounds are in the metric's own unit); ``None`` for a
    #: metric that is reported and never gated.
    bound: float = None
    absolute: bool = False
    #: Workload kinds the metric is defined on.
    kinds: Tuple[str, ...] = (SIM, SERVICE)


#: The nine end-to-end metrics.  Those defined on both kinds with a
#: relative bound are what ``BENCHMARK.json`` lists under ``end_to_end``
#: (the driver wants every such metric from every workload, never 0); the
#: others are listed there under ``per_layer`` and gated by ``run.py
#: compare`` only.  The bounds are three times the spread (quartile
#: distance over median) of ten runs on ten seeds on the 2-CPU box, capped
#: at 25%.  ``p99_ms`` is not gated: on ``service_uncontended`` it spread
#: by 84% — a tail of millisecond stalls that belongs to the box.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("us_per_tick", "us", "lower", 0.25, kinds=(SIM,)),
    Metric("verify_s", "s", "lower", 0.25, kinds=(SIM,)),
    Metric("req_per_s", "1/s", "higher", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25, kinds=(SERVICE,)),
    Metric("p99_ms", "ms", "lower", kinds=(SERVICE,)),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("failed_share", "ratio", "lower", 0.005, absolute=True),
)

#: Span names of the traced pass, by layer (see ``shims.TARGETS``).
SPAN_NAMES: Tuple[str, ...] = (
    "sim.workloads.generate",
    "sim.scheduler.run", "sim.scheduler.admit", "sim.scheduler.phase_commit",
    "sim.scheduler.phase_classify", "sim.scheduler.phase_deadlock",
    "sim.scheduler.phase_execute",
    "sim.admission.take_check_slices", "sim.admission.derive",
    "sim.admission.apply", "sim.admission.policy_changed",
    "sim.executor.run_classify",
    "sim.lock_table.acquire", "sim.lock_table.release",
    "sim.lock_table.blockers",
    "sim.waits_for.update", "sim.waits_for.find_cycle",
    "sim.deadlock.find_cycle", "sim.deadlock.pick_victim",
    "sim.event_log.erase", "sim.event_log.assemble",
    "kernel.lifecycle.execute_step", "kernel.lifecycle.commit",
    "kernel.lifecycle.abort",
    "policies.context.begin", "policies.session.peek",
    "policies.session.admission",
    "core.schedules.assert_legal", "core.schedules.assert_proper",
    "core.serializability.is_serializable",
    "kernel.core.begin", "kernel.core.acquire", "kernel.core.finish",
    "kernel.audit.append",
    "service.protocol.decode", "service.protocol.encode",
    "service.auth.check",
)

#: Exact counts read from the program's own counters after the untraced
#: repetitions.  They repeat exactly for a seed, so two commits compare
#: exactly.
SIM_COUNTS: Tuple[str, ...] = (
    "sim.ticks", "sim.committed", "sim.restarts", "sim.deadlocks",
    "sim.mean_active", "sim.classify_checks", "sim.admission_checks",
    "sim.blocker_queries", "sim.wakeups", "sim.invalidations",
    "sim.cycle_detections", "sim.cycle_visits",
)
SERVICE_COUNTS: Tuple[str, ...] = (
    "service.requests", "service.blocked", "service.woken", "service.denied",
    "service.audit_entries", "service.parked_peak",
)
RATIOS: Tuple[str, ...] = (
    "sim.event_log.kept_share", "sim.waits_for.visits_per_detection",
    "service.blocked_share",
)
SERVICE_OPS: Tuple[str, ...] = ("begin", "acquire", "locks", "commit")
LATENCY_SPLITS: Tuple[str, ...] = tuple(
    f"service.op.{op}.{p}_ms" for op in SERVICE_OPS for p in ("p50", "p99")
) + ("service.parked_wait.p50_ms", "service.parked_wait.p99_ms")


def universal_end_to_end() -> Tuple[Metric, ...]:
    """The end-to-end metrics every workload reports."""
    return tuple(
        m for m in END_TO_END
        if m.kinds == (SIM, SERVICE) and m.bound is not None and not m.absolute
    )


def per_layer_metrics() -> Tuple[Metric, ...]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them:
    the end-to-end metrics that are not universal, then spans, counts,
    ratios, latency splits and the two facts about the traced pass."""
    universal = {m.name for m in universal_end_to_end()}
    out: List[Metric] = [m for m in END_TO_END if m.name not in universal]
    for span in SPAN_NAMES:
        out.append(Metric(f"{span}.calls", "count", "lower"))
        out.append(Metric(f"{span}.self_ms", "ms", "lower"))
    for name in SIM_COUNTS + SERVICE_COUNTS:
        out.append(Metric(
            name, "count",
            "higher" if name == "sim.committed" else "lower",
        ))
    for name in RATIOS:
        out.append(Metric(
            name, "ratio",
            "higher" if name == "sim.event_log.kept_share" else "lower",
        ))
    out.extend(Metric(name, "ms", "lower") for name in LATENCY_SPLITS)
    out.append(Metric("trace_overhead", "ratio", "lower"))
    out.append(Metric("trace.missing", "count", "lower"))
    return tuple(out)


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

#: Two seeds share no inputs in their first thousand repetitions (see
#: :func:`generator_seed`).
INSTANCES_PER_SEED = 1000


def generator_seed(seed: int, instance: int) -> int:
    """The seed of inputs number ``instance`` of a run with ``--seed seed``.

    One seed stands for a family of inputs, and the repetitions of a run
    walk through it.  How much blocking one set of inputs holds is itself
    a draw — across seeds ``deadlock_storm`` has 350 to 600 deadlocks, and
    its ``wall_s`` spread by 20% when every repetition ran the same inputs
    — so a run reports the median over a sample of inputs, which two seeds
    agree on far better than two single inputs do.  Instance 0 is the one
    the behaviour record (``schedule_sha256``, the exact counts) and the
    traced pass use."""
    return seed * INSTANCES_PER_SEED + instance


def generate(workload: Workload, seed: int, scale: float):
    """The workload's inputs for a generator seed: ``(items, initial state,
    context kwargs)`` for a sim workload, a ``loadgen.ServicePlan`` for a
    service workload.  Dynamic policies mutate their context graph, so
    inputs are never reused."""
    params = workload.scaled_params(scale)
    if workload.kind == SIM:
        from repro.sim import grid_factory

        return grid_factory(workload.factory)(seed, **params)
    return loadgen.make_plan(seed, connections=service_connections(), **params)


def repetition(
    workload: Workload, seed: int, scale: float, instance: int = 0
) -> Dict[str, object]:
    """Generate inputs number ``instance`` (untimed), run the workload on
    them once (timed), check its outputs, and return the raw numbers of
    this repetition:

    ``raw``         end-to-end values measured by this repetition
    ``sha256``      digest of the simulated/served behaviour
    ``counts``      exact counts and waste ratios
    ``splits``      per-op latency percentiles (service only)
    ``attempted`` / ``failed``  operations checked and operations that did
                    not end the way the generator expected
    ``violations``  correctness-gate failures (empty when correct)
    """
    seed = generator_seed(seed, instance)
    inputs = generate(workload, seed, scale)
    if workload.kind == SIM:
        return _sim_repetition(workload, seed, *inputs)
    return _service_repetition(inputs)


def to_reference_speed(result: Dict[str, object], slowdown: float) -> None:
    """Restate the timings of one repetition in reference seconds: times
    are divided and rates multiplied by the ``slowdown`` the machine
    showed around it (see :mod:`calibrate`), which is kept beside them."""
    units = {m.name: m.unit for m in END_TO_END}
    raw = result["raw"]
    for name, value in raw.items():
        if units[name] == "1/s":
            raw[name] = value * slowdown
        elif units[name] in ("s", "ms", "us"):
            raw[name] = value / slowdown
    splits = result["splits"]  # all in ms
    for name, value in splits.items():
        splits[name] = value / slowdown
    result["slowdown"] = slowdown


def _sim_repetition(
    workload: Workload, seed: int, items, initial, context_kwargs
) -> Dict[str, object]:
    import repro.policies
    from repro.core import serializability
    from repro.exceptions import ModelError
    from repro.sim import Simulator

    policy = getattr(repro.policies, workload.policy)()
    sim = Simulator(
        policy, seed=seed, max_ticks=100_000_000,
        context_kwargs=context_kwargs,
    )
    violations: List[str] = []

    start = time.perf_counter()
    result = sim.run(items, initial, validate=False)
    ran = time.perf_counter()
    schedule = result.schedule
    try:
        schedule.assert_legal()
        schedule.assert_proper(initial)
    except ModelError as exc:
        violations.append(f"{type(exc).__name__}: {exc}"[:300])
    # Called through the module so the traced pass sees the shim.
    if not serializability.is_serializable(schedule):
        violations.append("schedule is not serializable")
    verified = time.perf_counter()

    m = result.metrics
    submitted = len(items)
    dropped = len(result.aborted)
    missing = submitted - m.committed - dropped
    if missing:
        violations.append(
            f"committed {m.committed} + dropped {dropped} != "
            f"submitted {submitted}"
        )
    run_s = ran - start
    digest = hashlib.sha256()
    for event in schedule.events:
        digest.update(f"{event}\n".encode())
    digest.update(json.dumps(m.summary(), sort_keys=True).encode())
    digest.update("\n".join(m.deadlock_victims).encode())
    return {
        "raw": {
            "wall_s": verified - start,
            "us_per_tick": 1e6 * run_s / m.ticks,
            "verify_s": verified - ran,
            # Every executed step is one request to the lock manager.
            "req_per_s": m.events_executed / run_s,
            "failed_share": dropped / submitted,
        },
        "sha256": digest.hexdigest(),
        "counts": {
            "sim.ticks": m.ticks,
            "sim.committed": m.committed,
            "sim.restarts": m.restarts,
            "sim.deadlocks": m.deadlocks,
            "sim.mean_active": m.mean_active,
            "sim.classify_checks": m.classify_checks,
            "sim.admission_checks": m.admission_checks,
            "sim.blocker_queries": m.blocker_queries,
            "sim.wakeups": m.wakeups,
            "sim.invalidations": m.invalidations,
            "sim.cycle_detections": m.cycle_detections,
            "sim.cycle_visits": m.cycle_visits,
            "sim.event_log.kept_share": len(schedule) / m.events_executed,
            "sim.waits_for.visits_per_detection": (
                m.cycle_visits / m.cycle_detections
                if m.cycle_detections else 0.0
            ),
        },
        "splits": {},
        "attempted": submitted,
        "failed": missing,
        "violations": violations,
    }


def _service_repetition(plan: "loadgen.ServicePlan") -> Dict[str, object]:
    outcome = loadgen.run_plan(plan)
    everything = [v for values in outcome.latency_ms.values() for v in values]
    splits = {}
    for op in SERVICE_OPS:
        splits[f"service.op.{op}.p50_ms"] = loadgen.percentile(outcome.latency_ms[op], 0.50)
        splits[f"service.op.{op}.p99_ms"] = loadgen.percentile(outcome.latency_ms[op], 0.99)
    for p, q in (("p50", 0.50), ("p99", 0.99)):
        splits[f"service.parked_wait.{p}_ms"] = (
            loadgen.percentile(outcome.parked_wait_ms, q)
            if outcome.parked_wait_ms else 0.0
        )
    return {
        "raw": {
            "wall_s": outcome.wall_s,
            "req_per_s": outcome.requests / outcome.wall_s,
            "p50_ms": loadgen.percentile(everything, 0.50),
            "p99_ms": loadgen.percentile(everything, 0.99),
            "failed_share": outcome.unexpected / outcome.requests,
        },
        "latency_samples": len(everything),
        "sha256": outcome.audit_sha256,
        "counts": {
            "service.requests": outcome.requests,
            "service.blocked": outcome.blocked,
            "service.woken": outcome.woken,
            "service.denied": outcome.denied,
            "service.audit_entries": outcome.audit_entries,
            "service.parked_peak": outcome.parked_peak,
            "service.blocked_share": outcome.blocked / outcome.acquires,
        },
        "splits": splits,
        "attempted": outcome.requests,
        "failed": outcome.unexpected,
        "violations": outcome.violations,
    }
