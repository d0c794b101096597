"""Smoke test of the repo benchmark (``benchmarks/e2e``): tiny sizes, one
repetition, both passes.  It checks the benchmark's plumbing — the gates,
the metric names, the shims' targets, ``compare`` — not any timing."""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE = ["--scale", "0.02", "--reps", "1", "--setup-samples", "1"]


def _run(tmp_path_factory, extra):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    code = run.main(SMOKE + ["--out", str(out)] + extra)
    with open(out) as fh:
        return code, json.load(fh)


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload, untraced and traced pass, seed 0."""
    return _run(tmp_path_factory, [])


def test_benchmark_json_matches_the_tables(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert benchmark_json["workloads"] == [
        {"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()
    ]
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in workloads.universal_end_to_end()
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in workloads.per_layer_metrics()
    ]
    # The nine end-to-end metrics are all named, gated by the driver or not.
    named = {m["name"] for key in ("end_to_end", "per_layer")
             for m in benchmark_json[key]}
    assert {m.name for m in workloads.END_TO_END} <= named


def test_every_workload_passes_its_gate_and_names_every_metric(
    smoke, benchmark_json
):
    code, result = smoke
    assert code == 0
    assert list(result["workloads"]) == list(workloads.WORKLOADS)
    end_to_end = [m["name"] for m in benchmark_json["end_to_end"]]
    per_layer = [m["name"] for m in benchmark_json["per_layer"]]
    for name, measured in result["workloads"].items():
        assert measured["correct"] and not measured["violations"], name
        assert measured["trace_missing"] == [], name
        for trace, expected in (
            (0, end_to_end), (1, per_layer), (None, end_to_end + per_layer)
        ):
            line = json.loads(run.contract_line(measured, trace))
            assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
            assert line["correct"] is True and line["failed"] == 0, name
            assert line["attempted"] >= 1, name
            assert list(line["metrics"]) == expected, (name, trace)
            assert all(
                isinstance(m["value"], (int, float))
                for m in line["metrics"].values()
            ), (name, trace)
        for metric in end_to_end:
            assert measured["end_to_end"][metric]["value"] > 0, (name, metric)
    # Each kind's own layers were reached by the traced pass.
    sim = result["workloads"]["altruistic_wake"]["per_layer"]
    assert sim["sim.admission.policy_changed.calls"] > 0
    assert sim["policies.session.admission.calls"] > 0
    assert sim["service.protocol.decode.calls"] == 0
    service = result["workloads"]["service_contended"]["per_layer"]
    assert service["kernel.core.acquire.calls"] > 0
    assert service["service.blocked"] > 0
    assert service["sim.scheduler.run.calls"] == 0


def test_the_seed_reaches_the_generators(smoke, tmp_path_factory):
    _, seed0 = smoke
    picked = ["ddag_churn", "service_uncontended"]
    extra = ["--seed", "1", "--trace", "0"]
    for name in picked:
        extra += ["--workload", name]
    code, seed1 = _run(tmp_path_factory, extra)
    assert code == 0
    for name in picked:
        assert (seed1["workloads"][name]["schedule_sha256"]
                != seed0["workloads"][name]["schedule_sha256"])


def test_compare_flags_a_regression_and_a_behaviour_change(smoke):
    _, result = smoke
    assert compare.compare(result, copy.deepcopy(result)) == []

    wall = next(m for m in workloads.END_TO_END if m.name == "wall_s")
    slower = copy.deepcopy(result)
    slower["workloads"]["stress_backlog"]["end_to_end"]["wall_s"]["value"] *= (
        1 + wall.bound + 0.1
    )
    assert compare.compare(result, slower) == [
        "stress_backlog: wall_s is worse"
    ]

    changed = copy.deepcopy(result)
    changed["workloads"]["ddag_churn"]["schedule_sha256"] = "0" * 64
    changed["workloads"]["ddag_churn"]["counts"]["sim.ticks"] += 1
    failures = compare.compare(result, changed)
    assert "ddag_churn: schedule_sha256 differs" in failures
    assert any(f.startswith("ddag_churn: sim.ticks differs") for f in failures)


def test_the_audit_oracle_finds_two_incompatible_holders():
    from repro.kernel.audit import AuditLog

    log = AuditLog()
    log.append("acquire", "c0", "granted", txn="t1", entity="e1")
    log.append("acquire", "c1", "blocked", txn="t2", entity="e1")
    log.append("commit", "c0", "granted", txn="t1")
    log.append("grant", "t2", "granted", txn="t2", entity="e1")
    log.append("acquire", "c0", "granted", txn="t3", entity="e1")
    modes = {(t, "'e1'"): m for t, m in (("t1", "X"), ("t2", "S"), ("t3", "S"))}
    assert loadgen.replay_violations(log.entries(), modes) == []
    modes["t3", "'e1'"] = "X"
    (found,) = loadgen.replay_violations(log.entries(), modes)
    assert "t3 granted X on 'e1' while t2 holds S" in found


def test_reference_speed_divides_times_and_multiplies_rates():
    result = {
        "raw": {"wall_s": 3.0, "req_per_s": 100.0, "failed_share": 0.1},
        "splits": {"service.op.begin.p50_ms": 6.0},
    }
    workloads.to_reference_speed(result, 1.5)
    assert result["raw"] == {"wall_s": 2.0, "req_per_s": 150.0, "failed_share": 0.1}
    assert result["splits"] == {"service.op.begin.p50_ms": 4.0}
    assert result["slowdown"] == 1.5
