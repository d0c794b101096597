"""The ``python -m repro.bench`` CLI surface: preset/factory discovery via
``--list``, the preset definitions themselves (shapes only — the full
grid runs are exercised by benchmarks/ and the CI smoke jobs), and the
``--compare`` artifact-diff mode CI uses as its regression gate."""

import json

import pytest

from repro import bench
from repro.sim import grid_factory_names


class TestListFlag:
    def test_list_prints_presets_and_factories(self, capsys):
        assert bench.main(["--list"]) == 0
        out = capsys.readouterr().out
        for preset in bench.PRESETS:
            assert preset in out
        for factory in grid_factory_names():
            assert factory in out

    def test_list_needs_no_preset(self, capsys):
        # --list alone must not trip the "a preset is required" error.
        assert bench.main(["--list"]) == 0

    def test_missing_preset_errors(self, capsys):
        with pytest.raises(SystemExit):
            bench.main([])


class TestPresets:
    def test_registry_covers_the_documented_grids(self):
        assert set(bench.PRESETS) == {"stress", "deadlock", "traversal"}

    def test_special_benches_registered_and_listed(self, capsys):
        assert bench.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "special:    scaling\n" in out
        # The retired service bench is no longer a choice: the e2e
        # service workloads measure the served path.
        with pytest.raises(SystemExit) as exc:
            bench.main(["service"])
        assert exc.value.code == 2
        assert "invalid choice: 'service'" in capsys.readouterr().err

    def test_scale_shrinks_with_floor(self):
        spec = bench.PRESETS["stress"](0.0001)
        assert spec.workloads[0].kwargs["num_txns"] == 50

    def test_parser_accepts_workers_and_scale(self):
        args = bench.build_parser().parse_args(
            ["deadlock", "--workers", "2", "--scale", "0.1"]
        )
        assert (args.workers, args.scale) == (2, 0.1)


class TestArgValidation:
    """Explicit ``--workers``/``--seeds`` below 1 are parse-time errors;
    omitting ``--workers`` still selects the in-process reference path."""

    @pytest.mark.parametrize("flag", ["--workers", "--seeds"])
    @pytest.mark.parametrize("value", ["0", "-1", "-8"])
    def test_non_positive_values_rejected_at_parse_time(
        self, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(["stress", flag, value])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--seeds"])
    def test_non_integer_values_rejected(self, capsys, flag):
        with pytest.raises(SystemExit):
            bench.build_parser().parse_args(["stress", flag, "two"])

    def test_defaults_survive_validation(self):
        args = bench.build_parser().parse_args(["stress"])
        assert args.workers == 0  # in-process reference path
        assert args.seeds is None  # preset's own seed tuple

    def test_positive_values_accepted(self):
        args = bench.build_parser().parse_args(
            ["stress", "--workers", "3", "--seeds", "5"]
        )
        assert (args.workers, args.seeds) == (3, 5)

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
    def test_non_positive_scale_rejected_at_parse_time(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(["stress", "--scale", value])
        assert exc.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_fractional_scale_accepted(self):
        args = bench.build_parser().parse_args(["stress", "--scale", "0.05"])
        assert args.scale == 0.05

    @pytest.mark.parametrize(
        "flag", ["--shards", "--shard-workers", "--executor"]
    )
    def test_no_shard_or_executor_flag_exists(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            bench.build_parser().parse_args(["stress", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestScalingBench:
    def test_writes_one_row_per_size_with_the_curve_columns(self, tmp_path):
        out = tmp_path / "scaling.json"
        assert bench.main(["scaling", "--scale", "0.01", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["bench"] == "scaling"
        # One row set per policy, each over every point, in that order.
        assert [(row["policy"], row["txns"]) for row in doc["rows"]] == [
            (policy().name, bench._scaled(txns, 0.01))
            for policy, _ in bench._SCALING_POLICIES
            for txns, _ in bench._SCALING_POINTS
        ]
        assert {row["policy"] for row in doc["rows"]} == {"2PL", "Altruistic"}
        for row in doc["rows"]:
            assert list(row) == bench._SCALING_COLUMNS
            assert row["failures"] == 0
            assert row["serializable"] is True
            assert row["rule_violations"] == 0
            assert row["committed"] == row["txns"]
            assert row["us_per_tick"] == pytest.approx(
                1e6 * row["wall_s"] / row["ticks"], rel=0.01
            )
        extra = doc["extra"]
        assert extra["arrival_rate"] == 0.085
        assert {"python", "cpu_count", "git_sha"} <= set(extra)

    def test_arrival_rate_overloads_the_population(self, tmp_path):
        means = {}
        for rate in ("0.085", "0.5"):
            out = tmp_path / f"scaling_{rate}.json"
            assert bench.main(
                ["scaling", "--scale", "0.01", "--arrival-rate", rate,
                 "--out", str(out)]
            ) == 0
            doc = json.loads(out.read_text())
            assert doc["extra"]["arrival_rate"] == float(rate)
            means[rate] = doc["rows"][-1]["mean_active"]
        assert means["0.5"] > 2 * means["0.085"]

    def test_arrival_rate_is_rejected_elsewhere_and_when_non_positive(
        self, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            bench.main(["stress", "--arrival-rate", "0.3"])
        assert exc.value.code == 2
        assert "scaling bench only" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            bench.build_parser().parse_args(["scaling", "--arrival-rate", "0"])


class TestGridArtifact:
    def test_grid_artifact_records_the_stamp(self, tmp_path):
        out = tmp_path / "grid.json"
        assert bench.main(
            ["traversal", "--seeds", "1", "--out", str(out)]
        ) == 0
        extra = json.loads(out.read_text())["extra"]
        assert extra["engine"] == "event" and extra["seeds"] == [0]
        assert {"python", "cpu_count", "git_sha"} <= set(extra)


def _artifact(tmp_path, name, rows, *, bench_name="grid_stress",
              wall_s=10.0, schema=1):
    doc = {
        "bench": bench_name,
        "schema": schema,
        "scale": 1.0,
        "workers": 0,
        "rows": rows,
        "wall_s": wall_s,
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _row(policy="2PL", workload="stress", wall_s=1.0, **extra):
    row = {
        "policy": policy,
        "workload": workload,
        "wall_s": wall_s,
        "committed": 100,
        "work": {"classify_checks": 500},
    }
    row.update(extra)
    return row


class TestCompare:
    """``--compare OLD.json NEW.json``: the artifact-diff regression gate
    (replaces CI's ad-hoc wall-clock guards)."""

    def test_identical_artifacts_report_no_differences(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row()])
        new = _artifact(tmp_path, "new.json", [_row()])
        assert bench.main(["--compare", old, new]) == 0
        assert "no numeric differences" in capsys.readouterr().out

    def test_deltas_reported_without_threshold_exit_zero(
        self, tmp_path, capsys
    ):
        old = _artifact(tmp_path, "old.json", [_row(wall_s=1.0)])
        new = _artifact(
            tmp_path, "new.json",
            [_row(wall_s=2.0, work={"classify_checks": 600})],
        )
        assert bench.main(["--compare", old, new]) == 0
        out = capsys.readouterr().out
        # Flat metrics and nested work counters both diffed, with %.
        assert "wall_s" in out
        assert "work.classify_checks" in out
        assert "+100.0%" in out

    def test_wall_regression_beyond_threshold_fails(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(wall_s=1.0)])
        new = _artifact(tmp_path, "new.json", [_row(wall_s=2.0)])
        assert bench.main(
            ["--compare", old, new, "--max-wall-regression", "0.5"]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_wall_regression_within_threshold_passes(self, tmp_path):
        old = _artifact(tmp_path, "old.json", [_row(wall_s=1.0)])
        new = _artifact(tmp_path, "new.json", [_row(wall_s=1.3)])
        assert bench.main(
            ["--compare", old, new, "--max-wall-regression", "0.5"]
        ) == 0

    def test_artifact_level_wall_gated_too(self, tmp_path, capsys):
        # Grid presets record only the harness wall at the top level; the
        # gate must catch a regression there even with identical rows.
        old = _artifact(tmp_path, "old.json", [_row()], wall_s=10.0)
        new = _artifact(tmp_path, "new.json", [_row()], wall_s=30.0)
        assert bench.main(
            ["--compare", old, new, "--max-wall-regression", "0.5"]
        ) == 1
        assert "artifact wall_s" in capsys.readouterr().out

    def test_bench_mismatch_is_a_usage_failure(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row()])
        new = _artifact(
            tmp_path, "new.json", [_row()], bench_name="scaling"
        )
        assert bench.main(["--compare", old, new]) == 2
        assert "mismatch" in capsys.readouterr().out

    def test_row_identity_mismatch_is_a_usage_failure(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(policy="2PL")])
        new = _artifact(tmp_path, "new.json", [_row(policy="DDAG")])
        assert bench.main(["--compare", old, new]) == 2
        assert "identity" in capsys.readouterr().out

    def test_scaling_rows_are_identified_by_their_size(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(txns=5000)])
        new = _artifact(tmp_path, "new.json", [_row(txns=500)])
        assert bench.main(["--compare", old, new]) == 2
        assert "identity 'txns'" in capsys.readouterr().out

    def test_row_count_mismatch_is_a_usage_failure(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(), _row(workload="deadlock_storm")])
        new = _artifact(tmp_path, "new.json", [_row()])
        assert bench.main(["--compare", old, new]) == 2
        assert "row count" in capsys.readouterr().out

    def test_one_sided_keys_are_skipped_not_fatal(self, tmp_path, capsys):
        old = _artifact(tmp_path, "old.json", [_row(spill_fraction=0.1)])
        new = _artifact(tmp_path, "new.json", [_row()])
        assert bench.main(["--compare", old, new]) == 0
        assert "(skipped)" in capsys.readouterr().out

    def test_compare_rejects_a_preset(self, tmp_path):
        old = _artifact(tmp_path, "old.json", [_row()])
        new = _artifact(tmp_path, "new.json", [_row()])
        with pytest.raises(SystemExit):
            bench.main(["stress", "--compare", old, new])

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(SystemExit):
            bench.build_parser().parse_args(
                ["--compare", "a.json", "b.json",
                 "--max-wall-regression", "0"]
            )
